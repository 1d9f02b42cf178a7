package statevec

import (
	"strings"
	"testing"

	"repro/internal/gate"
)

// hostFeatures is the instruction-set support of this build on this CPU,
// read before any test switches a flag.
var hostFeatures = Kernels()

// isaLevels are the KernelISA levels, lowest first.
var isaLevels = []string{"go", "avx2", "avx2+fma", "avx2+fma+avx512"}

// kernelRoutine is the routine a lowered pair or unit kernel resolved to.
func kernelRoutine(k kernel) routine {
	switch t := k.(type) {
	case *chainKernel:
		return t.r
	case *cxKernel:
		return t.r
	case *twoQKernel:
		return t.r
	}
	return rNone
}

// TestSweepRouting pins the routing table: the routine ResolveOp (for
// dispatch) and lowering (for FuseOff and FuseNumeric
// programs) pick for each kernel kind and qubit shape at every ISA level
// the host can run. The FMA routines are within a few ulps of the exact
// ones, so a numeric kernel routed to an exact routine would pass every
// closeness test and only run slower; this table is what catches it.
func TestSweepRouting(t *testing.T) {
	u4 := gate.Custom("u4", gate.CX().Matrix().Mul(gate.U3(0.3, 0.5, 0.7).Matrix().Kron(gate.U3(1.1, 1.3, 1.7).Matrix())))
	// exact and numeric hold the routine at each level of isaLevels.
	cases := []struct {
		g              gate.Gate
		qss            [][]int
		exact, numeric string
	}{
		{gate.X(), [][]int{{0}, {1}, {3}}, "kernXGo kernXAVX2 kernXAVX2 kernXAVX2", ""},
		{gate.Y(), [][]int{{0}, {1}, {3}}, "kernYGo kernYAVX2 kernYAVX2 kernYAVX2", ""},
		{gate.Z(), [][]int{{0}, {1}, {3}}, "kernZGo kernZAVX2 kernZAVX2 kernZAVX2", ""},
		{gate.H(), [][]int{{0}, {1}, {3}}, "kernHGo kernHAVX2 kernHAVX2 kernHAVX2", ""},
		{gate.U1(0.4), [][]int{{0}, {1}, {3}}, "kernDiagGo kernDiag1AVX2 kernDiag1AVX2 kernDiag1AVX2", ""},
		{gate.RZ(0.4), [][]int{{0}, {1}, {3}}, "kernDiagGo kernDiagAVX2 kernDiagAVX2 kernDiagAVX2", ""},
		{gate.U3(0.3, 0.5, 0.7), [][]int{{0}, {1}},
			"kern1Go kern1AVX2 kern1AVX2 kern1AVX2", "kern1Go kern1AVX2 kern1FMA kern1FMA"},
		{gate.U3(0.3, 0.5, 0.7), [][]int{{2}, {3}},
			"kern1Go kern1AVX2 kern1AVX2 kern1AVX2", "kern1Go kern1AVX2 kern1FMA kern1FMA512"},
		{gate.CX(), [][]int{{0, 3}, {3, 0}, {1, 3}, {3, 2}}, "kernCXGo kernCXAVX2 kernCXAVX2 kernCXAVX2", ""},
		{u4, [][]int{{0, 3}, {3, 0}},
			"kern2Go kern2AVX2Q0 kern2AVX2Q0 kern2AVX2Q0", "kern2Go kern2AVX2Q0 kern2FMAQ0 kern2FMAQ0512"},
		{u4, [][]int{{1, 3}, {3, 1}},
			"kern2Go kern2AVX2 kern2AVX2 kern2AVX2", "kern2Go kern2AVX2 kern2FMA kern2FMA"},
		{u4, [][]int{{2, 3}, {4, 2}},
			"kern2Go kern2AVX2 kern2AVX2 kern2AVX2", "kern2Go kern2AVX2 kern2FMA kern2FMA512"},
	}
	const n = 5
	ran := 0
	for level, isa := range isaLevels {
		t.Run(isa, func(t *testing.T) {
			if !setISA(t, isa) {
				t.Skipf("this build on this CPU cannot run %s (it runs %s)", isa, hostISA())
			}
			if got := KernelISA(); got != isa {
				t.Fatalf("KernelISA() = %q, want %q", got, isa)
			}
			ran++
			for _, c := range cases {
				exact := strings.Fields(c.exact)[level]
				numeric := exact
				if c.numeric != "" {
					numeric = strings.Fields(c.numeric)[level]
				}
				for _, qs := range c.qss {
					if got := ResolveOp(n, c.g, qs...).r.String(); got != exact {
						t.Errorf("ResolveOp %s%v: %s, want %s", c.g.Name(), qs, got, exact)
					}
					layers := [][]loweredOp{{{g: c.g, qubits: qs}}}
					for _, mode := range []FuseMode{FuseOff, FuseNumeric} {
						want := exact
						if mode == FuseNumeric {
							want = numeric
						}
						ks, _ := lowerSegment(layers, 0, 1, mode)
						if len(ks) != 1 {
							t.Fatalf("fuse %s %s%v: lowered to %d kernels, want 1", mode, c.g.Name(), qs, len(ks))
						}
						if got := kernelRoutine(ks[0]).String(); got != want {
							t.Errorf("fuse %s %s%v: %s, want %s", mode, c.g.Name(), qs, got, want)
						}
					}
				}
			}
			// A whole-state sweep needs two pairs (units) for the
			// assembly: dispatch on one qubit (two) takes the Go body.
			if got := ResolveOp(1, gate.H(), 0).r; got != rHGo {
				t.Errorf("ResolveOp h[0] on 1 qubit: %v, want kernHGo", got)
			}
			if got := ResolveOp(2, u4, 0, 1).r; got != r2Go {
				t.Errorf("ResolveOp u4[0 1] on 2 qubits: %v, want kern2Go", got)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no ISA level ran")
	}
}

// hostISA is the KernelISA name of hostFeatures.
func hostISA() string {
	switch f := hostFeatures; {
	case f.AVX512:
		return isaLevels[3]
	case f.FMA:
		return isaLevels[2]
	case f.AVX2:
		return isaLevels[1]
	}
	return isaLevels[0]
}
