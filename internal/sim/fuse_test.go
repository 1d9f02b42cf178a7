package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/statevec"
)

func bitIdenticalStates(a, b *statevec.State) bool {
	aa, ba := a.Amplitudes(), b.Amplitudes()
	if len(aa) != len(ba) {
		return false
	}
	for i := range aa {
		if math.Float64bits(real(aa[i])) != math.Float64bits(real(ba[i])) ||
			math.Float64bits(imag(aa[i])) != math.Float64bits(imag(ba[i])) {
			return false
		}
	}
	return true
}

// TestFusedExecutionBitIdentical runs every compiled-execution
// configuration on a FuseOff program against plain dispatch execution and
// demands bit-identical per-trial outcomes AND final states: a FuseOff
// program sweeps exactly the routines dispatch does. The snapshot policy
// runs compiled only with a prebuilt Plan.Prog; the uncompute policy
// always compiles.
func TestFusedExecutionBitIdentical(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"bv4":    bench.BV(4, 0b101),
		"qft3":   bench.QFT(3),
		"grover": bench.Grover3(),
	}
	for name, c := range circuits {
		m := noise.Uniform("u", c.NumQubits(), 5e-3, 5e-2, 2e-2)
		trials := genTrials(t, c, m, 200, 11)
		opt := Options{KeepStates: true}
		ref, err := Reordered(c, trials, opt)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		prog := statevec.CompileWith(c, statevec.CompileOptions{Fuse: statevec.FuseOff})

		cases := []struct {
			cname string
			run   func() (*Result, error)
		}{
			{"plan-compiled", func() (*Result, error) {
				plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
				if err != nil {
					return nil, err
				}
				plan.Prog = prog
				return ExecutePlan(c, plan, opt)
			}},
			{"plan-compiled-budget2", func() (*Result, error) {
				plan, err := reorder.BuildPlan(c, trials, budgetOptions(2))
				if err != nil {
					return nil, err
				}
				plan.Prog = prog
				return ExecutePlan(c, plan, opt)
			}},
			{"subtree-2-compiled", func() (*Result, error) {
				sp, err := reorder.BuildSplitPlan(c, trials, 1, reorder.Options{})
				if err != nil {
					return nil, err
				}
				sp.Prog = prog
				return ExecuteSplitPlan(c, sp, 2, opt)
			}},
			{"plan-uncompute", func() (*Result, error) {
				o := opt
				o.Policy = PolicyUncompute
				return Reordered(c, trials, o)
			}},
		}
		for _, tc := range cases {
			res, err := tc.run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.cname, err)
			}
			if !EqualOutcomes(ref, res) {
				t.Errorf("%s %s: outcomes differ from dispatch execution", name, tc.cname)
			}
			for id, want := range ref.FinalStates {
				got := res.FinalStates[id]
				if got == nil {
					t.Fatalf("%s %s: missing final state for trial %d", name, tc.cname, id)
				}
				if !bitIdenticalStates(want, got) {
					t.Fatalf("%s %s: trial %d final state not bit-identical", name, tc.cname, id)
				}
			}
		}
	}
}

// TestFusedOpAccounting pins the paper's metric under fusion: compiled
// execution must report exactly the static plan's op count (logical ops,
// not kernels), and the same MSV and copies.
func TestFusedOpAccounting(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 0)
	trials := genTrials(t, c, m, 300, 3)

	plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []statevec.FuseMode{statevec.FuseOff, statevec.FuseNumeric} {
		res, err := Reordered(c, trials, Options{Fuse: mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != plan.OptimizedOps() {
			t.Errorf("mode %v: executed %d ops, plan says %d", mode, res.Ops, plan.OptimizedOps())
		}
		if res.MSV != plan.MSV() {
			t.Errorf("mode %v: MSV %d, plan says %d", mode, res.MSV, plan.MSV())
		}
		if res.Copies != plan.Copies() {
			t.Errorf("mode %v: copies %d, plan says %d", mode, res.Copies, plan.Copies())
		}
	}

	// Subtree decomposition keeps all sharing: fused subtree ops must
	// still equal the sequential plan's.
	for _, w := range []int{2, 4} {
		res, err := ParallelSubtree(c, trials, w, Options{Fuse: statevec.FuseNumeric})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != plan.OptimizedOps() {
			t.Errorf("subtree-%d fused: executed %d ops, plan says %d", w, res.Ops, plan.OptimizedOps())
		}
	}
}

// TestNumericFusedEquivalence checks FuseNumeric end-to-end: same op
// accounting, final states within tolerance of dispatch execution
// (algebraic folding reassociates floating point, so bit-identity is not
// claimed and numeric mode stays out of the difftest registry).
func TestNumericFusedEquivalence(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", c.NumQubits(), 1e-2, 5e-2, 0)
	trials := genTrials(t, c, m, 250, 17)

	ref, err := Reordered(c, trials, Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reordered(c, trials, Options{KeepStates: true, Fuse: statevec.FuseNumeric})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != ref.Ops {
		t.Errorf("numeric ops %d, dispatch %d", res.Ops, ref.Ops)
	}
	for id, want := range ref.FinalStates {
		got := res.FinalStates[id]
		if got == nil {
			t.Fatalf("missing numeric final state for trial %d", id)
		}
		if !want.Equal(got, 1e-9) {
			t.Fatalf("trial %d numeric state deviates beyond 1e-9", id)
		}
	}
}

// TestExecutorsRejectStripes: intra-state striping is removed, so the
// deprecated Options.Stripes > 1 fails every plan executor with an error
// naming the field instead of running serially in its place.
func TestExecutorsRejectStripes(t *testing.T) {
	c := bench.QFT(3)
	trials := genTrials(t, c, noise.Uniform("u", 3, 1e-2, 5e-2, 0), 64, 5)
	plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Stripes: 2}
	for name, run := range map[string]func() (*Result, error){
		"ExecutePlan":     func() (*Result, error) { return ExecutePlan(c, plan, opt) },
		"ParallelSubtree": func() (*Result, error) { return ParallelSubtree(c, trials, 2, opt) },
	} {
		if _, err := run(); err == nil || !strings.Contains(err.Error(), "Stripes") {
			t.Errorf("%s: error %v, want one naming Stripes", name, err)
		}
	}
	if _, err := ExecutePlan(c, plan, Options{Stripes: 1}); err != nil {
		t.Errorf("Stripes 1 (serial) rejected: %v", err)
	}
}
