package statevec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/qmath"
)

// ApplyKernels runs a slice of kernels through the tape, one assembly
// call for as many as fit in asmChunk pairs or units, and hands every
// kernel the tape does not take to ApplyKernel. These tests hold it to
// ApplyKernel on each kernel by Float64bits, on every routine and qubit
// shape at n = 1..6, with kernels the tape bails on mixed in.

// tapeGates returns one gate of every kind ResolveOp distinguishes: each
// pair routine (X, Y, Z, H, the d0 == 1 and general diagonals, the
// general 2x2), the identity, CX and a general 4x4, and the kernels the
// tape leaves to ApplyKernel (CZ, Swap, CCX and a dense three-qubit
// gate).
func tapeGates(r *rand.Rand) []gate.Gate {
	th := func() float64 { return (r.Float64() - 0.5) * 8 }
	u3 := func() qmath.Matrix { return gate.U3(th(), th(), th()).Matrix() }
	g2 := gate.Custom("u4", gate.CX().Matrix().Mul(u3().Kron(u3())))
	g3 := gate.Custom("u8", gate.CCX().Matrix().Mul(u3().Kron(u3()).Kron(u3())))
	return []gate.Gate{gate.I(), gate.X(), gate.Y(), gate.Z(), gate.H(), gate.S(), gate.Sdg(), gate.T(),
		gate.Tdg(), gate.SX(), gate.RX(th()), gate.RY(th()), gate.RZ(th()), gate.P(th()), gate.U1(th()),
		gate.U2(th(), th()), gate.U3(th(), th(), th()), gate.CX(), gate.CZ(), gate.Swap(), g2,
		gate.CCX(), g3}
}

// tapeKernels resolves every gate of tapeGates on every qubit, ordered
// qubit pair and ordered triple of an n-qubit state.
func tapeKernels(r *rand.Rand, n int) []OpKernel {
	var ks []OpKernel
	for _, g := range tapeGates(r) {
		var each func(qs []int)
		each = func(qs []int) {
			if len(qs) == g.Qubits() {
				ks = append(ks, ResolveOp(n, g, qs...))
				return
			}
		next:
			for q := 0; q < n; q++ {
				for _, p := range qs {
					if p == q {
						continue next
					}
				}
				each(append(qs, q))
			}
		}
		each(nil)
	}
	return ks
}

// checkTape runs ks on amp through ApplyKernels and through ApplyKernel
// one kernel at a time and compares the states by Float64bits.
func checkTape(t testing.TB, n int, amp []complex128, ks []OpKernel) {
	t.Helper()
	got := &State{n: n, amp: append([]complex128(nil), amp...)}
	want := &State{n: n, amp: append([]complex128(nil), amp...)}
	got.ApplyKernels(ks)
	for i := range ks {
		want.ApplyKernel(&ks[i])
	}
	if i := bitsDiffer(want.amp, got.amp); i >= 0 {
		var names []string
		for _, k := range ks {
			names = append(names, fmt.Sprintf("%d/%v", k.kind, k.r))
		}
		t.Fatalf("n=%d tape %v: amplitude %d: tape %v, ApplyKernel %v", n, names, i, got.amp[i], want.amp[i])
	}
}

// tapeAmps draws a finite state with signed zeros and subnormals, or one
// with Inf and NaN amplitudes: the tape and ApplyKernel run the same
// instructions, so even NaN bits must agree.
func tapeAmps(r *rand.Rand, dim int) []complex128 {
	if r.Intn(2) == 0 {
		return parityAmps(r, dim)
	}
	return diagHAmps(r, dim)
}

// TestTapeMatchesApplyKernel is the tape-vs-ApplyKernel fence: at
// n = 1..6, every kernel alone (each routine on each qubit shape: bit 1,
// CX with control or target on qubit 0, the qubit-0 4x4) and random tapes
// of up to 40 kernels with the ones the tape bails on mixed in.
func TestTapeMatchesApplyKernel(t *testing.T) {
	r := rand.New(rand.NewSource(1032))
	var cases int
	for n := 1; n <= 6; n++ {
		ks := tapeKernels(r, n)
		for i := range ks {
			checkTape(t, n, tapeAmps(r, 1<<n), ks[i:i+1])
			cases++
		}
		for range 200 {
			tape := make([]OpKernel, r.Intn(41))
			for i := range tape {
				tape[i] = ks[r.Intn(len(ks))]
			}
			checkTape(t, n, tapeAmps(r, 1<<n), tape)
			cases++
		}
	}
	t.Logf("%d tapes", cases)
}

// TestTapeWorkCap runs tapes whose kernels fill a call's asmChunk work
// several times over (n = 10..13), and ones whose kernels exceed it on
// their own (n = 14, 15), through ApplyKernels against ApplyKernel.
func TestTapeWorkCap(t *testing.T) {
	r := rand.New(rand.NewSource(4096))
	for n := 10; n <= 15; n++ {
		ks := []OpKernel{
			ResolveOp(n, gate.U3(0.3, 0.7, 1.1), 0), ResolveOp(n, gate.CX(), 0, n-1),
			ResolveOp(n, gate.H(), n-1), ResolveOp(n, gate.T(), 3), ResolveOp(n, gate.CX(), n-1, 2),
			ResolveOp(n, gate.Y(), 1),
		}
		checkTape(t, n, tapeAmps(r, 1<<n), append(ks, ks...))
	}
}

// TestTapeWrongSizePanics puts a kernel resolved for another width in the
// middle of a tape: ApplyKernels must run the kernels before it, as
// ApplyKernel would, and then panic before it sweeps.
func TestTapeWrongSizePanics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, sizes := range [][2]int{{5, 4}, {5, 6}, {3, 12}} {
		n := sizes[0]
		good := []OpKernel{ResolveOp(n, gate.U3(0.1, 0.2, 0.3), 1), ResolveOp(n, gate.CX(), 0, 2)}
		tape := append(append([]OpKernel(nil), good...), ResolveOp(sizes[1], gate.H(), 0), good[0])
		amp := parityAmps(r, 1<<n)
		s := &State{n: n, amp: append([]complex128(nil), amp...)}
		err := catchPanic(func() { s.ApplyKernels(tape) })
		if err == nil || !strings.Contains(err.Error(), "resolved for") {
			t.Fatalf("kernel resolved for n=%d in a tape on n=%d: want a size panic, got %v", sizes[1], n, err)
		}
		want := &State{n: n, amp: append([]complex128(nil), amp...)}
		for i := range good {
			want.ApplyKernel(&good[i])
		}
		if i := bitsDiffer(want.amp, s.amp); i >= 0 {
			t.Fatalf("kernel resolved for n=%d in a tape on n=%d: amplitude %d is %v before the panic, want %v", sizes[1], n, i, s.amp[i], want.amp[i])
		}
	}
}

// TestTapeTakesEveryFuseOffRoutine checks that the tape runs, rather than
// hands back, every kernel ResolveOp gives an exact AVX2 routine, on
// every qubit shape at n = 2..6, that it skips identity kernels, and that
// it stops at CZ, Swap, CCX and dense kernels; and that the set of
// routines seen is the whole FuseOff set.
func TestTapeTakesEveryFuseOffRoutine(t *testing.T) {
	requireAsm(t)
	r := rand.New(rand.NewSource(3))
	seen := map[routine]bool{}
	for n := 2; n <= 6; n++ {
		amp := parityAmps(r, 1<<n)
		for _, k := range tapeKernels(r, n) {
			want := 0
			if k.r >= rXAVX2 || k.kind == okIdentity {
				want = 1
				seen[k.r] = true
			}
			if got := tape(amp, []OpKernel{k}); got != want {
				t.Fatalf("n=%d kind %d routine %v: tape took %d kernels, want %d", n, k.kind, k.r, got, want)
			}
		}
	}
	for _, r := range []routine{rXAVX2, rYAVX2, rZAVX2, rHAVX2, rDiag1AVX2, rDiagAVX2, r1AVX2, rCXAVX2, r2AVX2, r2AVX2Q0} {
		if !seen[r] {
			t.Errorf("no kernel resolved to %v", r)
		}
	}
	// The work cap: at n = 12 two whole-state pair sweeps fill asmChunk,
	// at n = 13 one does, and at n = 14 one is more than a call takes.
	for n, want := range map[int]int{12: 2, 13: 1, 14: 0} {
		k := ResolveOp(n, gate.U3(0.3, 0.7, 1.1), 0)
		if got := tape(make([]complex128, 1<<n), []OpKernel{k, k, k}); got != want {
			t.Errorf("n=%d: tape took %d of 3 u3 kernels, want %d", n, got, want)
		}
	}
}

// FuzzTapeParity runs a random tape (the seed picks the state and the
// kernels from tapeKernels) through ApplyKernels against ApplyKernel.
func FuzzTapeParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(21))
	f.Add(int64(2), uint8(1), uint8(3))
	f.Add(int64(3), uint8(3), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, n, length uint8) {
		nq := 1 + int(n)%6
		r := rand.New(rand.NewSource(seed))
		ks := tapeKernels(r, nq)
		tape := make([]OpKernel, int(length)%64)
		for i := range tape {
			tape[i] = ks[r.Intn(len(ks))]
		}
		checkTape(t, nq, tapeAmps(r, 1<<nq), tape)
	})
}
