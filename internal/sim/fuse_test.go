package sim

import (
	"math"
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
// configuration in FuseExact mode against plain dispatch execution and
// demands bit-identical per-trial outcomes AND final states: exact
// fusion must not change a single floating-point operation.
func TestFusedExecutionBitIdentical(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"bv4":    bench.BV(4, 0b101),
		"qft3":   bench.QFT(3),
		"grover": bench.Grover3(),
	}
	for name, c := range circuits {
		m := noise.Uniform("u", c.NumQubits(), 5e-3, 5e-2, 2e-2)
		trials := genTrials(t, c, m, 200, 11)
		ref, err := Reordered(c, trials, Options{KeepStates: true})
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}

		type cfg struct {
			cname string
			opt   Options
			run   func(opt Options) (*Result, error)
		}
		cases := []cfg{
			{"plan-fused", Options{KeepStates: true, Fuse: statevec.FuseExact},
				func(opt Options) (*Result, error) { return Reordered(c, trials, opt) }},
			{"plan-striped-only", Options{KeepStates: true, Stripes: 3, StripeMin: 1},
				func(opt Options) (*Result, error) { return Reordered(c, trials, opt) }},
			{"plan-fused-striped", Options{KeepStates: true, Fuse: statevec.FuseExact, Stripes: 4, StripeMin: 1},
				func(opt Options) (*Result, error) { return Reordered(c, trials, opt) }},
			{"plan-fused-budget2", Options{KeepStates: true, Fuse: statevec.FuseExact, SnapshotBudget: 2},
				func(opt Options) (*Result, error) { return Reordered(c, trials, opt) }},
			{"subtree-2-fused-striped", Options{KeepStates: true, Fuse: statevec.FuseExact, Stripes: 2, StripeMin: 1},
				func(opt Options) (*Result, error) { return ParallelSubtree(c, trials, 2, opt) }},
		}
		for _, tc := range cases {
			res, err := tc.run(tc.opt)
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

		// Budgeted fused run must be bit-identical to the budgeted
		// dispatch run (replays included).
		refBud, err := Reordered(c, trials, Options{KeepStates: true, SnapshotBudget: 2})
		if err != nil {
			t.Fatal(err)
		}
		gotBud, err := Reordered(c, trials, Options{KeepStates: true, SnapshotBudget: 2, Fuse: statevec.FuseExact})
		if err != nil {
			t.Fatal(err)
		}
		if !EqualOutcomes(refBud, gotBud) {
			t.Errorf("%s: budgeted fused outcomes differ", name)
		}
		for id, want := range refBud.FinalStates {
			if !bitIdenticalStates(want, gotBud.FinalStates[id]) {
				t.Fatalf("%s: budgeted fused trial %d state not bit-identical", name, id)
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

	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []statevec.FuseMode{statevec.FuseOff, statevec.FuseExact, statevec.FuseNumeric} {
		res, err := Reordered(c, trials, Options{Fuse: mode, Stripes: 2, StripeMin: 1})
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
		res, err := ParallelSubtree(c, trials, w, Options{Fuse: statevec.FuseExact, Stripes: 2, StripeMin: 1})
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
