package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/trial"
)

// TestPolicyMatrix is the exhaustive bit-identity matrix for the
// restore-policy executors: 16 corpus seeds x snapshot budgets
// {0 (unlimited), 1, 2, MaxInt} x worker counts {1, 2, 4, 8}, each run
// under PolicyUncompute and PolicyAdaptive and compared against
// sequential snapshot execution with Float64bits-exact states, identical
// per-trial outcomes, and identical averaged distributions. -short
// shrinks the matrix to keep the always-on suite fast; the full sweep
// runs in deep mode and under `make race-verify`.
func TestPolicyMatrix(t *testing.T) {
	seeds := make([]int64, 16)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	budgets := []int{0, 1, 2, math.MaxInt}
	workers := []int{1, 2, 4, 8}
	if testing.Short() {
		seeds = seeds[:4]
		budgets = []int{0, 1}
		workers = []int{1, 4}
	}
	policies := []sim.RestorePolicy{sim.PolicyUncompute, sim.PolicyAdaptive}
	for _, seed := range seeds {
		w := FromSeed(seed)
		trials, err := w.GenTrials()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The reference the satellite claim names: sequential ExecutePlan
		// under the default snapshot policy.
		ref, err := sim.Reordered(w.Circuit, trials, sim.Options{KeepStates: true})
		if err != nil {
			t.Fatalf("seed %d: reference execution: %v", seed, err)
		}
		for _, b := range budgets {
			for _, wk := range workers {
				for _, pol := range policies {
					name := fmt.Sprintf("seed=%d budget=%d workers=%d policy=%s", seed, b, wk, pol)
					opt := sim.Options{KeepStates: true, SnapshotBudget: b, Policy: pol}
					var res *sim.Result
					if wk == 1 {
						res, err = sim.Reordered(w.Circuit, trials, opt)
					} else {
						res, err = sim.ParallelSubtree(w.Circuit, trials, wk, opt)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := checkAgainstReference(name, ref, res, trials); err != nil {
						t.Fatal(err)
					}
					if pol == sim.PolicyUncompute && wk == 1 && (res.MSV != 0 || res.Copies != 0) {
						t.Fatalf("%s: stored %d vectors, %d copies under PolicyUncompute", name, res.MSV, res.Copies)
					}
				}
			}
		}
	}
}

// TestPolicyUncomputeExactReversal proves the exact reverse-execution
// path is exercised non-vacuously. The random corpus draws gates outside
// the exactly invertible set (H, S, rotations), so its rollbacks may fall
// back to replay; this workload is confined to signed-permutation gates
// ({X, Z, CX, CZ, Swap, CCX}) with handcrafted X/Z-only injections, so
// every journal suffix is exactly invertible and every branch return MUST
// be reverse execution: forward ops realize the unbudgeted plan exactly,
// rollback work lands entirely in UncomputeOps, and the final states are
// still bit-identical to naive execution.
func TestPolicyUncomputeExactReversal(t *testing.T) {
	c := circuit.New("perm-4", 4)
	c.Append(gate.X(), 0)
	c.Append(gate.CX(), 0, 1)
	c.Append(gate.CCX(), 0, 1, 2)
	c.Append(gate.Z(), 1)
	c.Append(gate.Swap(), 2, 3)
	c.Append(gate.CZ(), 0, 3)
	c.Append(gate.X(), 2)
	c.Append(gate.CX(), 3, 1)
	for q := 0; q < 4; q++ {
		c.Measure(q, q)
	}

	// Handcrafted trials: X/Z injections only (the generator would draw Y,
	// which is outside the exact set). At most one injection per layer, in
	// layer order, so the packed keys are already sorted ascending.
	rng := rand.New(rand.NewSource(20200720))
	layers := c.NumLayers()
	trials := make([]*trial.Trial, 24)
	for i := range trials {
		var keys []trial.Key
		for l := 0; l < layers; l++ {
			if rng.Intn(3) != 0 {
				continue
			}
			op := gate.PauliX
			if rng.Intn(2) == 0 {
				op = gate.PauliZ
			}
			keys = append(keys, trial.Pack(l, rng.Intn(4), op))
		}
		trials[i] = &trial.Trial{ID: i, Inj: keys, SampleU: rng.Float64()}
	}

	naive, err := sim.Baseline(c, trials, sim.Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	freePlan, err := reorder.BuildPlan(c, trials, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const name = "exact-uncompute"
	res, err := sim.Reordered(c, trials, sim.Options{KeepStates: true, Policy: sim.PolicyUncompute})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := checkAgainstReference(name, naive, res, trials); err != nil {
		t.Fatal(err)
	}
	if res.MSV != 0 || res.Copies != 0 {
		t.Fatalf("%s: stored %d vectors, %d copies", name, res.MSV, res.Copies)
	}
	// No replays happened: forward work is exactly the unbudgeted
	// plan's, and the reverse path actually ran.
	if res.Ops != freePlan.OptimizedOps() {
		t.Fatalf("%s: %d forward ops, plan has %d (replay fallback fired on an invertible suffix)",
			name, res.Ops, freePlan.OptimizedOps())
	}
	if res.UncomputeOps == 0 {
		t.Fatalf("%s: zero uncompute ops — the reverse path never executed (vacuous test)", name)
	}
}
