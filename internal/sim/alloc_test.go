package sim

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/bench"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/statevec"
)

// TestSteadyStateAllocsFlatAcrossWorkers is the pooled executors'
// allocation contract. Over one warm BufferPool, a run may allocate per
// run bookkeeping that grows with the worker count (goroutines, partial
// results), but nothing in the per-trial loop may allocate. So
// allocs/trial at 2, 4 and 8 workers may exceed the single-worker figure
// only by a fixed slack: 1.25x plus 2.
func TestSteadyStateAllocsFlatAcrossWorkers(t *testing.T) {
	// A collection cycle can count runtime allocations of its own; count
	// only the executors'.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const seed, nTrials = 20200720, 256
	c := bench.QV(8, 3, rand.New(rand.NewSource(seed)))
	trials := genTrials(t, c, noise.Uniform("uniform", 8, 1e-3, 1e-2, 1e-2), nTrials, seed)
	plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	static := plan.OptimizedOps()

	workerCounts := []int{1, 2, 4, 8}
	// One arena across every worker count: the steady state a long-lived
	// caller shares.
	opt := Options{Fuse: statevec.FuseNumeric, Pool: statevec.NewBufferPool()}
	perTrial := make([]float64, len(workerCounts))
	for i, w := range workerCounts {
		perTrial[i] = testing.AllocsPerRun(5, func() {
			res, err := ParallelSubtree(c, trials, w, opt)
			if err != nil {
				t.Fatalf("subtree/%dw: %v", w, err)
			}
			if res.Ops != static {
				t.Fatalf("subtree/%dw: ops %d, plan %d", w, res.Ops, static)
			}
		}) / nTrials
	}
	bound := 1.25*perTrial[0] + 2
	for i, w := range workerCounts {
		t.Logf("subtree/%dw: %.2f allocs/trial (bound %.2f)", w, perTrial[i], bound)
		if perTrial[i] > bound {
			t.Errorf("subtree/%dw: %.2f allocs/trial exceeds %.2f: steady-state allocation grows with workers",
				w, perTrial[i], bound)
		}
	}
}

// TestExecutePlanAllocsFlatInTrials is ExecutePlan's allocation contract:
// the result's outcome slice and histogram are sized once from the plan,
// and the emit loop samples without allocating, so over one warm shared
// pool a prebuilt plan of 4,096 trials runs with as many allocations as
// one of 256.
func TestExecutePlanAllocsFlatInTrials(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const seed = 20200721
	pool := statevec.NewBufferPool()
	for _, name := range []string{"bv5", "qft5", "qv_n5d5"} {
		c, err := bench.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := noise.Uniform("uniform", c.NumQubits(), 1e-3, 1e-2, 1e-2)
		allocs := func(n int) float64 {
			plan, err := reorder.BuildPlan(c, genTrials(t, c, m, n, seed), reorder.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Pool: pool}
			return testing.AllocsPerRun(3, func() {
				res, err := ExecutePlan(c, plan, opt)
				if err != nil {
					t.Fatalf("%s/%d: %v", name, n, err)
				}
				if len(res.Outcomes) != n || res.Ops != plan.OptimizedOps() {
					t.Fatalf("%s/%d: %d outcomes, ops %d, plan %d", name, n, len(res.Outcomes), res.Ops, plan.OptimizedOps())
				}
			})
		}
		small, large := allocs(256), allocs(4096)
		t.Logf("%s: %.0f allocs at 256 trials, %.0f at 4096", name, small, large)
		if large != small {
			t.Errorf("%s: ExecutePlan allocs grow with trials: %.0f at 256, %.0f at 4096", name, small, large)
		}
	}
}
