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
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	static := plan.OptimizedOps()

	executors := map[string]func(workers int, opt Options) (*Result, error){
		"batched-subtree-4l": func(w int, opt Options) (*Result, error) {
			return ExecuteBatchedSubtree(c, trials, w, 4, opt)
		},
		"subtree": func(w int, opt Options) (*Result, error) {
			return ParallelSubtree(c, trials, w, opt)
		},
	}
	workerCounts := []int{1, 2, 4, 8}
	for name, exec := range executors {
		// One arena across every worker count: the steady state a
		// long-lived caller shares.
		opt := Options{Fuse: statevec.FuseNumeric, Pool: statevec.NewBufferPool()}
		perTrial := make([]float64, len(workerCounts))
		for i, w := range workerCounts {
			perTrial[i] = testing.AllocsPerRun(5, func() {
				res, err := exec(w, opt)
				if err != nil {
					t.Fatalf("%s/%dw: %v", name, w, err)
				}
				if res.Ops != static {
					t.Fatalf("%s/%dw: ops %d, plan %d", name, w, res.Ops, static)
				}
			}) / nTrials
		}
		bound := 1.25*perTrial[0] + 2
		for i, w := range workerCounts {
			t.Logf("%s/%dw: %.2f allocs/trial (bound %.2f)", name, w, perTrial[i], bound)
			if perTrial[i] > bound {
				t.Errorf("%s/%dw: %.2f allocs/trial exceeds %.2f: steady-state allocation grows with workers",
					name, w, perTrial[i], bound)
			}
		}
	}
}
