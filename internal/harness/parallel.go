package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/trial"
)

// ParallelWorkers lists the worker counts the parallel-sharing experiment
// sweeps.
var ParallelWorkers = []int{2, 4, 8}

// ParallelSharing quantifies the redundancy the subtree decomposition
// eliminates: for every Table I benchmark, the sequential plan's op count
// beside the total ops of the contiguous-chunk decomposition (one chunk
// per worker; prefixes spanning chunk boundaries are recomputed) and of
// the subtree decomposition (reorder.SplitPlan), across worker counts.
// The subtree column is worker-count independent and always equals the
// sequential plan — no sharing is lost. Everything is static analysis, so
// no state vectors are allocated.
func ParallelSharing(cfg Config) (*Table, error) {
	suite, err := mappedSuite(cfg.Seed)
	if err != nil {
		return nil, err
	}
	model := device.Yorktown().Model()
	t := &Table{
		Title:  fmt.Sprintf("Parallel decomposition: total basic ops at %d trials (chunked recomputes boundary prefixes; subtree equals sequential at every worker count)", cfg.Fig6Trials),
		Header: []string{"benchmark", "sequential"},
	}
	for _, w := range ParallelWorkers {
		t.Header = append(t.Header, fmt.Sprintf("chunked w=%d", w))
	}
	t.Header = append(t.Header, "subtree (any w)")
	for _, ref := range bench.TableI {
		c := suite[ref.Name]
		gen, err := trial.NewGenerator(c, model)
		if err != nil {
			return nil, err
		}
		entry, rec := cfg.scenario("parallel", ref.Name)
		rng := rand.New(rand.NewSource(ParallelSeed(cfg)))
		genDone := obs.StartPhase(rec, obs.PhaseTrialGen)
		trials := gen.Generate(rng, cfg.Fig6Trials)
		genDone()
		planDone := obs.StartPhase(rec, obs.PhasePlanBuild)
		plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
		planDone()
		if err != nil {
			return nil, err
		}
		if entry != nil {
			entry.Plan = planStatics(plan.Analysis())
		}
		row := []string{ref.Name, fmt.Sprintf("%d", plan.OptimizedOps())}
		for _, w := range ParallelWorkers {
			total, err := chunkedOps(c, plan.Order, w)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", total))
		}
		sp, err := reorder.BuildSplitPlan(c, trials, 1, reorder.Options{})
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%d", sp.TotalOps()))
		t.AddRow(row...)
	}
	return t, nil
}

// chunkedOps sums the per-chunk plan op counts of a contiguous-chunk
// decomposition (one sorted chunk per worker, each with its own plan),
// without executing anything.
func chunkedOps(c *circuit.Circuit, ordered []*trial.Trial, workers int) (int64, error) {
	var total int64
	for w := 0; w < workers; w++ {
		lo := w * len(ordered) / workers
		hi := (w + 1) * len(ordered) / workers
		if lo == hi {
			continue
		}
		plan, err := reorder.BuildPlan(c, ordered[lo:hi], reorder.Options{})
		if err != nil {
			return 0, err
		}
		total += plan.OptimizedOps()
	}
	return total, nil
}
