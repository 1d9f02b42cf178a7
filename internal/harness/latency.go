package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/trial"
)

// Latency runs the reordered executor for real on every Table I benchmark
// and reports the recorded latency distributions: per-trial emit latency
// and snapshot push-to-drop lifetime quantiles, plus the deepest restore.
// Unlike the static experiments this one allocates and executes state
// vectors — it is the distribution-level view of what the op-count tables
// summarize with a single number, and it double-checks the sharing
// invariant (executed ops == plan ops, one latency sample per trial) on
// the way.
func Latency(cfg Config) (*Table, error) {
	suite, err := mappedSuite(cfg.Seed)
	if err != nil {
		return nil, err
	}
	model := device.Yorktown().Model()
	t := &Table{
		Title: fmt.Sprintf("Latency distributions: reordered execution at %d trials (per-trial emit latency; snapshot push-to-drop lifetime)", cfg.Fig6Trials),
		Header: []string{"benchmark", "trial p50", "trial p90", "trial p99",
			"trial max", "snap-life p50", "snap-life p99"},
	}
	for _, ref := range bench.TableI {
		c := suite[ref.Name]
		gen, err := trial.NewGenerator(c, model)
		if err != nil {
			return nil, err
		}
		entry, rec := cfg.scenario("latency", ref.Name)
		m := obs.NewMetrics()
		combined := obs.Multi(m, rec)
		rng := rand.New(rand.NewSource(LatencySeed(cfg)))
		genDone := obs.StartPhase(combined, obs.PhaseTrialGen)
		trials := gen.Generate(rng, cfg.Fig6Trials)
		genDone()
		planDone := obs.StartPhase(combined, obs.PhasePlanBuild)
		plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
		planDone()
		if err != nil {
			return nil, err
		}
		if entry != nil {
			entry.Plan = planStatics(plan.Analysis())
		}
		res, err := sim.ExecutePlan(c, plan, sim.Options{Recorder: combined})
		if err != nil {
			return nil, fmt.Errorf("harness: latency %s: %v", ref.Name, err)
		}
		if res.Ops != plan.OptimizedOps() {
			return nil, fmt.Errorf("harness: latency %s: executed %d ops, plan says %d",
				ref.Name, res.Ops, plan.OptimizedOps())
		}
		lat := m.Hist(obs.HistTrialLatency)
		if lat.Count() != int64(len(trials)) {
			return nil, fmt.Errorf("harness: latency %s: %d latency samples for %d trials",
				ref.Name, lat.Count(), len(trials))
		}
		life := m.Hist(obs.HistSnapshotLifetime)
		t.AddRow(ref.Name,
			fmtNs(lat.Quantile(0.5)), fmtNs(lat.Quantile(0.9)), fmtNs(lat.Quantile(0.99)),
			fmtNs(float64(lat.Max())),
			fmtNs(life.Quantile(0.5)), fmtNs(life.Quantile(0.99)))
	}
	return t, nil
}

// fmtNs renders a nanosecond quantile at table precision.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
