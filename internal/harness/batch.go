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

// The batch experiment extends the paper's evaluation in the direction
// TQSim (arXiv:2203.13892) and error-mitigation pipelines point: not one
// circuit with many trials, but many *related* circuits — a shared base
// plus per-variant Pauli insertions, the shape PEC quasi-probability
// sampling produces — each with its own Monte Carlo trial set. One shared
// trie (reorder.BuildBatchPlan) covers the prefix common to all variants
// and all their trials; the experiment measures what that sharing saves
// over the best a per-circuit planner can do (one independent trie per
// variant) and over the naive baseline (every trial from scratch).

// BatchRow holds one batch-experiment row.
type BatchRow struct {
	Benchmark   string
	Variants    int
	TrialsPer   int
	BaselineOps int64 // every merged trial independently
	SumParts    int64 // one independent plan per variant
	BatchOps    int64 // the shared batch plan
	SavedOps    int64 // SumParts - BatchOps
	Speedup     float64
	BatchMSV    int
	MaxPartMSV  int
}

// batchDefaults fills zero-valued batch knobs so configs predating the
// batch experiment keep working.
func batchDefaults(cfg Config) Config {
	d := DefaultConfig()
	if cfg.BatchVariants <= 0 {
		cfg.BatchVariants = d.BatchVariants
	}
	if cfg.BatchTrials <= 0 {
		cfg.BatchTrials = d.BatchTrials
	}
	if cfg.BatchMeanIns <= 0 {
		cfg.BatchMeanIns = d.BatchMeanIns
	}
	return cfg
}

// BatchData runs the batch experiment for every Table I benchmark,
// returning raw rows for the table and the tests. Everything is static
// plan analysis — no state vectors are allocated.
func BatchData(cfg Config) ([]BatchRow, error) {
	cfg = batchDefaults(cfg)
	suite, err := mappedSuite(cfg.Seed)
	if err != nil {
		return nil, err
	}
	model := device.Yorktown().Model()
	var out []BatchRow
	for bi, ref := range bench.TableI {
		c := suite[ref.Name]
		gen, err := trial.NewGenerator(c, model)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %v", ref.Name, err)
		}
		entry, rec := cfg.scenario("batch", ref.Name)
		genDone := obs.StartPhase(rec, obs.PhaseTrialGen)
		vrng := rand.New(rand.NewSource(BatchSeed(cfg, bi, -1)))
		vars := circuit.SampleVariants(c, vrng, cfg.BatchVariants, cfg.BatchMeanIns)
		sets := make([][]*trial.Trial, len(vars))
		for vi := range vars {
			trng := rand.New(rand.NewSource(BatchSeed(cfg, bi, vi)))
			sets[vi] = gen.Generate(trng, cfg.BatchTrials)
		}
		genDone()
		planDone := obs.StartPhase(rec, obs.PhasePlanBuild)
		bp, err := reorder.BuildBatchPlan(c, vars, sets, reorder.Options{})
		planDone()
		if err != nil {
			return nil, fmt.Errorf("harness: %s batch plan: %v", ref.Name, err)
		}
		a := bp.Analysis()
		if entry != nil {
			entry.Plan = planStatics(bp.Plan.Analysis())
		}
		if rec != nil {
			rec.Add(obs.BatchVariants, int64(a.Variants))
			rec.Add(obs.BatchOpsSaved, a.SavedOps)
		}
		out = append(out, BatchRow{
			Benchmark:   ref.Name,
			Variants:    a.Variants,
			TrialsPer:   cfg.BatchTrials,
			BaselineOps: a.BaselineOps,
			SumParts:    a.SumPartsOps,
			BatchOps:    a.BatchOps,
			SavedOps:    a.SavedOps,
			Speedup:     a.SpeedupVsParts,
			BatchMSV:    a.BatchMSV,
			MaxPartMSV:  a.MaxPartMSV,
		})
	}
	return out, nil
}

// Batch renders the batch experiment: per benchmark, the ops of the
// shared batch trie beside independent per-variant plans and the naive
// baseline.
func Batch(cfg Config) (*Table, error) {
	cfg = batchDefaults(cfg)
	data, err := BatchData(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Batch: shared trie over %d PEC-style variants x %d trials (ops-saved vs one plan per variant)",
			cfg.BatchVariants, cfg.BatchTrials),
		Header: []string{"benchmark", "baseline", "per-variant plans", "batch plan", "saved", "speedup", "MSV(batch)", "MSV(part max)"},
	}
	for _, r := range data {
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%d", r.BaselineOps),
			fmt.Sprintf("%d", r.SumParts),
			fmt.Sprintf("%d", r.BatchOps),
			fmt.Sprintf("%d", r.SavedOps),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", r.BatchMSV),
			fmt.Sprintf("%d", r.MaxPartMSV))
	}
	return t, nil
}
