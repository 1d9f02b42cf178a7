package reorder

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/trial"
)

// This file extends the per-circuit plan machinery to *batches* of related
// circuits. A batch is one base circuit plus a set of variants
// (circuit.Variant: Pauli insertions at layer boundaries — the shape PEC
// and ZNE error-mitigation pipelines generate), each with its own Monte
// Carlo trial set. Because a variant's insertions occupy the same slots as
// injected errors, "variant v, trial t" is itself a trial over the base
// circuit (trial.MergedWith), and the whole batch becomes one merged trial
// multiset. BuildBatchPlan builds a single shared trie over that multiset:
// the trunk covers the prefix common to all variants and all their trials,
// so the common computation — and, with the content-addressed segment
// cache in statevec, the common kernel compilation — happens once per
// batch instead of once per variant.
//
// The accounting is exact by construction: the batch plan is a Plan over
// the merged trials, so its OptimizedOps is what an executor performs,
// and the per-variant sum-of-parts is the same streaming analysis run on
// each variant's merged trials alone (identical budget). SavedOps is their
// difference; the difftest suite proves executed ops equal both sides.

// BatchOrigin attributes one merged trial back to its source: the
// variant's index in the batch and the original trial's ID within that
// variant's trial set.
type BatchOrigin struct {
	Variant int
	TrialID int
}

// BatchPlan is a shared execution plan over a variant batch: one Plan
// covering every (variant, trial) pair, plus the attribution table and
// the per-variant independent-plan metrics the savings analysis reports.
type BatchPlan struct {
	// Plan is the shared plan over the merged trial multiset. Merged
	// trials carry batch-assigned sequential IDs 0..NumTrials-1; use
	// Origin to map them back to (variant, original trial).
	Plan *Plan

	origin    []BatchOrigin    // indexed by merged trial ID
	src       []*trial.Trial   // original trial per merged ID
	varKeys   [][]trial.Key    // packed insertions per variant
	byVariant [][]*trial.Trial // merged trials per variant, source order
	budget    int

	perVarOps    []int64
	perVarMSV    []int
	perVarCopies []int64
}

// BatchAnalysis bundles the batch's static metrics: the shared plan's
// cost beside the sum of independent per-variant plans and the naive
// baseline, quantifying the cross-circuit redundancy the batch trie
// eliminates.
type BatchAnalysis struct {
	Variants int
	Trials   int // merged (variant, trial) pairs
	// BaselineOps is the naive cost: every merged trial executed
	// independently from |0...0>.
	BaselineOps int64
	// SumPartsOps is the cost of planning each variant independently
	// (one trie per variant, same snapshot budget) — the best a
	// per-circuit planner can do.
	SumPartsOps int64
	// BatchOps is the shared batch plan's cost.
	BatchOps int64
	// SavedOps = SumPartsOps - BatchOps: the work the shared trunk
	// dedupes across variants. Non-negative for unbudgeted plans.
	SavedOps int64
	// SpeedupVsParts = SumPartsOps / BatchOps.
	SpeedupVsParts float64
	// MSV metrics: the batch plan's peak stored vectors beside the worst
	// single variant's (independent plans run one at a time, so their
	// peak is the max, not the sum).
	BatchMSV       int
	MaxPartMSV     int
	BatchCopies    int64
	SumPartsCopies int64
}

// BuildBatchPlan builds the shared plan for a variant batch with an
// unlimited snapshot budget. vars[i] owns trialSets[i]; every variant
// must validate against the base circuit.
func BuildBatchPlan(c *circuit.Circuit, vars []circuit.Variant, trialSets [][]*trial.Trial) (*BatchPlan, error) {
	return BuildBatchPlanBudget(c, vars, trialSets, math.MaxInt)
}

// BuildBatchPlanBudget is BuildBatchPlan under a hard cap on concurrently
// stored state vectors (see BuildPlanBudget; the same budget is applied
// to the per-variant reference plans, so SavedOps compares like with
// like).
func BuildBatchPlanBudget(c *circuit.Circuit, vars []circuit.Variant, trialSets [][]*trial.Trial, budget int) (*BatchPlan, error) {
	if len(vars) == 0 {
		return nil, fmt.Errorf("reorder: empty variant batch")
	}
	if len(vars) != len(trialSets) {
		return nil, fmt.Errorf("reorder: %d variants but %d trial sets", len(vars), len(trialSets))
	}
	if budget < 0 {
		return nil, fmt.Errorf("reorder: negative snapshot budget %d", budget)
	}
	total := 0
	for vi, ts := range trialSets {
		if len(ts) == 0 {
			return nil, fmt.Errorf("reorder: variant %d has no trials", vi)
		}
		total += len(ts)
	}
	bp := &BatchPlan{
		origin:    make([]BatchOrigin, 0, total),
		src:       make([]*trial.Trial, 0, total),
		varKeys:   make([][]trial.Key, len(vars)),
		byVariant: make([][]*trial.Trial, len(vars)),
		budget:    budget,
	}
	merged := make([]*trial.Trial, 0, total)
	for vi, v := range vars {
		if err := v.Validate(c); err != nil {
			return nil, err
		}
		keys, err := trial.VariantKeys(v)
		if err != nil {
			return nil, err
		}
		bp.varKeys[vi] = keys
		mv := make([]*trial.Trial, len(trialSets[vi]))
		ids := make(map[int]bool, len(trialSets[vi]))
		for ti, t := range trialSets[vi] {
			if ids[t.ID] {
				return nil, fmt.Errorf("reorder: variant %d has duplicate trial ID %d", vi, t.ID)
			}
			ids[t.ID] = true
			m := t.MergedWith(keys, len(merged))
			bp.origin = append(bp.origin, BatchOrigin{Variant: vi, TrialID: t.ID})
			bp.src = append(bp.src, t)
			mv[ti] = m
			merged = append(merged, m)
		}
		bp.byVariant[vi] = mv
	}
	plan, err := BuildPlanBudget(c, merged, budget)
	if err != nil {
		return nil, err
	}
	bp.Plan = plan
	// Per-variant sum-of-parts: the identical streaming recursion run on
	// each variant's merged trials alone, same budget.
	bp.perVarOps = make([]int64, len(vars))
	bp.perVarMSV = make([]int, len(vars))
	bp.perVarCopies = make([]int64, len(vars))
	for vi := range vars {
		a, err := analyze(c, bp.byVariant[vi], math.MaxInt, budget)
		if err != nil {
			return nil, fmt.Errorf("reorder: variant %d analysis: %v", vi, err)
		}
		bp.perVarOps[vi] = a.OptimizedOps
		bp.perVarMSV[vi] = a.MSV
		bp.perVarCopies[vi] = a.Copies
	}
	return bp, nil
}

// NumVariants returns the batch's variant count.
func (bp *BatchPlan) NumVariants() int { return len(bp.varKeys) }

// NumTrials returns the merged (variant, trial) pair count.
func (bp *BatchPlan) NumTrials() int { return len(bp.origin) }

// Budget returns the snapshot budget the batch was planned under.
func (bp *BatchPlan) Budget() int { return bp.budget }

// Origin maps a merged trial ID back to (variant index, original trial
// ID). It panics on an out-of-range ID.
func (bp *BatchPlan) Origin(mergedID int) BatchOrigin { return bp.origin[mergedID] }

// Source returns the original trial behind a merged trial ID.
func (bp *BatchPlan) Source(mergedID int) *trial.Trial { return bp.src[mergedID] }

// VariantKeys returns variant vi's packed insertions (shared slice; treat
// as read-only).
func (bp *BatchPlan) VariantKeys(vi int) []trial.Key { return bp.varKeys[vi] }

// VariantTrials returns variant vi's merged trials in source order
// (shared slice; treat as read-only). Each carries its batch-assigned
// merged ID; these are the trials an independent per-variant plan for vi
// would execute, which is what the difftest equivalence checks build.
func (bp *BatchPlan) VariantTrials(vi int) []*trial.Trial { return bp.byVariant[vi] }

// VariantOps returns the op count of variant vi's independent plan.
func (bp *BatchPlan) VariantOps(vi int) int64 { return bp.perVarOps[vi] }

// Analysis reports the batch's static savings metrics.
func (bp *BatchPlan) Analysis() BatchAnalysis {
	a := BatchAnalysis{
		Variants:    bp.NumVariants(),
		Trials:      bp.NumTrials(),
		BaselineOps: bp.Plan.BaselineOps(),
		BatchOps:    bp.Plan.OptimizedOps(),
		BatchMSV:    bp.Plan.MSV(),
		BatchCopies: bp.Plan.Copies(),
	}
	for vi := range bp.perVarOps {
		a.SumPartsOps += bp.perVarOps[vi]
		a.SumPartsCopies += bp.perVarCopies[vi]
		if bp.perVarMSV[vi] > a.MaxPartMSV {
			a.MaxPartMSV = bp.perVarMSV[vi]
		}
	}
	a.SavedOps = a.SumPartsOps - a.BatchOps
	if a.BatchOps > 0 {
		a.SpeedupVsParts = float64(a.SumPartsOps) / float64(a.BatchOps)
	}
	return a
}

// Validate extends Plan.Validate to the batch structure: the underlying
// plan must validate, the attribution table must be a bijection onto the
// source trial sets, and every merged trial must be exactly its source
// trial rebased onto its variant's insertions (injection list the sorted
// merge, measurement randomness preserved).
func (bp *BatchPlan) Validate() error {
	if bp.Plan == nil {
		return fmt.Errorf("reorder: batch plan has no plan")
	}
	if err := bp.Plan.Validate(); err != nil {
		return err
	}
	n := len(bp.origin)
	if len(bp.src) != n || len(bp.Plan.Order) != n {
		return fmt.Errorf("reorder: batch attribution covers %d trials, plan orders %d", len(bp.src), len(bp.Plan.Order))
	}
	perVar := make([]int, len(bp.varKeys))
	seen := make([]bool, n)
	for _, m := range bp.Plan.Order {
		if m.ID < 0 || m.ID >= n {
			return fmt.Errorf("reorder: merged trial ID %d outside [0,%d)", m.ID, n)
		}
		if seen[m.ID] {
			return fmt.Errorf("reorder: merged trial ID %d appears twice", m.ID)
		}
		seen[m.ID] = true
		o := bp.origin[m.ID]
		if o.Variant < 0 || o.Variant >= len(bp.varKeys) {
			return fmt.Errorf("reorder: merged trial %d attributed to variant %d of %d", m.ID, o.Variant, len(bp.varKeys))
		}
		perVar[o.Variant]++
		src := bp.src[m.ID]
		if src.ID != o.TrialID {
			return fmt.Errorf("reorder: merged trial %d source ID %d, attribution says %d", m.ID, src.ID, o.TrialID)
		}
		if m.MeasFlips != src.MeasFlips || m.SampleU != src.SampleU {
			return fmt.Errorf("reorder: merged trial %d lost its source's measurement randomness", m.ID)
		}
		want := trial.MergeKeys(bp.varKeys[o.Variant], src.Inj)
		if len(m.Inj) != len(want) {
			return fmt.Errorf("reorder: merged trial %d has %d injections, want %d", m.ID, len(m.Inj), len(want))
		}
		for i := range want {
			if m.Inj[i] != want[i] {
				return fmt.Errorf("reorder: merged trial %d injection %d is %v, want %v", m.ID, i, m.Inj[i].Unpack(), want[i].Unpack())
			}
		}
	}
	for vi, cnt := range perVar {
		if cnt != len(bp.byVariant[vi]) {
			return fmt.Errorf("reorder: variant %d attributed %d trials, owns %d", vi, cnt, len(bp.byVariant[vi]))
		}
	}
	return nil
}
