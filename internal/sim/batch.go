package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/trace"
)

// Batch execution: run a shared variant-batch plan (reorder.BatchPlan)
// through the ordinary plan executors and attribute every outcome back to
// its (variant, original trial). The executors are untouched — a batch
// plan is a plan over merged trials — so all their guarantees carry over:
// outcomes are bit-identical to executing each variant's merged trials
// through an independent plan (or the baseline), in any execution mode,
// at any worker count. The difftest suite asserts exactly that.

// BatchResult is a batch execution demultiplexed per variant.
type BatchResult struct {
	// Combined is the raw shared-plan result: outcomes keyed by merged
	// trial ID, with the executed Ops/Copies/MSV of the whole batch.
	Combined *Result
	// PerVariant holds one Result per variant with outcomes (and, under
	// Options.KeepStates, final states) keyed by the variant's original
	// trial IDs. Only outcome fields are populated: the executed-work
	// metrics live in Combined, because shared work cannot be attributed
	// to a single variant.
	PerVariant []*Result
}

// ExecuteBatchPlan runs a prebuilt batch plan sequentially (one working
// register, the shared snapshot stack) and demultiplexes the outcomes per
// variant. The recorder, when set, additionally receives the batch
// accounting: obs.BatchVariants, obs.BatchOpsSaved (the static
// sum-of-parts minus the shared plan's ops) and one
// obs.HistBatchVariantOps observation per variant.
func ExecuteBatchPlan(c *circuit.Circuit, bp *reorder.BatchPlan, opt Options) (*BatchResult, error) {
	res, err := ExecutePlan(c, bp.Plan, opt)
	if err != nil {
		return nil, err
	}
	return demuxBatch(bp, res, opt)
}

// ExecuteBatchSubtree runs a batch plan on the subtree worker pool: the
// shared trunk executes once and spawns per-branch tasks, preserving all
// cross-variant prefix sharing at every worker count (the split-plan
// invariant). The batch's own snapshot budget bounds the trunk's and each
// worker's stack. workers <= 1 falls back to the sequential executor.
func ExecuteBatchSubtree(c *circuit.Circuit, bp *reorder.BatchPlan, workers int, opt Options) (*BatchResult, error) {
	if workers <= 1 {
		return ExecuteBatchPlan(c, bp, opt)
	}
	popt := reorder.Options{Budget: bp.Budget()}
	if opt.Policy != PolicySnapshot {
		// Non-snapshot policies enforce the budget at run time; the
		// split plan stays unbudgeted (no restore/replay steps).
		popt = reorder.Options{}
	}
	sp, err := reorder.BuildSplitPlan(c, bp.Plan.Order, chooseCut(bp.Plan, workers), popt)
	if err != nil {
		return nil, err
	}
	res, err := ExecuteSplitPlan(c, sp, workers, opt)
	if err != nil {
		return nil, err
	}
	return demuxBatch(bp, res, opt)
}

// demuxBatch splits a merged-ID result into per-variant results and
// records the batch accounting.
func demuxBatch(bp *reorder.BatchPlan, res *Result, opt Options) (*BatchResult, error) {
	per := make([]*Result, bp.NumVariants())
	for vi := range per {
		per[vi] = newResult(nil, len(bp.VariantTrials(vi)), opt.KeepStates)
	}
	for _, o := range res.Outcomes {
		org := bp.Origin(o.TrialID)
		pr := per[org.Variant]
		pr.Outcomes = append(pr.Outcomes, Outcome{TrialID: org.TrialID, Bits: o.Bits})
	}
	if opt.KeepStates {
		for id, st := range res.FinalStates {
			org := bp.Origin(id)
			pr := per[org.Variant]
			if _, dup := pr.FinalStates[org.TrialID]; dup {
				return nil, fmt.Errorf("sim: variant %d has duplicate original trial ID %d", org.Variant, org.TrialID)
			}
			pr.FinalStates[org.TrialID] = st
		}
	}
	for vi, pr := range per {
		if len(pr.Outcomes) != len(bp.VariantTrials(vi)) {
			return nil, fmt.Errorf("sim: variant %d received %d outcomes of %d", vi, len(pr.Outcomes), len(bp.VariantTrials(vi)))
		}
		finish(pr)
	}
	if rec := opt.Recorder; rec != nil {
		a := bp.Analysis()
		rec.Add(obs.BatchVariants, int64(a.Variants))
		rec.Add(obs.BatchOpsSaved, a.SavedOps)
		for vi := 0; vi < bp.NumVariants(); vi++ {
			rec.Observe(obs.HistBatchVariantOps, bp.VariantOps(vi))
		}
	}
	if sp := opt.Span; sp != nil {
		a := bp.Analysis()
		sp.Event("batch_demux",
			trace.Int("variants", int64(a.Variants)),
			trace.Int("ops_saved", a.SavedOps))
	}
	return &BatchResult{Combined: res, PerVariant: per}, nil
}
