package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/trial"
)

// Batch differential checks: the cross-circuit batch plan
// (reorder.BuildBatchPlan) must be exact in the same sense as the
// per-circuit plans — for every variant of the batch, outcomes and final
// states bit-identical to executing that variant's trials alone, through
// an independent plan or the naive baseline, at every worker count and
// under every snapshot budget. CheckBatch is that claim as a seeded,
// replayable property.

// BatchWorkload is one randomized batch differential case: a base
// workload (circuit, model, budget) plus sampled variants, each with its
// own trial count.
type BatchWorkload struct {
	*Workload
	// Variants are the sampled per-circuit Pauli insertions.
	Variants []circuit.Variant
	// TrialsPer is the Monte Carlo trial count per variant.
	TrialsPer int
}

// String renders the replay descriptor.
func (bw *BatchWorkload) String() string {
	return fmt.Sprintf("%s variants=%d trialsPer=%d", bw.Workload, len(bw.Variants), bw.TrialsPer)
}

// GenerateBatch deterministically derives the batch workload for (seed,
// params): the base workload from Generate, then variants and per-variant
// trial counts from an independent stream of the same seed.
func GenerateBatch(seed int64, p Params) *BatchWorkload {
	w := Generate(seed, p)
	rng := rand.New(rand.NewSource(seed ^ 0x62617463)) // independent of workload shaping
	return &BatchWorkload{
		Workload:  w,
		Variants:  circuit.SampleVariants(w.Circuit, rng, 2+rng.Intn(5), 0.5+rng.Float64()),
		TrialsPer: randBetween(rng, 4, 40),
	}
}

// GenBatchTrials draws each variant's trial set from its own derived
// stream.
func (bw *BatchWorkload) GenBatchTrials() ([][]*trial.Trial, error) {
	g, err := trial.NewGeneratorMode(bw.Circuit, bw.Model, bw.Mode)
	if err != nil {
		return nil, err
	}
	sets := make([][]*trial.Trial, len(bw.Variants))
	for vi := range bw.Variants {
		sets[vi] = g.Generate(rand.New(rand.NewSource(bw.Seed^0x62617463^int64(vi+1)<<20)), bw.TrialsPer)
	}
	return sets, nil
}

// BatchReport summarizes one successful batch check.
type BatchReport struct {
	Workload *BatchWorkload
	Analysis reorder.BatchAnalysis
	// Workers is the set of worker counts cross-checked.
	Workers []int
}

// CheckBatch generates the batch workload for a seed and proves the batch
// plan exact, returning the failing seed inside any error.
func CheckBatch(seed int64, p Params) (*BatchReport, error) {
	bw := GenerateBatch(seed, p)
	rep, err := CheckBatchWorkload(bw)
	if err != nil {
		return nil, fmt.Errorf("difftest: batch seed %d [%s]: %w", seed, bw, err)
	}
	return rep, nil
}

// CheckBatchWorkload runs one batch workload through the shared batch
// plan and asserts, per variant:
//
//   - the batch plan validates structurally (Plan.Validate extended to
//     the attribution table by BatchPlan.Validate);
//   - demuxed outcomes and final states are bit-identical to an
//     independent plan over that variant's merged trials, which are in
//     turn bit-identical to the naive baseline;
//   - the subtree executor at 1, 2, 4 and 8 workers reproduces the
//     sequential batch execution exactly, at equal executed ops;
//   - executed ops equal the static BatchOps, per-variant independent
//     ops equal the streamed analysis, and SavedOps is exactly their
//     difference — on the executed numbers, not just the static ones;
//   - MSV stays within the snapshot budget everywhere.
func CheckBatchWorkload(bw *BatchWorkload) (*BatchReport, error) {
	sets, err := bw.GenBatchTrials()
	if err != nil {
		return nil, err
	}
	bp, err := reorder.BuildBatchPlan(bw.Circuit, bw.Variants, sets, reorder.Options{Budget: bw.Budget})
	if err != nil {
		return nil, fmt.Errorf("BuildBatchPlan(budget %d): %w", bw.Budget, err)
	}
	if err := bp.Validate(); err != nil {
		return nil, fmt.Errorf("batch plan invalid: %w", err)
	}
	if bw.Budget > 0 && bp.Plan.MSV() > bw.Budget {
		return nil, fmt.Errorf("batch plan MSV %d exceeds budget %d", bp.Plan.MSV(), bw.Budget)
	}
	opt := sim.Options{KeepStates: true, SnapshotBudget: bw.Budget}

	seq, err := sim.ExecuteBatchPlan(bw.Circuit, bp, opt)
	if err != nil {
		return nil, fmt.Errorf("batch sequential: %w", err)
	}
	if seq.Combined.Ops != bp.Plan.OptimizedOps() {
		return nil, fmt.Errorf("batch executed %d ops, static plan says %d", seq.Combined.Ops, bp.Plan.OptimizedOps())
	}
	if bw.Budget > 0 && seq.Combined.MSV > bw.Budget {
		return nil, fmt.Errorf("batch execution MSV %d exceeds budget %d", seq.Combined.MSV, bw.Budget)
	}

	// Per variant: naive baseline and independent plan over the variant's
	// merged trials are the references the demuxed batch must match bit
	// for bit.
	var partOps int64
	for vi := range bw.Variants {
		mts := bp.VariantTrials(vi)
		naive, err := sim.Baseline(bw.Circuit, mts, opt)
		if err != nil {
			return nil, fmt.Errorf("variant %d naive: %w", vi, err)
		}
		indep, err := sim.Reordered(bw.Circuit, mts, opt)
		if err != nil {
			return nil, fmt.Errorf("variant %d independent plan: %w", vi, err)
		}
		if err := checkAgainstReference(fmt.Sprintf("variant %d independent", vi), naive, indep, mts); err != nil {
			return nil, err
		}
		if indep.Ops != bp.VariantOps(vi) {
			return nil, fmt.Errorf("variant %d: independent plan executed %d ops, streamed analysis says %d", vi, indep.Ops, bp.VariantOps(vi))
		}
		partOps += indep.Ops
		if err := batchVariantMatches(bp, vi, seq.PerVariant[vi], naive); err != nil {
			return nil, fmt.Errorf("sequential batch: %w", err)
		}
	}
	a := bp.Analysis()
	if got := partOps - seq.Combined.Ops; got != a.SavedOps {
		return nil, fmt.Errorf("executed savings %d != analysis SavedOps %d", got, a.SavedOps)
	}

	// Op floor for the subtree sweep: the unbudgeted shared plan. Budgets
	// apply per split component (trunk and each worker get their own
	// stack), so a budgeted subtree may legitimately execute fewer ops
	// than the budgeted sequential plan — but never beat unbudgeted
	// sharing (same convention as the per-circuit engine).
	opsFloor := bp.Plan.OptimizedOps()
	if bw.Budget > 0 {
		free, err := reorder.BuildBatchPlan(bw.Circuit, bw.Variants, sets, reorder.Options{})
		if err != nil {
			return nil, fmt.Errorf("unbudgeted reference batch plan: %w", err)
		}
		opsFloor = free.Plan.OptimizedOps()
	}

	workers := []int{1, 2, 4, 8}
	for _, nw := range workers {
		par, err := sim.ExecuteBatchSubtree(bw.Circuit, bp, nw, opt)
		if err != nil {
			return nil, fmt.Errorf("batch subtree workers=%d: %w", nw, err)
		}
		if par.Combined.Ops < opsFloor {
			return nil, fmt.Errorf("batch subtree workers=%d: %d ops beat the unbudgeted shared plan's %d", nw, par.Combined.Ops, opsFloor)
		}
		if bw.Budget == 0 && par.Combined.Ops != seq.Combined.Ops {
			return nil, fmt.Errorf("batch subtree workers=%d executed %d ops, sequential %d (sharing lost)", nw, par.Combined.Ops, seq.Combined.Ops)
		}
		// Subtree bound: trunk + nw workers each hold at most budget
		// stored vectors, plus each worker's entry and working registers
		// (the per-circuit engine's msvBound convention).
		if bw.Budget > 0 && par.Combined.MSV > (nw+1)*bw.Budget+2*nw {
			return nil, fmt.Errorf("batch subtree workers=%d MSV %d exceeds component bound %d", nw, par.Combined.MSV, (nw+1)*bw.Budget+2*nw)
		}
		if !sim.EqualOutcomes(seq.Combined, par.Combined) {
			return nil, fmt.Errorf("batch subtree workers=%d: combined outcomes differ from sequential%s", nw, firstOutcomeDiff(seq.Combined, par.Combined))
		}
		for vi := range bw.Variants {
			sv, pv := seq.PerVariant[vi], par.PerVariant[vi]
			if !sim.EqualOutcomes(sv, pv) {
				return nil, fmt.Errorf("batch subtree workers=%d variant %d: demuxed outcomes differ%s", nw, vi, firstOutcomeDiff(sv, pv))
			}
			for id, st := range sv.FinalStates {
				if !statesBitIdentical(st, pv.FinalStates[id]) {
					return nil, fmt.Errorf("batch subtree workers=%d variant %d trial %d: final state not bit-identical", nw, vi, id)
				}
			}
		}
	}

	return &BatchReport{Workload: bw, Analysis: a, Workers: workers}, nil
}

// batchVariantMatches compares one demuxed per-variant result (keyed by
// original trial IDs) against a reference over the variant's merged
// trials (keyed by merged IDs), bit for bit.
func batchVariantMatches(bp *reorder.BatchPlan, vi int, got, ref *sim.Result) error {
	if len(got.Outcomes) != len(ref.Outcomes) {
		return fmt.Errorf("variant %d: %d outcomes, reference has %d", vi, len(got.Outcomes), len(ref.Outcomes))
	}
	bits := make(map[int]uint64, len(got.Outcomes))
	for _, o := range got.Outcomes {
		bits[o.TrialID] = o.Bits
	}
	for _, ro := range ref.Outcomes {
		org := bp.Origin(ro.TrialID)
		if org.Variant != vi {
			return fmt.Errorf("merged trial %d attributed to variant %d, expected %d", ro.TrialID, org.Variant, vi)
		}
		b, ok := bits[org.TrialID]
		if !ok {
			return fmt.Errorf("variant %d: original trial %d missing from demuxed outcomes", vi, org.TrialID)
		}
		if b != ro.Bits {
			return fmt.Errorf("variant %d trial %d: outcome %b, reference %b", vi, org.TrialID, b, ro.Bits)
		}
		if !statesBitIdentical(got.FinalStates[org.TrialID], ref.FinalStates[ro.TrialID]) {
			return fmt.Errorf("variant %d trial %d: final state not bit-identical to reference", vi, org.TrialID)
		}
	}
	return nil
}
