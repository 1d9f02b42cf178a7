package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// buildBenchBatch samples a small variant batch over a benchmark circuit
// with per-variant Monte Carlo trial sets — the shape the harness batch
// experiment executes.
func buildBenchBatch(t *testing.T, c *circuit.Circuit, variants, trialsPer int, budget int, seed int64) *reorder.BatchPlan {
	t.Helper()
	m := noise.Uniform("u", c.NumQubits(), 5e-3, 5e-2, 1e-2)
	g, err := trial.NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	vars := circuit.SampleVariants(c, rng, variants, 1.0)
	sets := make([][]*trial.Trial, len(vars))
	for vi := range vars {
		sets[vi] = g.Generate(rng, trialsPer)
	}
	bp, err := reorder.BuildBatchPlan(c, vars, sets, budgetOptions(budget))
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// TestBatchMatchesPerVariantPlans is the execution-level sharing claim:
// the shared batch plan produces, for every variant, outcomes and final
// states bit-identical to an independent plan over that variant's merged
// trials alone — while executing fewer ops in total.
func TestBatchMatchesPerVariantPlans(t *testing.T) {
	c := bench.BV(4, 0b101)
	bp := buildBenchBatch(t, c, 6, 30, math.MaxInt, 11)
	opt := Options{KeepStates: true}
	br, err := ExecuteBatchPlan(c, bp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if br.Combined.Ops != bp.Plan.OptimizedOps() {
		t.Errorf("batch executed %d ops, plan says %d", br.Combined.Ops, bp.Plan.OptimizedOps())
	}
	var partOps int64
	for vi := 0; vi < bp.NumVariants(); vi++ {
		ref, err := Reordered(c, bp.VariantTrials(vi), opt)
		if err != nil {
			t.Fatal(err)
		}
		partOps += ref.Ops
		if ref.Ops != bp.VariantOps(vi) {
			t.Errorf("variant %d: independent plan executed %d ops, analysis says %d", vi, ref.Ops, bp.VariantOps(vi))
		}
		got := br.PerVariant[vi]
		if len(got.Outcomes) != len(ref.Outcomes) {
			t.Fatalf("variant %d: %d outcomes, want %d", vi, len(got.Outcomes), len(ref.Outcomes))
		}
		// Reference outcomes are keyed by merged IDs; map through Origin to
		// the original trial IDs the demuxed result uses.
		for i, ro := range ref.Outcomes {
			org := bp.Origin(ro.TrialID)
			if org.Variant != vi {
				t.Fatalf("merged trial %d attributed to variant %d, executed under %d", ro.TrialID, org.Variant, vi)
			}
			if got.Outcomes[i].TrialID != org.TrialID || got.Outcomes[i].Bits != ro.Bits {
				t.Fatalf("variant %d outcome %d: got (id %d, %b), want (id %d, %b)",
					vi, i, got.Outcomes[i].TrialID, got.Outcomes[i].Bits, org.TrialID, ro.Bits)
			}
			if !statesBitEqual(got.FinalStates[org.TrialID], ref.FinalStates[ro.TrialID]) {
				t.Fatalf("variant %d trial %d: final state differs from independent plan", vi, org.TrialID)
			}
		}
	}
	if br.Combined.Ops >= partOps {
		t.Errorf("batch executed %d ops, per-variant plans total %d — no sharing across variants", br.Combined.Ops, partOps)
	}
	a := bp.Analysis()
	if saved := partOps - br.Combined.Ops; saved != a.SavedOps {
		t.Errorf("executed savings %d != analysis SavedOps %d", saved, a.SavedOps)
	}
}

func statesBitEqual(a, b *statevec.State) bool {
	if a == nil || b == nil {
		return false
	}
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

// TestBatchSubtreeMatchesSequential: the subtree pool preserves the batch
// plan's sharing and outcomes at every worker count, budgeted or not.
func TestBatchSubtreeMatchesSequential(t *testing.T) {
	c := bench.Grover3()
	for _, budget := range []int{math.MaxInt, 2} {
		bp := buildBenchBatch(t, c, 5, 40, budget, 17)
		seq, err := ExecuteBatchPlan(c, bp, Options{KeepStates: true})
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 8; workers++ {
			par, err := ExecuteBatchSubtree(c, bp, workers, Options{KeepStates: true})
			if err != nil {
				t.Fatalf("budget %d workers %d: %v", budget, workers, err)
			}
			if !EqualOutcomes(seq.Combined, par.Combined) {
				t.Errorf("budget %d workers %d: combined outcomes differ from sequential", budget, workers)
			}
			if par.Combined.Ops != seq.Combined.Ops {
				t.Errorf("budget %d workers %d: ops %d != sequential %d (sharing lost)",
					budget, workers, par.Combined.Ops, seq.Combined.Ops)
			}
			for vi := range seq.PerVariant {
				if !EqualOutcomes(seq.PerVariant[vi], par.PerVariant[vi]) {
					t.Errorf("budget %d workers %d variant %d: demuxed outcomes differ", budget, workers, vi)
				}
				for id, st := range seq.PerVariant[vi].FinalStates {
					if !statesBitEqual(st, par.PerVariant[vi].FinalStates[id]) {
						t.Errorf("budget %d workers %d variant %d trial %d: final state differs", budget, workers, vi, id)
					}
				}
			}
		}
	}
}

// TestBatchObsCounters: a recorder on a batch run receives the batch
// accounting — variant count, static ops saved, and one per-variant ops
// observation — alongside the ordinary executor counters.
func TestBatchObsCounters(t *testing.T) {
	c := bench.BV(4, 0b011)
	bp := buildBenchBatch(t, c, 4, 25, math.MaxInt, 23)
	rec := obs.NewMetrics()
	br, err := ExecuteBatchPlan(c, bp, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	a := bp.Analysis()
	if got := rec.Counter(obs.BatchVariants); got != int64(a.Variants) {
		t.Errorf("BatchVariants = %d, want %d", got, a.Variants)
	}
	if got := rec.Counter(obs.BatchOpsSaved); got != a.SavedOps {
		t.Errorf("BatchOpsSaved = %d, want %d", got, a.SavedOps)
	}
	if got := rec.Counter(obs.Ops); got != br.Combined.Ops {
		t.Errorf("Ops = %d, want executed %d", got, br.Combined.Ops)
	}
	h := rec.Hist(obs.HistBatchVariantOps).Snapshot()
	if h.Count != int64(bp.NumVariants()) {
		t.Errorf("HistBatchVariantOps has %d observations, want one per variant (%d)", h.Count, bp.NumVariants())
	}
	var wantSum int64
	for vi := 0; vi < bp.NumVariants(); vi++ {
		wantSum += bp.VariantOps(vi)
	}
	if h.Sum != wantSum {
		t.Errorf("HistBatchVariantOps sum = %d, want sum of per-variant ops %d", h.Sum, wantSum)
	}
}

// TestBatchDemuxCounts: per-variant Counts histograms partition the
// combined histogram.
func TestBatchDemuxCounts(t *testing.T) {
	c := bench.QFT(3)
	bp := buildBenchBatch(t, c, 3, 50, math.MaxInt, 31)
	br, err := ExecuteBatchPlan(c, bp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := make(map[uint64]int)
	total := 0
	for _, pr := range br.PerVariant {
		for bits, n := range pr.Counts {
			merged[bits] += n
			total += n
		}
	}
	if total != bp.NumTrials() {
		t.Fatalf("per-variant counts total %d trials, want %d", total, bp.NumTrials())
	}
	for bits, n := range br.Combined.Counts {
		if merged[bits] != n {
			t.Errorf("bits %b: per-variant counts %d, combined %d", bits, merged[bits], n)
		}
	}
}
