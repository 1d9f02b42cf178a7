package reorder

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/trial"
)

// randomVariants draws n variants with 0..maxIns insertions over the
// chain circuit's (layers x 2 qubits) grid.
func randomVariants(rng *rand.Rand, n, layers, maxIns int) []circuit.Variant {
	out := make([]circuit.Variant, n)
	for vi := range out {
		v := circuit.Variant{ID: vi}
		for k := rng.Intn(maxIns + 1); k > 0; k-- {
			v.Ins = append(v.Ins, circuit.Insertion{
				Layer: rng.Intn(layers),
				Qubit: rng.Intn(2),
				Op:    gate.Pauli(rng.Intn(3)),
			})
		}
		v.Normalize()
		out[vi] = v
	}
	return out
}

func buildRandomBatch(t *testing.T, seed int64, layers, variants, trialsPer, budget int) (*circuit.Circuit, *BatchPlan) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := chain(layers)
	vars := randomVariants(rng, variants, layers, 2)
	sets := make([][]*trial.Trial, len(vars))
	for vi := range vars {
		sets[vi] = randomTrials(rng, trialsPer, layers, 2, 2)
	}
	bp, err := BuildBatchPlan(c, vars, sets, budgetOpt(budget))
	if err != nil {
		t.Fatalf("BuildBatchPlan(seed %d, budget %d): %v", seed, budget, err)
	}
	return c, bp
}

// TestBatchPlanValidates: random batches under every budget (0, 1, 2 and
// unlimited) produce plans that pass both the structural Plan.Validate
// and the batch attribution Validate.
func TestBatchPlanValidates(t *testing.T) {
	for _, budget := range []int{0, 1, 2, 3, math.MaxInt} {
		for seed := int64(0); seed < 8; seed++ {
			_, bp := buildRandomBatch(t, 100+seed, 6, 10, 6, budget)
			if err := bp.Validate(); err != nil {
				t.Fatalf("budget %d seed %d: %v", budget, seed, err)
			}
			if got := bp.Plan.MSV(); budget != math.MaxInt && got > budget {
				t.Fatalf("budget %d seed %d: plan MSV %d exceeds budget", budget, seed, got)
			}
		}
	}
}

// TestBatchAccountingIdentity: SavedOps is sum-of-parts minus the shared
// plan by definition; the unbudgeted batch plan can never cost more than
// independent per-variant plans (the shared trie only merges prefixes,
// it never lengthens a path), and both bound the naive baseline.
func TestBatchAccountingIdentity(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		_, bp := buildRandomBatch(t, 200+seed, 7, 12, 5, math.MaxInt)
		a := bp.Analysis()
		if a.SavedOps != a.SumPartsOps-a.BatchOps {
			t.Fatalf("seed %d: SavedOps %d != SumParts %d - Batch %d", seed, a.SavedOps, a.SumPartsOps, a.BatchOps)
		}
		if a.BatchOps > a.SumPartsOps {
			t.Fatalf("seed %d: shared batch plan (%d ops) costs more than independent plans (%d)", seed, a.BatchOps, a.SumPartsOps)
		}
		if a.SumPartsOps > a.BaselineOps {
			t.Fatalf("seed %d: per-variant plans (%d ops) cost more than the baseline (%d)", seed, a.SumPartsOps, a.BaselineOps)
		}
		if a.BatchOps != bp.Plan.OptimizedOps() {
			t.Fatalf("seed %d: analysis BatchOps %d != plan OptimizedOps %d", seed, a.BatchOps, bp.Plan.OptimizedOps())
		}
		// Sum-of-parts must equal building each variant's plan for real.
		var sum int64
		for vi := 0; vi < bp.NumVariants(); vi++ {
			p, err := BuildPlan(chainFromPlan(bp), bp.VariantTrials(vi), Options{})
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, vi, err)
			}
			if p.OptimizedOps() != bp.VariantOps(vi) {
				t.Fatalf("seed %d variant %d: streamed ops %d != built plan ops %d", seed, vi, bp.VariantOps(vi), p.OptimizedOps())
			}
			sum += p.OptimizedOps()
		}
		if sum != a.SumPartsOps {
			t.Fatalf("seed %d: built per-variant plans total %d, analysis says %d", seed, sum, a.SumPartsOps)
		}
	}
}

// chainFromPlan rebuilds the chain circuit matching a batch built by
// buildRandomBatch (the plan records only layer metadata).
func chainFromPlan(bp *BatchPlan) *circuit.Circuit {
	return chain(bp.Plan.NumLayers())
}

// TestBatchSingleCleanVariantEqualsPlainPlan: a batch of one variant with
// no insertions is exactly BuildPlan on the same trials.
func TestBatchSingleCleanVariantEqualsPlainPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := chain(5)
	trials := randomTrials(rng, 20, 5, 2, 2)
	bp, err := BuildBatchPlan(c, []circuit.Variant{{ID: 0}}, [][]*trial.Trial{trials}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildPlan(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bp.Plan.OptimizedOps() != plain.OptimizedOps() || bp.Plan.MSV() != plain.MSV() || bp.Plan.Copies() != plain.Copies() {
		t.Fatalf("single clean variant batch (%d ops, MSV %d, copies %d) differs from plain plan (%d, %d, %d)",
			bp.Plan.OptimizedOps(), bp.Plan.MSV(), bp.Plan.Copies(),
			plain.OptimizedOps(), plain.MSV(), plain.Copies())
	}
	a := bp.Analysis()
	if a.SavedOps != 0 {
		t.Fatalf("one-variant batch claims to save %d ops over itself", a.SavedOps)
	}
}

// TestBatchBudgetExhaustedAtVariantFork pins the snapshot-budget edge the
// batch amplifies: two variants that diverge at a known layer, with
// budgets 0 and 1, so the fork point is exactly where the budget runs
// out. The plan must stay valid, respect the budget, and keep the
// restore-replay accounting consistent (ops monotone as budget grows).
func TestBatchBudgetExhaustedAtVariantFork(t *testing.T) {
	c := chain(6)
	// Variant 0 inserts at layer 2, variant 1 at layer 4: the merged trie
	// forks at depth 0 between the two insertion keys.
	vars := []circuit.Variant{
		{ID: 0, Ins: []circuit.Insertion{{Layer: 2, Qubit: 0, Op: gate.PauliX}}},
		{ID: 1, Ins: []circuit.Insertion{{Layer: 4, Qubit: 1, Op: gate.PauliZ}}},
	}
	// Each variant: one clean trial and one trial injecting right at the
	// variant's own insertion layer (same-key duplication across the
	// merge) plus one later.
	sets := [][]*trial.Trial{
		{
			mkTrial(0),
			mkTrial(1, trial.Injection{Layer: 2, Qubit: 0, Op: gate.PauliX}),
			mkTrial(2, trial.Injection{Layer: 5, Qubit: 1, Op: gate.PauliY}),
		},
		{
			mkTrial(0),
			mkTrial(1, trial.Injection{Layer: 4, Qubit: 1, Op: gate.PauliZ}),
			mkTrial(2, trial.Injection{Layer: 3, Qubit: 0, Op: gate.PauliY}),
		},
	}
	var prevOps int64 = math.MaxInt64
	for _, budget := range []int{0, 1, 2, math.MaxInt} {
		bp, err := BuildBatchPlan(c, vars, sets, budgetOpt(budget))
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := bp.Validate(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if budget != math.MaxInt && bp.Plan.MSV() > budget {
			t.Fatalf("budget %d: MSV %d", budget, bp.Plan.MSV())
		}
		if ops := bp.Plan.OptimizedOps(); ops > prevOps {
			t.Fatalf("budget %d: ops %d exceed smaller-budget ops %d (more memory must never cost more compute)", budget, ops, prevOps)
		} else {
			prevOps = ops
		}
		// Every merged trial must carry its variant's insertion.
		for _, m := range bp.Plan.Order {
			org := bp.Origin(m.ID)
			keys := bp.VariantKeys(org.Variant)
			found := 0
			for _, k := range m.Inj {
				if len(keys) > 0 && k == keys[0] {
					found++
				}
			}
			if len(keys) > 0 && found == 0 {
				t.Fatalf("budget %d: merged trial %d lost variant %d's insertion", budget, m.ID, org.Variant)
			}
		}
	}
}

// TestBatchPlanRejectsMalformedInput: shape errors surface as errors, not
// panics or silent misattribution.
func TestBatchPlanRejectsMalformedInput(t *testing.T) {
	c := chain(4)
	ok := [][]*trial.Trial{{mkTrial(0)}}
	if _, err := BuildBatchPlan(c, nil, nil, Options{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := BuildBatchPlan(c, []circuit.Variant{{ID: 0}}, nil, Options{}); err == nil {
		t.Error("variant/trial-set length mismatch accepted")
	}
	if _, err := BuildBatchPlan(c, []circuit.Variant{{ID: 0}}, [][]*trial.Trial{{}}, Options{}); err == nil {
		t.Error("empty trial set accepted")
	}
	if _, err := BuildBatchPlan(c, []circuit.Variant{{ID: 0}}, ok, Options{Budget: -2}); err == nil {
		t.Error("negative budget accepted")
	}
	bad := circuit.Variant{ID: 0, Ins: []circuit.Insertion{{Layer: 99, Qubit: 0, Op: gate.PauliX}}}
	if _, err := BuildBatchPlan(c, []circuit.Variant{bad}, ok, Options{}); err == nil {
		t.Error("out-of-range insertion layer accepted")
	}
	dup := [][]*trial.Trial{{mkTrial(3), mkTrial(3)}}
	if _, err := BuildBatchPlan(c, []circuit.Variant{{ID: 0}}, dup, Options{}); err == nil {
		t.Error("duplicate trial IDs within a variant accepted")
	}
}
