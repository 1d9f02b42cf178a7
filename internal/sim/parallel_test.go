package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"math/rand"

	"repro/internal/bench"
	"repro/internal/noise"
	"repro/internal/reorder"
)

func TestParallelMatchesSequential(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 5e-3, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 600, 20)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		par, err := Parallel(c, trials, workers, Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !EqualOutcomes(seq, par) {
			t.Errorf("workers=%d: outcomes differ from sequential", workers)
		}
		if par.Ops < seq.Ops {
			t.Errorf("workers=%d: parallel ops %d below sequential %d", workers, par.Ops, seq.Ops)
		}
	}
}

func TestParallelSingleWorkerIdenticalCost(t *testing.T) {
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 21)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Parallel(c, trials, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if par.Ops != seq.Ops || par.MSV != seq.MSV {
		t.Errorf("1-worker parallel (%d ops, %d MSV) != sequential (%d, %d)",
			par.Ops, par.MSV, seq.Ops, seq.MSV)
	}
}

func TestParallelValidation(t *testing.T) {
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 0)
	trials := genTrials(t, c, m, 10, 22)
	if _, err := Parallel(c, trials, 0, Options{}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := Parallel(c, nil, 2, Options{}); err == nil {
		t.Error("empty trials accepted")
	}
	// More workers than trials is fine: surplus workers get empty chunks.
	if _, err := Parallel(c, trials, 100, Options{}); err != nil {
		t.Errorf("surplus workers rejected: %v", err)
	}
}

// TestParallelWorkersExceedTrials drives the empty-chunk path hard: with
// more workers than trials, surplus workers contribute nil partial
// results that the merge must skip, while outcomes stay bit-identical to
// the sequential run and every trial is emitted exactly once.
func TestParallelWorkersExceedTrials(t *testing.T) {
	c := bench.BV(4, 0b101)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	for _, nTrials := range []int{1, 2, 7} {
		trials := genTrials(t, c, m, nTrials, int64(30+nTrials))
		seq, err := Reordered(c, trials, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{nTrials, nTrials + 1, 3 * nTrials, 64} {
			par, err := Parallel(c, trials, workers, Options{})
			if err != nil {
				t.Fatalf("trials=%d workers=%d: %v", nTrials, workers, err)
			}
			if !EqualOutcomes(seq, par) {
				t.Errorf("trials=%d workers=%d: outcomes differ from sequential", nTrials, workers)
			}
			if len(par.Outcomes) != nTrials {
				t.Errorf("trials=%d workers=%d: %d outcomes", nTrials, workers, len(par.Outcomes))
			}
			total := 0
			for _, n := range par.Counts {
				total += n
			}
			if total != nTrials {
				t.Errorf("trials=%d workers=%d: counts sum to %d", nTrials, workers, total)
			}
		}
	}
}

// TestParallelWorkersEqualTrials pins the one-trial-per-chunk boundary:
// every chunk holds exactly one trial, so no intra-chunk sharing exists
// and total ops equal the baseline cost.
func TestParallelWorkersEqualTrials(t *testing.T) {
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 8, 41)
	base, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Parallel(c, trials, len(trials), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualOutcomes(base, par) {
		t.Error("outcomes differ from baseline")
	}
	if par.Ops != base.Ops {
		t.Errorf("one-trial chunks: parallel ops %d != baseline %d", par.Ops, base.Ops)
	}
}

// TestParallelMergeBitIdentical: the merged Counts and Outcomes of a
// heavily parallel run equal the sequential run field by field, and the
// concurrent MSV high-water tracker reports a sane value under -race.
func TestParallelMergeBitIdentical(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 5e-3, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 400, 42)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Parallel(c, trials, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Outcomes) != len(seq.Outcomes) {
		t.Fatalf("outcome count %d != %d", len(par.Outcomes), len(seq.Outcomes))
	}
	for i := range seq.Outcomes {
		if par.Outcomes[i] != seq.Outcomes[i] {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, par.Outcomes[i], seq.Outcomes[i])
		}
	}
	if len(par.Counts) != len(seq.Counts) {
		t.Fatalf("count keys %d != %d", len(par.Counts), len(seq.Counts))
	}
	for bits, n := range seq.Counts {
		if par.Counts[bits] != n {
			t.Errorf("counts[%b] = %d, want %d", bits, par.Counts[bits], n)
		}
	}
	if par.MSV < 1 || par.MSV > seq.MSV*16 {
		t.Errorf("parallel MSV %d implausible (sequential %d, 16 workers)", par.MSV, seq.MSV)
	}
}

// TestMSVTrackerConcurrentHighWater hammers the tracker from many
// goroutines (the -race gate) and checks the peak is at least the
// documented lower bound and at most the arithmetic maximum.
func TestMSVTrackerConcurrentHighWater(t *testing.T) {
	var tr msvTracker
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.add(1)
				tr.add(1)
				tr.add(-1)
				tr.add(-1)
			}
		}()
	}
	wg.Wait()
	hw := tr.highWater()
	// Each goroutine holds at most 2 concurrently; at least one held 2.
	if hw < 2 || hw > 2*workers {
		t.Errorf("high-water %d outside [2, %d]", hw, 2*workers)
	}
	if got := tr.cur.Load(); got != 0 {
		t.Errorf("tracker did not return to zero: %d", got)
	}
}

func TestParallelKeepStates(t *testing.T) {
	c := bench.WState3()
	m := noise.Uniform("u", 3, 1e-2, 5e-2, 0)
	trials := genTrials(t, c, m, 50, 23)
	par, err := Parallel(c, trials, 4, Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Baseline(c, trials, Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if par.FinalStates[tr.ID] == nil {
			t.Fatalf("missing state for trial %d", tr.ID)
		}
		if !par.FinalStates[tr.ID].Equal(base.FinalStates[tr.ID], 1e-12) {
			t.Fatalf("trial %d parallel state differs from baseline", tr.ID)
		}
	}
}

// TestBudgetedExecutionEquivalence: executing a memory-budgeted plan gives
// bit-identical outcomes to the baseline, with bounded stored vectors.
func TestBudgetedExecutionEquivalence(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", 3, 5e-3, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 300, 24)
	base, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1, 2, 5} {
		plan, err := reorder.BuildPlanBudget(c, trials, budget)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecutePlan(c, plan, Options{})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !EqualOutcomes(base, res) {
			t.Errorf("budget %d: outcomes differ from baseline", budget)
		}
		if res.MSV > budget {
			t.Errorf("budget %d: executed MSV %d exceeds budget", budget, res.MSV)
		}
		if res.Ops != plan.OptimizedOps() {
			t.Errorf("budget %d: executed ops %d != planned %d", budget, res.Ops, plan.OptimizedOps())
		}
	}
}

// TestBudgetedEquivalenceProperty fuzzes budgets and trial sets.
func TestBudgetedEquivalenceProperty(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		budget := int(budgetRaw % 6)
		rng := rand.New(rand.NewSource(seed))
		c := bench.QV(3, 2, rng)
		m := noise.Uniform("u", 3, rng.Float64()*0.05, rng.Float64()*0.2, rng.Float64()*0.05)
		g, err := genOK(c, m)
		if err != nil {
			return false
		}
		trials := g.Generate(rng, 80)
		base, err := Baseline(c, trials, Options{})
		if err != nil {
			return false
		}
		plan, err := reorder.BuildPlanBudget(c, trials, budget)
		if err != nil {
			return false
		}
		res, err := ExecutePlan(c, plan, Options{})
		if err != nil {
			return false
		}
		return EqualOutcomes(base, res) && res.MSV <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelChunkPanicFailsRun: a panic in a chunk goroutine (here a
// memory probe that panics at the first adaptive branch point) becomes
// Parallel's error, and every chunk goroutine exits.
func TestParallelChunkPanicFailsRun(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 29)
	base := runtime.NumGoroutine()
	_, err := Parallel(c, trials, 2, Options{
		Policy:   PolicyAdaptive,
		MemProbe: func() bool { panic("probe failed") },
	})
	if err == nil || !strings.Contains(err.Error(), "probe failed") {
		t.Fatalf("error = %v, want the chunk's panic", err)
	}
	waitGoroutines(t, "parallel", base)
}
