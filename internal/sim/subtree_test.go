package sim

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/trial"
)

// TestSubtreeMatchesSequential: for every worker count, per-trial outcomes
// are bit-identical to the sequential reordered executor and executed ops
// equal the sequential plan's exactly — the property contiguous chunking
// cannot satisfy.
func TestSubtreeMatchesSequential(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"bv4":    bench.BV(4, 0b111),
		"grover": bench.Grover3(),
		"qft4":   bench.QFT(4),
	}
	for name, c := range circuits {
		m := noise.Uniform("u", c.NumQubits(), 5e-3, 5e-2, 1e-2)
		trials := genTrials(t, c, m, 400, 21)
		seq, err := Reordered(c, trials, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 8; workers++ {
			par, err := ParallelSubtree(c, trials, workers, Options{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !EqualOutcomes(seq, par) {
				t.Errorf("%s workers=%d: outcomes differ from sequential", name, workers)
			}
			if par.Ops != seq.Ops {
				t.Errorf("%s workers=%d: subtree ops %d != sequential %d (sharing lost)",
					name, workers, par.Ops, seq.Ops)
			}
		}
	}
}

// TestOrderedEntriesTakeTheOrder: ParallelSubtreeOrdered runs the order
// of the plan it is given, built or counted, at the cut the plan's task
// counts choose, and matches ParallelSubtree exactly.
func TestOrderedEntriesTakeTheOrder(t *testing.T) {
	c := bench.QFT(5)
	m := noise.Uniform("u", 5, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 400, 23)
	for _, count := range []bool{false, true} {
		plan, err := reorder.BuildPlan(c, trials, reorder.Options{Count: count})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			want, err := ParallelSubtree(c, trials, workers, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParallelSubtreeOrdered(c, plan, workers, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !EqualOutcomes(got, want) || got.Ops != want.Ops || got.Copies != want.Copies {
				t.Errorf("count=%v workers=%d: ParallelSubtreeOrdered differs from ParallelSubtree", count, workers)
			}
		}
	}
}

// TestSubtreeVsChunkedOps: chunking recomputes boundary-spanning prefixes,
// so for multiple workers its op count, summed over one plan per
// contiguous chunk of the sorted trials, strictly exceeds the sequential
// plan's on a circuit with real sharing, while the subtree decomposition
// matches it exactly.
func TestSubtreeVsChunkedOps(t *testing.T) {
	c := bench.QFT(5)
	m := noise.Uniform("u", 5, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 600, 22)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	ordered := reorder.Sort(trials)
	var chunked int64
	for w := 0; w < workers; w++ {
		plan, err := reorder.BuildPlan(c, ordered[w*len(ordered)/workers:(w+1)*len(ordered)/workers], reorder.Options{})
		if err != nil {
			t.Fatal(err)
		}
		chunked += plan.OptimizedOps()
	}
	sub, err := ParallelSubtree(c, trials, workers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if chunked <= seq.Ops {
		t.Errorf("chunked ops %d not above sequential %d (no redundancy to eliminate?)",
			chunked, seq.Ops)
	}
	if sub.Ops != seq.Ops {
		t.Errorf("subtree ops %d != sequential %d", sub.Ops, seq.Ops)
	}
}

// TestSubtreeExplicitCuts: deeper explicit cuts keep correctness and op
// equality.
func TestSubtreeExplicitCuts(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", 3, 1e-2, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 300, 23)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= 3; cut++ {
		par, err := ParallelSubtreeCut(c, trials, 4, cut, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !EqualOutcomes(seq, par) {
			t.Errorf("cut=%d: outcomes differ", cut)
		}
		if par.Ops != seq.Ops {
			t.Errorf("cut=%d: ops %d != sequential %d", cut, par.Ops, seq.Ops)
		}
	}
}

// TestSubtreeBudget: a snapshot budget caps each component's stack while
// preserving outcomes; ops match the budgeted split plan's static count.
func TestSubtreeBudget(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 400, 24)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1, 2, 4} {
		opt := Options{SnapshotBudget: budget}
		bseq, err := Reordered(c, trials, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualOutcomes(seq, bseq) {
			t.Fatalf("budget=%d: budgeted sequential outcomes differ", budget)
		}
		for _, workers := range []int{2, 5} {
			par, err := ParallelSubtree(c, trials, workers, opt)
			if err != nil {
				t.Fatalf("budget=%d workers=%d: %v", budget, workers, err)
			}
			if !EqualOutcomes(seq, par) {
				t.Errorf("budget=%d workers=%d: outcomes differ", budget, workers)
			}
			sp, err := reorder.BuildSplitPlan(c, trials, 1, Options{SnapshotBudget: budget}.planOptions())
			if err != nil {
				t.Fatal(err)
			}
			if par.Ops != sp.TotalOps() {
				t.Errorf("budget=%d workers=%d: executed ops %d != static split ops %d",
					budget, workers, par.Ops, sp.TotalOps())
			}
		}
	}
}

// budgetOptions is the reorder.Options of a snapshot budget in the
// plan convention: math.MaxInt for no cap, 0 for reorder.NoSnapshots.
func budgetOptions(budget int) reorder.Options {
	switch budget {
	case math.MaxInt:
		return reorder.Options{}
	case 0:
		return reorder.Options{Budget: reorder.NoSnapshots}
	}
	return reorder.Options{Budget: budget}
}

// TestSubtreeMSVBounded: with a budget, the concurrent high-water mark of
// stored vectors cannot exceed (components alive at once) x budget; with
// one worker and budget 1 it stays tight.
func TestSubtreeMSVBounded(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", 3, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 25)
	for _, budget := range []int{1, 2} {
		for _, workers := range []int{1, 4} {
			par, err := ParallelSubtree(c, trials, workers, Options{SnapshotBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			// Components alive concurrently: the trunk, each running
			// worker, and up to 2x workers queued entry clones.
			bound := (1 + workers) * budget
			bound += 2 * workers
			if par.MSV > bound {
				t.Errorf("budget=%d workers=%d: MSV %d exceeds bound %d",
					budget, workers, par.MSV, bound)
			}
		}
	}
}

// TestSubtreeKeepStates: final states survive the parallel merge and match
// the sequential executor's.
func TestSubtreeKeepStates(t *testing.T) {
	c := bench.BV(4, 0b101)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 0)
	trials := genTrials(t, c, m, 120, 26)
	seq, err := Reordered(c, trials, Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParallelSubtree(c, trials, 4, Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.FinalStates) != len(trials) {
		t.Fatalf("kept %d states, want %d", len(par.FinalStates), len(trials))
	}
	for id, st := range par.FinalStates {
		if !st.Equal(seq.FinalStates[id], 1e-12) {
			t.Errorf("trial %d: final state differs from sequential", id)
		}
	}
}

// TestSubtreeValidation covers argument errors.
func TestSubtreeValidation(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", 3, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 10, 27)
	if _, err := ParallelSubtree(c, trials, 0, Options{}); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := ParallelSubtree(c, nil, 2, Options{}); err == nil {
		t.Error("empty trial set accepted")
	}
	if _, err := ParallelSubtreeCut(c, trials, 2, -1, Options{}); err == nil {
		t.Error("negative cut accepted")
	}
}

// TestSubtreeProperty fuzzes circuits x error rates x workers x budgets:
// outcomes bit-identical to sequential Reordered, and total executed ops
// equal to the sequential plan's when unbudgeted.
func TestSubtreeProperty(t *testing.T) {
	f := func(seed int64, wRaw, bRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := bench.QV(4, 3, rng)
		workers := 1 + int(wRaw%8)
		budgets := []int{0, 1, 2, 3, 4}
		budget := budgets[int(bRaw)%len(budgets)]
		p2 := []float64{1e-2, 5e-2, 1e-1}[int(pRaw)%3]
		m := noise.Uniform("u", 4, p2/5, p2, p2/2)
		g, err := trial.NewGenerator(c, m)
		if err != nil {
			return false
		}
		trials := g.Generate(rng, 150)
		seq, err := Reordered(c, trials, Options{})
		if err != nil {
			return false
		}
		par, err := ParallelSubtree(c, trials, workers, Options{SnapshotBudget: budget})
		if err != nil {
			return false
		}
		if !EqualOutcomes(seq, par) {
			return false
		}
		if budget == 0 && par.Ops != seq.Ops {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestExecuteSplitPlanDirect drives the executor with a prebuilt plan and
// checks the merged metrics against the plan's static analysis.
func TestExecuteSplitPlanDirect(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 28)
	sp, err := reorder.BuildSplitPlan(c, trials, 2, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSplitPlan(c, sp, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != sp.TotalOps() {
		t.Errorf("executed ops %d != static %d", res.Ops, sp.TotalOps())
	}
	if len(res.Outcomes) != len(trials) {
		t.Errorf("emitted %d outcomes, want %d", len(res.Outcomes), len(trials))
	}
	for i := 1; i < len(res.Outcomes); i++ {
		if res.Outcomes[i-1].TrialID >= res.Outcomes[i].TrialID {
			t.Fatal("outcomes not sorted by trial ID after merge")
		}
	}
}

// TestSubtreeCopyAccounting pins the copies of an unbudgeted snapshot
// split run: one per StepPush (trunk and tasks) plus one entry clone per
// StepSpawn. Tasks adopt their entry clone, so an interpreter that copied
// the entry once more per task would fail here.
func TestSubtreeCopyAccounting(t *testing.T) {
	c := bench.QFT(5)
	m := noise.Uniform("u", 5, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 400, 31)
	ordered := reorder.Sort(trials)
	for cut := 1; cut <= 3; cut++ {
		sp, err := reorder.BuildSplitPlan(c, ordered, cut, reorder.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		count := func(steps []reorder.Step) {
			for _, s := range steps {
				if s.Kind == reorder.StepPush || s.Kind == reorder.StepSpawn {
					want++
				}
			}
		}
		count(sp.Trunk)
		for _, st := range sp.Subtrees {
			count(st.Steps)
		}
		for _, workers := range []int{1, 2, 4} {
			res, err := ParallelSubtreeCut(c, trials, workers, cut, Options{})
			if err != nil {
				t.Fatalf("cut=%d workers=%d: %v", cut, workers, err)
			}
			if res.Copies != want {
				t.Errorf("cut=%d workers=%d: copies %d, want pushes+spawns %d", cut, workers, res.Copies, want)
			}
		}
	}
}

// TestSubtreeWorkerPanicFailsRun: a panic inside a subtree task or the
// trunk (an invalid Pauli makes ApplyPauli panic) becomes the executor's
// error, and every goroutine the executor started exits.
func TestSubtreeWorkerPanicFailsRun(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 28)
	// corrupt makes the first injection among the step lists panic.
	corrupt := func(lists ...[]reorder.Step) bool {
		for _, steps := range lists {
			for i := range steps {
				if steps[i].Kind == reorder.StepInject {
					steps[i].Op = gate.Pauli(99)
					return true
				}
			}
		}
		return false
	}
	for _, where := range []string{"subtree", "trunk"} {
		sp, err := reorder.BuildSplitPlan(c, trials, 2, reorder.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lists := [][]reorder.Step{sp.Trunk}
		if where == "subtree" {
			lists = lists[:0]
			for _, st := range sp.Subtrees {
				lists = append(lists, st.Steps)
			}
		}
		if !corrupt(lists...) {
			t.Fatalf("%s: no injection step to corrupt", where)
		}
		base := runtime.NumGoroutine()
		if _, err := ExecuteSplitPlan(c, sp, 2, Options{}); err == nil {
			t.Fatalf("%s: panicking run returned no error", where)
		} else if !strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: error %q does not report the panic", where, err)
		}
		waitGoroutines(t, where, base)
	}
}

// TestParallelChunkPanicFailsRun: a panic in a parallel run's goroutines
// (here a memory probe that panics at the first adaptive branch point)
// becomes ParallelSubtree's error, and every goroutine exits.
func TestParallelChunkPanicFailsRun(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 29)
	base := runtime.NumGoroutine()
	_, err := ParallelSubtree(c, trials, 2, Options{
		Policy:   PolicyAdaptive,
		MemProbe: func() bool { panic("probe failed") },
	})
	if err == nil || !strings.Contains(err.Error(), "probe failed") {
		t.Fatalf("error = %v, want the probe's panic", err)
	}
	waitGoroutines(t, "parallel", base)
}

// waitGoroutines fails unless the goroutine count falls back to base
// within a second (exiting goroutines may still be counted briefly).
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines left running, baseline %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelMatchesSequential: at 1, 2, 3 and 8 workers the parallel
// executor's outcomes are bit-identical to the sequential run's and its
// ops equal the sequential plan's.
func TestParallelMatchesSequential(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 5e-3, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 600, 20)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		par, err := ParallelSubtree(c, trials, workers, Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !EqualOutcomes(seq, par) {
			t.Errorf("workers=%d: outcomes differ from sequential", workers)
		}
		if par.Ops != seq.Ops {
			t.Errorf("workers=%d: parallel ops %d != sequential %d", workers, par.Ops, seq.Ops)
		}
	}
}

// TestParallelSingleWorkerIdenticalCost: one worker runs every task, so
// trunk and tasks execute exactly the sequential plan's ops. Its MSV is a
// concurrent high-water mark (queued entry clones count), held to the
// subtree bound rather than to the sequential plan's.
func TestParallelSingleWorkerIdenticalCost(t *testing.T) {
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 21)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParallelSubtree(c, trials, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if par.Ops != seq.Ops || !EqualOutcomes(seq, par) {
		t.Errorf("1-worker parallel (%d ops) != sequential (%d ops)", par.Ops, seq.Ops)
	}
	if bound := subtreeMSVBound(t, c, trials, 1); par.MSV < 1 || par.MSV > bound {
		t.Errorf("1-worker parallel MSV %d outside [1, %d] (sequential %d)", par.MSV, bound, seq.MSV)
	}
}

// TestParallelValidation: zero workers and an empty trial set are
// errors; more workers than trials is not.
func TestParallelValidation(t *testing.T) {
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 0)
	trials := genTrials(t, c, m, 10, 22)
	if _, err := ParallelSubtree(c, trials, 0, Options{}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := ParallelSubtree(c, nil, 2, Options{}); err == nil {
		t.Error("empty trials accepted")
	}
	if _, err := ParallelSubtree(c, trials, 100, Options{}); err != nil {
		t.Errorf("surplus workers rejected: %v", err)
	}
}

// TestParallelWorkersExceedTrials: with more workers than trials (down to
// a single trial) outcomes stay bit-identical to the sequential run,
// every trial is emitted exactly once, and ops equal the sequential
// plan's.
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
			par, err := ParallelSubtree(c, trials, workers, Options{})
			if err != nil {
				t.Fatalf("trials=%d workers=%d: %v", nTrials, workers, err)
			}
			if !EqualOutcomes(seq, par) {
				t.Errorf("trials=%d workers=%d: outcomes differ from sequential", nTrials, workers)
			}
			if par.Ops != seq.Ops {
				t.Errorf("trials=%d workers=%d: ops %d != sequential %d", nTrials, workers, par.Ops, seq.Ops)
			}
			total := 0
			for _, n := range par.Counts {
				total += n
			}
			if len(par.Outcomes) != nTrials || total != nTrials {
				t.Errorf("trials=%d workers=%d: %d outcomes, counts sum to %d", nTrials, workers, len(par.Outcomes), total)
			}
		}
	}
}

// TestParallelWorkersEqualTrials: with one worker per trial the outcomes
// equal the baseline's and the ops stay at the sequential plan's, below
// the baseline cost.
func TestParallelWorkersEqualTrials(t *testing.T) {
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 8, 41)
	base, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParallelSubtree(c, trials, len(trials), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualOutcomes(base, par) {
		t.Error("outcomes differ from baseline")
	}
	if par.Ops != seq.Ops || par.Ops >= base.Ops {
		t.Errorf("one worker per trial: parallel ops %d, sequential %d, baseline %d", par.Ops, seq.Ops, base.Ops)
	}
}

// TestParallelMergeBitIdentical: the merged Counts and Outcomes of a
// heavily parallel run equal the sequential run field by field, and the
// concurrent MSV high-water tracker reports a value within the subtree
// bound under -race.
func TestParallelMergeBitIdentical(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 5e-3, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 400, 42)
	seq, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	par, err := ParallelSubtree(c, trials, workers, Options{})
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
	if bound := subtreeMSVBound(t, c, trials, workers); par.MSV < 1 || par.MSV > bound {
		t.Errorf("parallel MSV %d outside [1, %d] (sequential %d, %d workers)", par.MSV, bound, seq.MSV, workers)
	}
}

// TestParallelKeepStates: the kept final states of a parallel run equal
// the baseline's.
func TestParallelKeepStates(t *testing.T) {
	c := bench.WState3()
	m := noise.Uniform("u", 3, 1e-2, 5e-2, 0)
	trials := genTrials(t, c, m, 50, 23)
	par, err := ParallelSubtree(c, trials, 4, Options{KeepStates: true})
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
