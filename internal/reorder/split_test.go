package reorder

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/trial"
)

// benchTrials samples a realistic trial set for a Table I benchmark.
func benchTrials(t *testing.T, name string, n int, seed int64) (*circuit.Circuit, []*trial.Trial) {
	t.Helper()
	c, err := bench.Build(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := noise.Uniform("u", c.NumQubits(), 5e-3, 5e-2, 1e-2)
	gen, err := trial.NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	return c, gen.Generate(rand.New(rand.NewSource(seed)), n)
}

// TestSplitPlanOpsEqualSequential is the core no-lost-sharing property:
// for every cut depth, trunk ops + the sum of subtree ops equals the
// sequential plan's optimized op count exactly.
func TestSplitPlanOpsEqualSequential(t *testing.T) {
	for _, name := range []string{"bv5", "grover", "qft5", "qv_n5d5"} {
		c, trials := benchTrials(t, name, 600, 11)
		plan, err := BuildPlan(c, trials, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut <= 3; cut++ {
			sp, err := BuildSplitPlan(c, trials, cut, Options{})
			if err != nil {
				t.Fatalf("%s cut=%d: %v", name, cut, err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("%s cut=%d: %v", name, cut, err)
			}
			if sp.TotalOps() != plan.OptimizedOps() {
				t.Errorf("%s cut=%d: split total ops %d != sequential %d (sharing lost)",
					name, cut, sp.TotalOps(), plan.OptimizedOps())
			}
			if sp.BaselineOps() != plan.BaselineOps() {
				t.Errorf("%s cut=%d: baseline ops disagree", name, cut)
			}
		}
	}
}

// TestSplitPlanTaskShape checks the structural decomposition: tasks cover
// all trials exactly once, and per-task static op counts match the steps
// they contain.
func TestSplitPlanTaskShape(t *testing.T) {
	c, trials := benchTrials(t, "qft5", 500, 12)
	sp, err := BuildSplitPlan(c, trials, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Cut != 1 {
		t.Errorf("default cut = %d, want 1", sp.Cut)
	}
	total := 0
	for _, st := range sp.Subtrees {
		total += st.Trials
		if len(st.Steps) == 0 {
			t.Fatalf("task %d has no steps", st.ID)
		}
		var ops int64
		for _, s := range st.Steps {
			switch s.Kind {
			case StepAdvance:
				ops += int64(sp.layerCum[s.To] - sp.layerCum[s.From])
			case StepInject:
				ops++
			case StepSpawn:
				t.Fatalf("task %d contains a spawn step", st.ID)
			}
		}
		if ops != st.Ops {
			t.Errorf("task %d declares %d ops, steps sum to %d", st.ID, st.Ops, ops)
		}
	}
	if total != len(sp.Order) {
		t.Errorf("tasks cover %d of %d trials", total, len(sp.Order))
	}
	// The trunk never emits: every trial belongs to exactly one task.
	for _, s := range sp.Trunk {
		if s.Kind == StepEmit {
			t.Fatal("trunk contains an emit step")
		}
	}
}

// TestSplitPlanBudget: budgeted splits validate, and every component's
// static stored-vector peak respects the cap.
func TestSplitPlanBudget(t *testing.T) {
	c, trials := benchTrials(t, "grover", 400, 13)
	plan, err := BuildPlan(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1, 2, 4} {
		for cut := 1; cut <= 2; cut++ {
			sp, err := BuildSplitPlan(c, trials, cut, budgetOpt(budget))
			if err != nil {
				t.Fatalf("budget=%d cut=%d: %v", budget, cut, err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("budget=%d cut=%d: %v", budget, cut, err)
			}
			if sp.TrunkMSV() > budget {
				t.Errorf("budget=%d cut=%d: trunk MSV %d exceeds cap", budget, cut, sp.TrunkMSV())
			}
			for _, st := range sp.Subtrees {
				if st.MSV > budget {
					t.Errorf("budget=%d cut=%d: task %d MSV %d exceeds cap", budget, cut, st.ID, st.MSV)
				}
			}
			// Budgeted splits may replay; they can never beat the
			// unbudgeted sequential plan.
			if sp.TotalOps() < plan.OptimizedOps() {
				t.Errorf("budget=%d cut=%d: split ops %d below sequential %d",
					budget, cut, sp.TotalOps(), plan.OptimizedOps())
			}
		}
	}
}

// TestSplitPlanFuzz: random trial multisets keep the ops-equality and
// validation invariants at every cut depth.
func TestSplitPlanFuzz(t *testing.T) {
	c := chain(8)
	f := func(seed int64, cutRaw uint8) bool {
		cut := 1 + int(cutRaw%3)
		rng := rand.New(rand.NewSource(seed))
		trials := randomTrials(rng, 60, 8, 2, 4)
		plan, err := BuildPlan(c, trials, Options{})
		if err != nil {
			return false
		}
		sp, err := BuildSplitPlan(c, trials, cut, Options{})
		if err != nil {
			return false
		}
		return sp.Validate() == nil && sp.TotalOps() == plan.OptimizedOps()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSplitPlanErrors covers the argument validation.
func TestSplitPlanErrors(t *testing.T) {
	c := chain(3)
	trials := []*trial.Trial{mkTrial(0)}
	if _, err := BuildSplitPlan(c, nil, 1, Options{}); err == nil {
		t.Error("empty trial set accepted")
	}
	if _, err := BuildSplitPlan(c, trials, 0, Options{}); err == nil {
		t.Error("cut 0 accepted")
	}
	if _, err := BuildSplitPlan(c, trials, 1, Options{Budget: -2}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := BuildSplitPlan(c, trials, 1, Options{Count: true}); err == nil {
		t.Error("count-only split accepted")
	}
	if _, err := BuildSplitPlan(c, trials, 1, Options{MaxShared: 1}); err == nil {
		t.Error("sharing cap accepted")
	}
}

// TestBuildPlanOrdered: the deprecated presorted entry builds the same
// plan as BuildPlan, and BuildPlan builds the same plan from any order of
// the trials, budgeted or not.
func TestBuildPlanOrdered(t *testing.T) {
	c, trials := benchTrials(t, "bv5", 400, 14)
	reversed := slices.Clone(trials)
	slices.Reverse(reversed)
	for _, budget := range []int{0, 2, math.MaxInt} {
		want, err := BuildPlan(c, trials, budgetOpt(budget))
		if err != nil {
			t.Fatal(err)
		}
		ordered, err := BuildPlanOrderedBudget(c, Sort(trials), budget)
		if err != nil {
			t.Fatal(err)
		}
		shuffled, err := BuildPlan(c, reversed, budgetOpt(budget))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Plan{"BuildPlanOrderedBudget": ordered, "reversed trials": shuffled} {
			if got.Analysis() != want.Analysis() || !slices.Equal(got.Steps, want.Steps) {
				t.Errorf("budget %s: %s plan differs from BuildPlan's", budgetLabel(budget), name)
			}
		}
		if !slices.Equal(ordered.Order, want.Order) {
			t.Errorf("budget %s: BuildPlanOrderedBudget order differs from BuildPlan's", budgetLabel(budget))
		}
	}
}

// countSubtrees is the reference count of the tasks a split plan cut at
// depth cut makes of trials in Sort order, by one scan of the order: each
// task's trials are contiguous, and a boundary falls wherever the task
// key changes. Trials with at least cut injections share a task iff their
// first cut injections agree; shallower trials are exhausted at their
// trie node and share a task iff their whole injection lists agree.
func countSubtrees(ordered []*trial.Trial, cut int) int {
	sameTask := func(a, b *trial.Trial) bool {
		if (len(a.Inj) >= cut) != (len(b.Inj) >= cut) {
			return false
		}
		n := cut
		if len(a.Inj) < cut {
			if len(a.Inj) != len(b.Inj) {
				return false
			}
			n = len(a.Inj)
		}
		return slices.Equal(a.Inj[:n], b.Inj[:n])
	}
	count := 1
	for i := 1; i < len(ordered); i++ {
		if !sameTask(ordered[i-1], ordered[i]) {
			count++
		}
	}
	return count
}

// TestSplitTasksMatchReference: the task counts the walk records equal
// the reference scan of the order and the split plans themselves, at
// cuts 1-3, counted or built, on the golden jobs and on random sets.
func TestSplitTasksMatchReference(t *testing.T) {
	check := func(label string, c *circuit.Circuit, trials []*trial.Trial) {
		t.Helper()
		for _, opt := range []Options{{}, {Count: true}, {Budget: 2}} {
			p, err := BuildPlan(c, trials, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for cut := 1; cut <= CountedCuts; cut++ {
				if got, want := p.SplitTasks(cut), countSubtrees(p.Order, cut); got != want {
					t.Fatalf("%s %+v cut %d: walk counts %d tasks, reference %d", label, opt, cut, got, want)
				}
			}
		}
		for cut := 1; cut <= CountedCuts; cut++ {
			sp, err := BuildSplitPlan(c, trials, cut, Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want := countSubtrees(sp.Order, cut); len(sp.Subtrees) != want {
				t.Fatalf("%s cut %d: split plan has %d tasks, reference %d", label, cut, len(sp.Subtrees), want)
			}
		}
	}
	for _, job := range goldenJobs(t) {
		if job.seed <= 2 {
			check(job.name, job.c, job.trials)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 100; round++ {
		check("random", chain(12), randTrialSet(rng, 1+rng.Intn(300)))
	}
}
