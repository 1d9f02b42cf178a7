package sim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/statevec"
)

// TestRegistersReturnToArena is the register accounting of the
// executors' spare stacks: after every run — sequential, subtree-parallel
// at 1, 2 and 4 workers, budgeted, under the uncompute and adaptive
// policies (the latter also under memory pressure), and runs that fail
// mid-plan — each register the run drew
// from its BufferPool is back in the pool or counted in Drops. The pool
// starts empty, so every register it ever handed out was a miss.
func TestRegistersReturnToArena(t *testing.T) {
	c, err := bench.Build("qft5", 1)
	if err != nil {
		t.Fatal(err)
	}
	trials := genTrials(t, c, noise.Uniform("u", c.NumQubits(), 0.01, 0.05, 0.02), 512, 7)
	ordered := reorder.Sort(trials)
	plan, err := reorder.BuildPlanOrdered(c, ordered)
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := reorder.BuildPlanOrderedBudget(c, ordered, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := reorder.SplitPlanOrderedCut(c, ordered, 1, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MSV() < 3 {
		t.Fatalf("plan stores %d vectors at most; the test needs nested snapshots", plan.MSV())
	}
	// Memory pressure on every other branch point makes the adaptive
	// policy push real and virtual frames into the same stack slots.
	calls := 0
	pressure := func() bool { calls++; return calls%2 == 0 }

	// A plan that fails mid-walk with snapshots open, one that fails at
	// its end with a frame left unpopped, a split plan whose largest task
	// fails and one whose trunk fails.
	midFail := *plan
	midFail.Steps = slices.Clone(plan.Steps)
	depth := 0
	for i, s := range midFail.Steps {
		if s.Kind == reorder.StepPush {
			depth++
		}
		if depth == 2 && s.Kind == reorder.StepInject {
			midFail.Steps[i].Kind = reorder.StepKind(7)
			break
		}
	}
	openFail := *plan
	last := len(plan.Steps) - 1
	for plan.Steps[last].Kind != reorder.StepPop {
		last--
	}
	openFail.Steps = slices.Delete(slices.Clone(plan.Steps), last, last+1)
	taskFail := *sp
	taskFail.Subtrees = slices.Clone(sp.Subtrees)
	big := 0
	for i, st := range sp.Subtrees {
		if len(st.Steps) > len(sp.Subtrees[big].Steps) {
			big = i
		}
	}
	bad := *sp.Subtrees[big]
	bad.Steps = slices.Clone(bad.Steps)
	bad.Steps[len(bad.Steps)/2].Kind = reorder.StepKind(7)
	taskFail.Subtrees[big] = &bad
	// A task whose injection names a qubit outside the register panics
	// mid-walk (ApplyPauli); the executor recovers it as the task's error.
	taskPanic := *sp
	taskPanic.Subtrees = slices.Clone(sp.Subtrees)
	wild := *sp.Subtrees[big]
	wild.Steps = slices.Clone(wild.Steps)
	for i := len(wild.Steps) / 2; i < len(wild.Steps); i++ {
		if wild.Steps[i].Kind == reorder.StepInject {
			wild.Steps[i].Qubit = 99
			break
		}
	}
	taskPanic.Subtrees[big] = &wild
	trunkFail := *sp
	trunkFail.Trunk = slices.Clone(sp.Trunk)
	trunkFail.Trunk[len(sp.Trunk)/2].Kind = reorder.StepKind(7)

	type run func(opt Options) (*Result, error)
	seq := func(p *reorder.Plan) run {
		return func(opt Options) (*Result, error) { return ExecutePlan(c, p, opt) }
	}
	split := func(p *reorder.SplitPlan, w int) run {
		return func(opt Options) (*Result, error) { return ExecuteSplitPlan(c, p, w, opt) }
	}
	subtree := func(w int) run {
		return func(opt Options) (*Result, error) { return ParallelSubtreeOrdered(c, ordered, w, opt) }
	}
	for _, tc := range []struct {
		name string
		opt  Options
		run  run
		fail bool
	}{
		{"plan", Options{}, seq(plan), false},
		{"plan/budget-1", Options{SnapshotBudget: 1}, seq(budgeted), false},
		{"plan/uncompute", Options{Policy: PolicyUncompute}, seq(plan), false},
		{"plan/adaptive", Options{Policy: PolicyAdaptive, SnapshotBudget: 2}, seq(plan), false},
		{"plan/adaptive-pressure", Options{Policy: PolicyAdaptive, MemProbe: pressure}, seq(plan), false},
		{"split/1w", Options{}, split(sp, 1), false},
		{"split/2w", Options{}, split(sp, 2), false},
		{"split/4w", Options{}, split(sp, 4), false},
		{"subtree/budget-2/4w", Options{SnapshotBudget: 2}, subtree(4), false},
		{"subtree/uncompute/2w", Options{Policy: PolicyUncompute}, subtree(2), false},
		{"subtree/adaptive/4w", Options{Policy: PolicyAdaptive, SnapshotBudget: 2}, subtree(4), false},
		{"plan/fails-mid-walk", Options{}, seq(&midFail), true},
		{"plan/fails-unwound", Options{}, seq(&openFail), true},
		{"split/task-fails/1w", Options{}, split(&taskFail, 1), true},
		{"split/task-fails/4w", Options{}, split(&taskFail, 4), true},
		{"split/trunk-fails/2w", Options{}, split(&trunkFail, 2), true},
		{"split/task-panics/2w", Options{}, split(&taskPanic, 2), true},
	} {
		pool := statevec.NewBufferPool()
		tc.opt.Pool = pool
		tc.opt.Fuse = statevec.FuseNumeric
		for rep := range 2 { // the second run starts from a warm pool
			_, err := tc.run(tc.opt)
			if (err != nil) != tc.fail {
				t.Fatalf("%s: run %d: error %v, want failure %v", tc.name, rep, err, tc.fail)
			}
			_, misses := pool.Stats()
			if back := int64(pool.Retained()) + pool.Drops(); back != misses {
				t.Errorf("%s: run %d: drew %d registers, %d back in the pool or dropped", tc.name, rep, misses, back)
			}
		}
	}
}
