// SplitPlan decomposes the injection-prefix trie into independently
// executable subtree tasks, the decomposition TQSim-style parallel
// reuse simulators need: contiguous chunking of the sorted trials severs
// every prefix shared across a chunk boundary, while cutting the trie at a
// branch level keeps all sharing intact — each shared prefix state is
// computed exactly once, on the sequential trunk, and handed to workers
// as cloned entry states.
//
// The trunk is the portion of the sequential plan above the cut: it
// advances the error-free frontier (and, for cuts deeper than 1, the
// shallow branch states), and where the sequential plan would descend
// into a depth-`cut` subtree it instead emits a StepSpawn that clones the
// working state for that subtree's task. Because the trunk performs the
// shared-prefix work exactly as the sequential plan does, and every task
// body is the same recursion the sequential builder would have run from
// the same entry state, the total basic-operation count of trunk + tasks
// equals the sequential plan's — the property contiguous chunking cannot
// satisfy (the test suite asserts the equality).
package reorder

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// Subtree is one independently executable unit of a SplitPlan: a
// branch-point child of the injection trie (its defining injection plus
// everything beneath it), or a clean tail (trials whose injections are
// exhausted at the cut, needing only a final advance and emit).
type Subtree struct {
	// ID is the task's index in SplitPlan.Subtrees and the Step.Task()
	// value of the trunk spawn that feeds it.
	ID int
	// EntryLayer is how many gate layers the entry state has applied.
	EntryLayer int
	// EntryDepth is how many injections the entry state has applied.
	EntryDepth int
	// Steps is the task's instruction sequence, executed against the
	// cloned entry state as the working register.
	Steps []Step
	// Ops is the static basic-operation count of Steps (including any
	// budget-forced replays).
	Ops int64
	// MSV is the task's peak count of stored state vectors: its snapshot
	// stack, plus the preserved entry state when the plan is budgeted
	// with budget >= 1 (an unbudgeted task consumes its entry clone as
	// the working register, which MSV excludes by convention).
	MSV int
	// Trials is how many trials the task emits.
	Trials int
}

// SplitPlan is a parallel decomposition of a reordered execution schedule:
// a sequential trunk program plus independent subtree tasks. Execute the
// trunk like a Plan; on StepSpawn, clone the working state and hand it to
// Subtrees[Step.Task()], whose Steps may then run on any worker. Results
// are deterministic regardless of task scheduling because every trial
// carries its own randomness.
type SplitPlan struct {
	// Order is the globally sorted trial sequence all step indices
	// reference.
	Order []*trial.Trial
	// Trunk is the sequential prefix program (advances, pushes, injects,
	// pops, restores, spawns — never emits).
	Trunk []Step
	// Subtrees lists the tasks in trunk spawn order.
	Subtrees []*Subtree
	// Cut is the trie depth the plan was split at: tasks hang at
	// injection depth Cut.
	Cut int
	// Prog, when set, is a compiled kernel program executors use for
	// StepAdvance layer ranges instead of gate-by-gate dispatch (see
	// Plan.Prog). Nil means dispatch execution.
	Prog *statevec.Program

	budget   int
	trunkOps int64
	trunkMSV int
	nLayers  int
	layerCum []int
	baseline int64
}

// TrunkOps returns the static basic-operation count of the trunk.
func (sp *SplitPlan) TrunkOps() int64 { return sp.trunkOps }

// TrunkMSV returns the trunk's peak snapshot-stack depth.
func (sp *SplitPlan) TrunkMSV() int { return sp.trunkMSV }

// TotalOps returns the static basic-operation count of the whole
// decomposition: trunk plus every subtree. For an unbudgeted split this
// equals BuildPlan's OptimizedOps for the same trial set — no prefix
// sharing is lost to the decomposition.
func (sp *SplitPlan) TotalOps() int64 {
	total := sp.trunkOps
	for _, st := range sp.Subtrees {
		total += st.Ops
	}
	return total
}

// BaselineOps returns the basic-operation count of running every trial
// independently (same definition as Plan.BaselineOps).
func (sp *SplitPlan) BaselineOps() int64 { return sp.baseline }

// Budget returns the per-component snapshot budget the plan was built
// with: the trunk's snapshot stack and each task's stored vectors
// (including the task's preserved entry state) are each capped at this
// value. math.MaxInt means unbudgeted.
func (sp *SplitPlan) Budget() int { return sp.budget }

// NumLayers returns the circuit depth the plan was built against.
func (sp *SplitPlan) NumLayers() int { return sp.nLayers }

// BuildSplitPlan sorts the trials and decomposes their plan at the given
// cut depth, in one walk, under Options.Budget applied per component. A
// deeper cut yields more, smaller tasks (better load balancing for many
// workers) at the price of more sequential trunk work and one entry
// clone per task; Plan.SplitTasks counts them ahead. A split plan
// records every step and shares every injection, so Count and MaxShared
// must be unset.
func BuildSplitPlan(c *circuit.Circuit, trials []*trial.Trial, cut int, opt Options) (*SplitPlan, error) {
	if cut < 1 {
		return nil, fmt.Errorf("reorder: split cut depth %d < 1", cut)
	}
	if opt.Count || opt.MaxShared != 0 {
		return nil, fmt.Errorf("reorder: a split plan neither counts only nor caps sharing")
	}
	var w Workspace
	var wk walk
	if err := w.start(&wk, c, trials, opt); err != nil {
		return nil, err
	}
	sp := &SplitPlan{
		Order:    wk.order,
		Cut:      cut,
		budget:   wk.budget,
		nLayers:  wk.plan.nLayers,
		layerCum: wk.plan.layerCum,
		baseline: wk.plan.baseline,
	}
	// The tasks carve their steps from the presized slab; the trunk's
	// steps grow apart.
	wk.split, wk.cut = sp, cut
	wk.slab, wk.cur.steps = wk.cur.steps, nil
	wk.node(0, len(trials), 0)
	if len(wk.snaps) != 0 {
		return nil, fmt.Errorf("reorder: internal error, %d trunk snapshots leaked", len(wk.snaps))
	}
	sp.Trunk, sp.trunkOps, sp.trunkMSV = wk.cur.steps, wk.cur.ops, wk.cur.msv
	return sp, nil
}

// keepsEntry reports whether a split plan's tasks under budget keep their
// entry clone as the bottom of their snapshot stack, so replays can
// resume from it: a budgeted task that may store a snapshot. The entry
// occupies one budget slot and counts as a stored vector.
func keepsEntry(budget int) bool { return budget != math.MaxInt && budget >= 1 }

// resume is what a trunk walk resumes with after a task.
type resume struct {
	trunk  part
	snaps  []snap
	layers int
	task   *Subtree
	start  int // the task's first step in the slab
}

// enterTask starts the task of trials [lo, hi), which share injections
// [0, depth] with the branch key at index depth: the walk's component
// becomes the task, generated against the trunk's current (layersDone,
// prefix) with a stack of its own.
func (w *walk) enterTask(lo, hi, depth int) resume {
	r := resume{trunk: w.cur, snaps: w.snaps, layers: w.layersDone, start: len(w.slab),
		task: &Subtree{ID: len(w.split.Subtrees), EntryLayer: w.layersDone, EntryDepth: depth, Trials: hi - lo}}
	w.cur = part{steps: w.slab}
	w.snaps = w.snaps[len(w.snaps):]
	if keepsEntry(w.budget) {
		w.snaps = append(w.snaps, snap{layers: w.layersDone, prefixLen: depth})
		w.cur.msv = 1
	}
	return r
}

// leaveTask closes the task enterTask started (its branch injection and
// the walk below it), and returns to the trunk, which spawns it.
func (w *walk) leaveTask(r resume) {
	t, entry := r.task, 0
	if keepsEntry(w.budget) {
		entry = 1
	}
	if w.layersDone != w.plan.nLayers || len(w.snaps) != entry {
		panic(fmt.Sprintf("reorder: subtree %d ended at layer %d of %d with %d of %d snapshots", t.ID, w.layersDone, w.plan.nLayers, len(w.snaps), entry))
	}
	w.slab = w.cur.steps
	t.Steps, t.Ops, t.MSV = w.slab[r.start:len(w.slab):len(w.slab)], w.cur.ops, w.cur.msv
	w.cur, w.snaps, w.layersDone = r.trunk, r.snaps, r.layers
	w.emit(spawnStep(t.ID))
	w.split.Subtrees = append(w.split.Subtrees, t)
}

// spawnClean packages exhausted trials [lo, hi) at depth as an
// advance-and-emit task, so the trunk never performs the final layers
// itself and stays free to reach the next spawn point sooner.
func (w *walk) spawnClean(lo, hi, depth int) {
	t := &Subtree{ID: len(w.split.Subtrees), EntryLayer: w.layersDone, EntryDepth: depth, Trials: hi - lo}
	start := len(w.slab)
	if n := w.plan.nLayers; w.layersDone < n {
		w.slab = append(w.slab, Step{Kind: StepAdvance, From: int32(w.layersDone), To: int32(n)})
		t.Ops = int64(w.plan.GatesInLayers(w.layersDone, n))
	}
	w.slab = append(w.slab, Step{Kind: StepEmit, From: int32(lo), To: int32(hi)})
	t.Steps = w.slab[start:len(w.slab):len(w.slab)]
	w.emit(spawnStep(t.ID))
	w.split.Subtrees = append(w.split.Subtrees, t)
}
