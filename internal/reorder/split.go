// SplitPlan decomposes the injection-prefix trie into independently
// executable subtree tasks, the decomposition TQSim-style parallel
// reuse simulators need: contiguous chunking (sim.Parallel) severs every
// prefix shared across a chunk boundary, while cutting the trie at a
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

// BuildSplitPlan decomposes the trial set at cut depth 1 (the root's
// branch children) with no memory budget — the default configuration of
// the subtree-parallel executor.
func BuildSplitPlan(c *circuit.Circuit, trials []*trial.Trial) (*SplitPlan, error) {
	return SplitPlanCut(c, trials, 1, math.MaxInt)
}

// SplitPlanCut sorts the trials and decomposes them at the given cut
// depth under a per-component snapshot budget (math.MaxInt = unlimited).
// A deeper cut yields more, smaller tasks (better load balancing for many
// workers) at the price of more sequential trunk work and one entry clone
// per task.
func SplitPlanCut(c *circuit.Circuit, trials []*trial.Trial, cut, budget int) (*SplitPlan, error) {
	if len(trials) == 0 {
		return nil, fmt.Errorf("reorder: empty trial set")
	}
	return SplitPlanOrderedCut(c, Sort(trials), cut, budget)
}

// SplitPlanOrderedCut is SplitPlanCut over a trial slice already in Sort
// order (see BuildPlanOrdered for the contract).
func SplitPlanOrderedCut(c *circuit.Circuit, ordered []*trial.Trial, cut, budget int) (*SplitPlan, error) {
	if cut < 1 {
		return nil, fmt.Errorf("reorder: split cut depth %d < 1", cut)
	}
	if budget < 0 {
		return nil, fmt.Errorf("reorder: negative snapshot budget %d", budget)
	}
	shell, err := planShell(c, ordered)
	if err != nil {
		return nil, err
	}
	if _, err := scanOrder(ordered, shell.nLayers); err != nil {
		return nil, err
	}
	sp := &SplitPlan{
		Order:    ordered,
		Cut:      cut,
		budget:   budget,
		nLayers:  shell.nLayers,
		layerCum: shell.layerCum,
		baseline: shell.baseline,
	}
	b := newPlanBuilder(shell, math.MaxInt, budget)
	b.record = true
	b.split, b.cut = sp, cut
	b.build(0, len(ordered), 0)
	if len(b.snaps) != 0 {
		return nil, fmt.Errorf("reorder: internal error, %d trunk snapshots leaked", len(b.snaps))
	}
	sp.Trunk, sp.trunkOps, sp.trunkMSV = shell.Steps, shell.planOps, shell.msv
	return sp, nil
}

// spawnBranch packages trials [lo, hi) — which share injections
// [0, depth] with the branch key at index depth — as one subtree task:
// the branch injection followed by the whole-plan walk below it,
// generated against the trunk's current (EntryLayer, prefix).
func (b *planBuilder) spawnBranch(lo, hi, depth int, key trial.Key) {
	task := &Subtree{
		ID:         len(b.split.Subtrees),
		EntryLayer: b.layersDone,
		EntryDepth: depth,
		Trials:     hi - lo,
	}
	shell := &Plan{
		Order:    b.plan.Order,
		nLayers:  b.plan.nLayers,
		layerOps: b.plan.layerOps,
		layerCum: b.plan.layerCum,
		totalOps: b.plan.totalOps,
	}
	tb := &planBuilder{plan: shell, record: true, depthCap: math.MaxInt, budget: b.budget, layersDone: b.layersDone}
	tb.prefix = append(tb.prefix, b.prefix[:depth]...)
	baseSnaps := 0
	if b.budget != math.MaxInt && b.budget >= 1 {
		// Budgeted tasks preserve their entry clone as the bottom of the
		// snapshot stack so replays can resume from it; it occupies one
		// budget slot and counts as a stored vector.
		tb.snaps = append(tb.snaps, snap{layers: b.layersDone, prefixLen: depth})
		shell.msv = 1
		baseSnaps = 1
	}
	inj := key.Unpack()
	tb.emit(Step{Kind: StepInject, Qubit: int32(inj.Qubit), Op: inj.Op})
	shell.planOps++
	tb.prefix = append(tb.prefix, key)
	tb.build(lo, hi, depth+1)
	if tb.layersDone != shell.nLayers || len(tb.snaps) != baseSnaps {
		panic(fmt.Sprintf("reorder: subtree %d ended at layer %d of %d with %d of %d snapshots", task.ID, tb.layersDone, shell.nLayers, len(tb.snaps), baseSnaps))
	}
	task.Steps = shell.Steps
	task.Ops = shell.planOps
	task.MSV = shell.msv
	b.emit(spawnStep(task.ID))
	b.split.Subtrees = append(b.split.Subtrees, task)
}

// spawnClean packages exhausted trials [lo, hi) at the current depth as
// an advance-and-emit task, so the trunk never performs the final layers
// itself and stays free to reach the next spawn point sooner.
func (b *planBuilder) spawnClean(lo, hi, depth int) {
	task := &Subtree{
		ID:         len(b.split.Subtrees),
		EntryLayer: b.layersDone,
		EntryDepth: depth,
		Trials:     hi - lo,
	}
	if b.layersDone < b.plan.nLayers {
		task.Steps = append(task.Steps, Step{Kind: StepAdvance, From: int32(b.layersDone), To: int32(b.plan.nLayers)})
		task.Ops = int64(b.plan.GatesInLayers(b.layersDone, b.plan.nLayers))
	}
	task.Steps = append(task.Steps, Step{Kind: StepEmit, From: int32(lo), To: int32(hi)})
	b.emit(spawnStep(task.ID))
	b.split.Subtrees = append(b.split.Subtrees, task)
}

// entryContext is the symbolic state a spawn hands to a task: applied
// layers and applied injections.
type entryContext struct {
	layers int
	inj    []trial.Key
}

// Validate walks the trunk and every subtree checking the structural
// invariants the executor relies on: monotone in-bounds layer ranges, no
// stack underflow, spawns referencing tasks exactly once in order, every
// trial emitted exactly once across all subtrees, emits at the final
// layer with injections matching the emitted trials, and no emits on the
// trunk.
func (sp *SplitPlan) Validate() error {
	entries := make([]*entryContext, len(sp.Subtrees))
	layersDone := 0
	var stack []entryContext
	cur := entryContext{}
	for si, s := range sp.Trunk {
		switch s.Kind {
		case StepAdvance:
			if int(s.From) != layersDone || s.To < s.From || int(s.To) > sp.nLayers {
				return fmt.Errorf("reorder: trunk step %d advance [%d,%d) inconsistent with layersDone %d", si, s.From, s.To, layersDone)
			}
			layersDone = int(s.To)
		case StepPush:
			stack = append(stack, entryContext{layers: layersDone, inj: append([]trial.Key(nil), cur.inj...)})
		case StepInject:
			if layersDone == 0 {
				return fmt.Errorf("reorder: trunk step %d injects before any layer", si)
			}
			cur.inj = append(cur.inj, trial.Pack(layersDone-1, int(s.Qubit), s.Op))
		case StepPop:
			if len(stack) == 0 {
				return fmt.Errorf("reorder: trunk step %d pops empty stack", si)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			layersDone = top.layers
			cur = top
		case StepRestore:
			if len(stack) == 0 {
				layersDone = 0
				cur = entryContext{}
			} else {
				top := stack[len(stack)-1]
				layersDone = top.layers
				cur = entryContext{inj: append([]trial.Key(nil), top.inj...)}
			}
		case StepSpawn:
			task := s.Task()
			if task < 0 || task >= len(sp.Subtrees) {
				return fmt.Errorf("reorder: trunk step %d spawns out-of-range task %d", si, task)
			}
			if entries[task] != nil {
				return fmt.Errorf("reorder: task %d spawned twice", task)
			}
			entries[task] = &entryContext{layers: layersDone, inj: append([]trial.Key(nil), cur.inj...)}
		case StepEmit:
			return fmt.Errorf("reorder: trunk step %d emits; emits belong to subtrees", si)
		default:
			return fmt.Errorf("reorder: trunk step %d has unknown kind %d", si, s.Kind)
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("reorder: trunk leaves %d snapshots on the stack", len(stack))
	}
	emitted := make([]bool, len(sp.Order))
	for _, st := range sp.Subtrees {
		entry := entries[st.ID]
		if entry == nil {
			return fmt.Errorf("reorder: task %d never spawned by the trunk", st.ID)
		}
		if entry.layers != st.EntryLayer || len(entry.inj) != st.EntryDepth {
			return fmt.Errorf("reorder: task %d entry (%d layers, %d injections) disagrees with trunk spawn (%d, %d)",
				st.ID, st.EntryLayer, st.EntryDepth, entry.layers, len(entry.inj))
		}
		if err := sp.validateSubtree(st, entry, emitted); err != nil {
			return err
		}
	}
	for i, ok := range emitted {
		if !ok {
			return fmt.Errorf("reorder: trial %d (id %d) never emitted", i, sp.Order[i].ID)
		}
	}
	return nil
}

// validateSubtree replays one task's steps from its entry context. The
// task's implicit restore floor is its preserved entry state when the
// plan is budgeted with budget >= 1, and |0...0> otherwise.
func (sp *SplitPlan) validateSubtree(st *Subtree, entry *entryContext, emitted []bool) error {
	layersDone := entry.layers
	cur := entryContext{inj: append([]trial.Key(nil), entry.inj...)}
	var stack []entryContext
	if sp.budget != math.MaxInt && sp.budget >= 1 {
		stack = append(stack, entryContext{layers: entry.layers, inj: append([]trial.Key(nil), entry.inj...)})
	}
	floor := len(stack)
	emittedHere := 0
	for si, s := range st.Steps {
		switch s.Kind {
		case StepAdvance:
			if int(s.From) != layersDone || s.To < s.From || int(s.To) > sp.nLayers {
				return fmt.Errorf("reorder: task %d step %d advance [%d,%d) inconsistent with layersDone %d", st.ID, si, s.From, s.To, layersDone)
			}
			layersDone = int(s.To)
		case StepPush:
			stack = append(stack, entryContext{layers: layersDone, inj: append([]trial.Key(nil), cur.inj...)})
		case StepInject:
			if layersDone == 0 {
				return fmt.Errorf("reorder: task %d step %d injects before any layer", st.ID, si)
			}
			cur.inj = append(cur.inj, trial.Pack(layersDone-1, int(s.Qubit), s.Op))
		case StepEmit:
			if layersDone != sp.nLayers {
				return fmt.Errorf("reorder: task %d step %d emits at layer %d of %d", st.ID, si, layersDone, sp.nLayers)
			}
			if err := checkEmitRange(s, len(sp.Order)); err != nil {
				return fmt.Errorf("reorder: task %d step %d %v", st.ID, si, err)
			}
			for idx := int(s.From); idx < int(s.To); idx++ {
				if emitted[idx] {
					return fmt.Errorf("reorder: trial %d emitted twice", idx)
				}
				emitted[idx] = true
				emittedHere++
				t := sp.Order[idx]
				if len(t.Inj) != len(cur.inj) {
					return fmt.Errorf("reorder: trial %d emitted with %d injections applied, has %d", t.ID, len(cur.inj), len(t.Inj))
				}
				for k := range t.Inj {
					if t.Inj[k] != cur.inj[k] {
						return fmt.Errorf("reorder: trial %d injection %d mismatch", t.ID, k)
					}
				}
			}
		case StepPop:
			if len(stack) <= floor {
				return fmt.Errorf("reorder: task %d step %d pops below its entry floor", st.ID, si)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			layersDone = top.layers
			cur = top
		case StepRestore:
			if len(stack) == 0 {
				layersDone = 0
				cur = entryContext{}
			} else {
				top := stack[len(stack)-1]
				layersDone = top.layers
				cur = entryContext{inj: append([]trial.Key(nil), top.inj...)}
			}
		default:
			return fmt.Errorf("reorder: task %d step %d has invalid kind %v", st.ID, si, s.Kind)
		}
	}
	if len(stack) != floor {
		return fmt.Errorf("reorder: task %d leaves %d snapshots on the stack", st.ID, len(stack)-floor)
	}
	if emittedHere != st.Trials {
		return fmt.Errorf("reorder: task %d emitted %d trials, declared %d", st.ID, emittedHere, st.Trials)
	}
	return nil
}
