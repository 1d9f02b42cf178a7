package reorder

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/gate"
	"repro/internal/trial"
)

// Handler is one reader of plan steps: what Walk drives. The executors
// in internal/sim run a working register with a stack of branch points
// through it (the state vector under every restore policy, the
// stabilizer tableau); Validate runs a symbolic checker through it, and
// BranchRollbackOps a counter. What each step means to a reader is the
// reader's own; Walk decides only which method a step calls, and stops
// at the first error one returns.
type Handler interface {
	Advance(from, to int) error
	Push() error
	Inject(op gate.Pauli, qubit int) error
	// Emit finalizes trials ts = order[from:from+len(ts)], a range Walk
	// has checked against the order.
	Emit(from int, ts []*trial.Trial) error
	Pop() error
	Restore() error
	// Unwound fails unless every frame the steps opened was popped.
	Unwound() error
}

// Walk interprets one step list against h: order resolves emitted trial
// indices, want is the number of trials the list must emit, and spawn
// serves StepSpawn (nil everywhere but a trunk). It fails on an Emit
// range outside order, and unless h unwound and the list emitted exactly
// want trials.
func Walk(h Handler, steps []Step, order []*trial.Trial, want int, spawn func(task int) error) error {
	emitted := 0
	for i, s := range steps {
		var err error
		switch s.Kind {
		case StepAdvance:
			err = h.Advance(int(s.From), int(s.To))
		case StepPush:
			err = h.Push()
		case StepInject:
			err = h.Inject(s.Op, int(s.Qubit))
		case StepEmit:
			if s.From < 0 || int(s.To) > len(order) || s.From >= s.To {
				err = fmt.Errorf("emits trial range [%d,%d) outside [0,%d) or empty", s.From, s.To, len(order))
			} else {
				err = h.Emit(int(s.From), order[s.From:s.To])
				emitted += int(s.To - s.From)
			}
		case StepPop:
			err = h.Pop()
		case StepRestore:
			err = h.Restore()
		case StepSpawn:
			if spawn == nil {
				err = errors.New("spawns outside a trunk")
			} else {
				err = spawn(s.Task())
			}
		default:
			err = fmt.Errorf("has unknown kind %v", s.Kind)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	if err := h.Unwound(); err != nil {
		return err
	}
	if emitted != want {
		return fmt.Errorf("emitted %d of %d trials", emitted, want)
	}
	return nil
}

// checker is the symbolic handler Validate walks plans with. It tracks
// what an executor's working register would hold, applied layers and
// applied injections, with the frame stack above its floor, and counts
// what an executor would do: ops (gates advanced plus injections),
// copies (pushes plus restores from a stored frame) and the peak frame
// depth.
type checker struct {
	nLayers  int
	layerCum []int
	emitted  []bool // trials emitted so far, across a split plan's tasks

	layers int               // gate layers the working register has applied
	inj    []trial.Injection // injections it has applied, in order
	frames []frame
	floor  int // frames below this are a task's preserved entry

	ops, copies int64
	// peak is the deepest frame stack at a push or an inject: a task's
	// entry floor counts once the task injects, so a clean tail task
	// (advance and emit only) peaks at 0, as spawnClean declares it.
	peak    int
	entries []*entry // a trunk's spawns, by task
}

// frame is a branch point: the layers and the injection count (a prefix
// of checker.inj) a pop or restore returns to.
type frame struct{ layers, inj int }

// entry is the symbolic state a trunk spawn hands its task.
type entry struct {
	layers int
	inj    []trial.Injection
}

func (c *checker) Advance(from, to int) error {
	if from != c.layers || to < from || to > c.nLayers {
		return fmt.Errorf("advances [%d,%d) from layer %d of %d", from, to, c.layers, c.nLayers)
	}
	c.ops += int64(c.layerCum[to] - c.layerCum[from])
	c.layers = to
	return nil
}

func (c *checker) Push() error {
	c.frames = append(c.frames, frame{layers: c.layers, inj: len(c.inj)})
	c.copies++
	c.peak = max(c.peak, len(c.frames))
	return nil
}

func (c *checker) Inject(op gate.Pauli, qubit int) error {
	if c.layers == 0 {
		return errors.New("injects before any layer")
	}
	c.inj = append(c.inj, trial.Injection{Layer: c.layers - 1, Qubit: qubit, Op: op})
	c.ops++
	c.peak = max(c.peak, len(c.frames))
	return nil
}

func (c *checker) Emit(from int, ts []*trial.Trial) error {
	if c.layers != c.nLayers {
		return fmt.Errorf("emits at layer %d of %d", c.layers, c.nLayers)
	}
	for i, t := range ts {
		if c.emitted[from+i] {
			return fmt.Errorf("emits trial %d twice", from+i)
		}
		c.emitted[from+i] = true
		if !slices.EqualFunc(t.Inj, c.inj, func(k trial.Key, in trial.Injection) bool { return k.Unpack() == in }) {
			return fmt.Errorf("emits trial %d (id %d) with injections %v applied, has %v", from+i, t.ID, c.inj, t.Injections())
		}
	}
	return nil
}

func (c *checker) Pop() error {
	if len(c.frames) <= c.floor {
		return fmt.Errorf("pops below its floor of %d frames", c.floor)
	}
	f := c.frames[len(c.frames)-1]
	c.frames = c.frames[:len(c.frames)-1]
	c.layers, c.inj = f.layers, c.inj[:f.inj]
	return nil
}

// Restore returns to the top frame and keeps it, or, on an empty stack,
// to |0...0>.
func (c *checker) Restore() error {
	f := frame{}
	if n := len(c.frames); n > 0 {
		f = c.frames[n-1]
		c.copies++
	}
	c.layers, c.inj = f.layers, c.inj[:f.inj]
	return nil
}

func (c *checker) Unwound() error {
	if len(c.frames) != c.floor {
		return fmt.Errorf("leaves %d frames open", len(c.frames)-c.floor)
	}
	return nil
}

// spawn records the working register as task's entry.
func (c *checker) spawn(task int) error {
	if task < 0 || task >= len(c.entries) || c.entries[task] != nil {
		return fmt.Errorf("spawns task %d, out of [0,%d) or already spawned", task, len(c.entries))
	}
	c.entries[task] = &entry{layers: c.layers, inj: slices.Clone(c.inj)}
	return nil
}

// enter resets the checker to a task's entry, kept as the floor frame
// when the task preserves it, and clears the counts.
func (c *checker) enter(e *entry, keep bool) {
	c.layers, c.inj = e.layers, append(c.inj[:0], e.inj...)
	c.frames = c.frames[:0]
	if keep {
		c.frames = append(c.frames, frame{layers: e.layers, inj: len(e.inj)})
	}
	c.floor = len(c.frames)
	c.ops, c.copies, c.peak = 0, 0, 0
}

// Validate walks the plan through the symbolic checker: layer ranges
// contiguous and in bounds, no pop on an empty stack, every trial emitted
// exactly once, at the final layer, with exactly its injections applied,
// and the plan's OptimizedOps, MSV and Copies equal to what its steps do.
// It exists so tests and the executor can trust the plan shape
// unconditionally.
func (p *Plan) Validate() error {
	c := &checker{nLayers: p.nLayers, layerCum: p.layerCum, emitted: make([]bool, len(p.Order))}
	// Emitting len(Order) trials, none twice, emits every one.
	if err := Walk(c, p.Steps, p.Order, len(p.Order), nil); err != nil {
		return fmt.Errorf("reorder: %w", err)
	}
	if c.ops != p.planOps || c.peak != p.msv || c.copies != p.pushCount {
		return fmt.Errorf("reorder: plan declares %d ops, MSV %d, %d copies; its steps make %d, %d, %d",
			p.planOps, p.msv, p.pushCount, c.ops, c.peak, c.copies)
	}
	return nil
}

// Validate checks the trunk and then every task, from the entry its
// spawn recorded, as Plan.Validate checks a plan: the trunk must spawn
// each task exactly once and emit nothing, each task must emit its
// declared trials from the declared entry, every trial is emitted once
// across all tasks, and TrunkOps, TrunkMSV and each task's Ops and MSV
// must equal what the steps do. A budgeted task (budget >= 1) keeps its
// entry as the floor of its frame stack, which it must never pop.
func (sp *SplitPlan) Validate() error {
	c := &checker{nLayers: sp.nLayers, layerCum: sp.layerCum, emitted: make([]bool, len(sp.Order))}
	c.entries = make([]*entry, len(sp.Subtrees))
	if err := Walk(c, sp.Trunk, sp.Order, 0, c.spawn); err != nil {
		return fmt.Errorf("reorder: trunk: %w", err)
	}
	if c.ops != sp.trunkOps || c.peak != sp.trunkMSV {
		return fmt.Errorf("reorder: trunk declares %d ops, MSV %d; its steps make %d, %d", sp.trunkOps, sp.trunkMSV, c.ops, c.peak)
	}
	keep := sp.budget != math.MaxInt && sp.budget >= 1
	for i, st := range sp.Subtrees {
		e := c.entries[i]
		switch {
		case st.ID != i:
			return fmt.Errorf("reorder: task %d has ID %d", i, st.ID)
		case e == nil:
			return fmt.Errorf("reorder: task %d never spawned by the trunk", i)
		case e.layers != st.EntryLayer || len(e.inj) != st.EntryDepth:
			return fmt.Errorf("reorder: task %d entry (%d layers, %d injections) disagrees with its spawn (%d, %d)",
				i, st.EntryLayer, st.EntryDepth, e.layers, len(e.inj))
		}
		c.enter(e, keep)
		if err := Walk(c, st.Steps, sp.Order, st.Trials, nil); err != nil {
			return fmt.Errorf("reorder: task %d: %w", i, err)
		}
		if c.ops != st.Ops || c.peak != st.MSV {
			return fmt.Errorf("reorder: task %d declares %d ops, MSV %d; its steps make %d, %d", i, st.Ops, st.MSV, c.ops, c.peak)
		}
	}
	if i := slices.Index(c.emitted, false); i >= 0 {
		return fmt.Errorf("reorder: trial %d (id %d) never emitted", i, sp.Order[i].ID)
	}
	return nil
}
