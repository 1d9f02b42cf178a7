package sim

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// The state vector's plan-step handler. Every executor — a sequential
// plan, a subtree trunk, a subtree task, a tableau plan — walks its steps
// through reorder.Walk; the state vector does so through branchState.run
// under every restore policy. A branch point (StepPush)
// becomes a frame: a *real* frame stores a snapshot of the working
// register, a *virtual* frame (PolicyUncompute/PolicyAdaptive only, see
// uncompute.go) records just the journal position to roll back to. The
// paper's snapshot executor is the case where decideReal is always true:
// every frame is real, nothing is journaled, and a pop adopts the stored
// vector as the working register.
//
// Registers cycle through the walk without the shared arena: a real pop
// leaves the register it discards as a spare in the frame slot it
// vacates, and the next push into that slot snapshots into the spare
// before it asks the arena. A walk therefore holds at most one register
// per slot of its frame stack's capacity, plus the working one, and
// returns them all to the arena when its plan, trunk or task ends
// (release), also when it fails.

// jentry is one journaled mutation of the working register: a compiled
// layer advance or a Pauli injection.
type jentry struct {
	adv      bool
	from, to int        // advance: layer range
	op       gate.Pauli // injection: operator
	qubit    int        // injection: target
}

// pframe is one branch point on the frame stack. Real frames hold a
// snapshot; virtual frames hold only the journal position to unwind to.
// A slot past the stack's length holds its spare register in st, or nil.
type pframe struct {
	real  bool
	st    *statevec.State
	pos   int   // journal length when the frame was created
	pushT int64 // sink only: the push time on the sink's clock
}

// branchState is the working state of one execution (one goroutine): the
// working register, the frame stack, the journal, and the counters it
// feeds.
type branchState struct {
	c       *circuit.Circuit
	opt     Options
	sink    *stepSink // nil: no Recorder and no span
	tr      *msvTracker
	pool    *statePool
	prog    *statevec.Program // nil: walk tab (snapshot policy only)
	tab     *dispatchTable
	bits    bitsTable
	res     *Result
	striped bool // trunk/sequential paths stripe their sweeps, task bodies do not

	work    *statevec.State
	journal []jentry
	frames  []pframe
	floor   int  // frames below this belong to the caller (a subtree's entry)
	realCnt int  // real frames currently stored (entry floor included)
	policy  bool // a non-snapshot policy decides branch points: journal every mutation
	exact   bool // non-numeric mode: reverse only exactly invertible suffixes
}

// advancer is what one run advances layer ranges with: the compiled
// program, or, when the options compile none, the circuit's dispatch
// table; and the measured-bits table of a run of trials trials. Built
// once per run and shared read-only by every goroutine.
type advancer struct {
	prog *statevec.Program
	tab  *dispatchTable
	bits bitsTable
}

func newAdvancer(c *circuit.Circuit, prog *statevec.Program, trials int) advancer {
	adv := advancer{prog: prog, bits: newBitsTable(c, trials)}
	if prog == nil {
		adv.tab = newDispatchTable(c)
	}
	return adv
}

// dispatchTable is the circuit's ops resolved once into kernels
// (statevec.ResolveOp) in layer order, plus the three Pauli kernels of
// every qubit. Advancing through it applies exactly the kernels
// gate-by-gate ApplyOp would, without re-reading each op's gate, and an
// advance or an injection is one State.ApplyKernels call.
type dispatchTable struct {
	kern  []statevec.OpKernel
	start []int               // layer l's kernels are kern[start[l]:start[l+1]]
	pauli []statevec.OpKernel // Pauli p on qubit q is pauli[3q+p]
}

func newDispatchTable(c *circuit.Circuit) *dispatchTable {
	layers, ops, n := c.Layers(), c.Ops(), c.NumQubits()
	all := make([]statevec.OpKernel, 0, len(ops)+3*n)
	t := &dispatchTable{start: make([]int, len(layers)+1)}
	for l, idx := range layers {
		for _, oi := range idx {
			all = append(all, statevec.ResolveOp(n, ops[oi].Gate, ops[oi].Qubits...))
		}
		t.start[l+1] = len(all)
	}
	t.kern = all
	for q := range n {
		for _, p := range []gate.Pauli{gate.PauliX, gate.PauliY, gate.PauliZ} {
			all = append(all, statevec.ResolveOp(n, p.Gate(), q))
		}
	}
	t.pauli = all[len(t.kern):]
	return t
}

// injection returns the kernel of Pauli op on qubit, or nil without a
// table or for an operator or qubit outside it (ApplyPauli's panic
// reports those).
func (t *dispatchTable) injection(op gate.Pauli, qubit int) []statevec.OpKernel {
	i := 3*qubit + int(op)
	if t == nil || op > gate.PauliZ || qubit < 0 || i >= len(t.pauli) {
		return nil
	}
	return t.pauli[i : i+1]
}

// newBranchState returns a branch state for one plan, trunk or worker;
// a worker reuses it across its tasks (runSubtree). reorder.Walk takes it
// as a Handler, so it lives on the heap: reuse keeps that to one allocation
// per goroutine, not one per task.
func newBranchState(c *circuit.Circuit, opt Options, adv advancer, res *Result, tr *msvTracker, pool *statePool, striped bool) *branchState {
	return &branchState{
		c: c, opt: opt, sink: newStepSink(opt.Recorder, opt.Span), tr: tr, pool: pool,
		prog: adv.prog, tab: adv.tab, bits: adv.bits, res: res, striped: striped,
		policy: opt.Policy != PolicySnapshot,
		exact:  opt.Fuse != statevec.FuseNumeric,
	}
}

// run walks steps over the working register (see reorder.Walk). Its
// owner flushes the sink.
func (bs *branchState) run(steps []reorder.Step, order []*trial.Trial, want int, spawn func(task int) error) error {
	if bs.sink != nil {
		bs.sink.start()
	}
	return reorder.Walk(bs, steps, order, want, spawn)
}

func (bs *branchState) Emit(_ int, ts []*trial.Trial) error {
	for _, t := range ts {
		bs.res.Outcomes = append(bs.res.Outcomes, Outcome{TrialID: t.ID, Bits: bs.bits.outcome(bs.work, bs.c, t)})
		if bs.opt.KeepStates {
			bs.res.FinalStates[t.ID] = bs.work.Clone()
		}
	}
	if bs.sink != nil {
		bs.sink.emit(len(ts))
	}
	return nil
}

func (bs *branchState) Unwound() error {
	if len(bs.frames) != bs.floor {
		return fmt.Errorf("leaves %d branch frames open", len(bs.frames)-bs.floor)
	}
	return nil
}

func (bs *branchState) runFwd(from, to int) int {
	if bs.striped {
		return bs.prog.Run(bs.work, from, to)
	}
	return bs.prog.RunSerial(bs.work, from, to)
}

func (bs *branchState) runRev(from, to int) int {
	if bs.striped {
		return bs.prog.RunReverse(bs.work, from, to)
	}
	return bs.prog.RunReverseSerial(bs.work, from, to)
}

func (bs *branchState) Advance(from, to int) error {
	if bs.prog == nil {
		ks := bs.tab.kern[bs.tab.start[from]:bs.tab.start[to]]
		bs.work.ApplyKernels(ks)
		bs.res.Ops += int64(len(ks))
		return nil
	}
	bs.res.Ops += int64(bs.runFwd(from, to))
	if bs.policy {
		bs.journal = append(bs.journal, jentry{adv: true, from: from, to: to})
	}
	return nil
}

func (bs *branchState) Inject(op gate.Pauli, qubit int) error {
	if k := bs.tab.injection(op, qubit); k != nil {
		bs.work.ApplyKernels(k)
	} else {
		bs.work.ApplyPauli(op, qubit)
	}
	bs.res.Ops++
	if bs.policy {
		bs.journal = append(bs.journal, jentry{op: op, qubit: qubit})
	}
	return nil
}

// Push opens a branch point. Under PolicySnapshot it always stores a
// snapshot, a "snapshot_push"; under the other policies the decision
// itself is counted and traced as a "policy_decision".
func (bs *branchState) Push() error {
	depth := len(bs.frames) + 1
	if !bs.decideReal() {
		if s := bs.nextSlot(); s != nil && s.st != nil {
			bs.pool.put(s.st) // a virtual frame holds no register
		}
		bs.frames = append(bs.frames, pframe{pos: len(bs.journal)})
		if bs.sink != nil {
			bs.sink.virtual(depth)
		}
		return nil
	}
	var snap *statevec.State
	if s := bs.nextSlot(); s != nil {
		snap = s.st // the spare; the new frame overwrites the slot
	}
	if snap == nil {
		snap = bs.pool.get()
	}
	snap.CopyFrom(bs.work)
	f := pframe{real: true, st: snap, pos: len(bs.journal)}
	bs.res.Copies++
	bs.realCnt++
	if bs.realCnt > bs.res.MSV {
		bs.res.MSV = bs.realCnt
	}
	bs.tr.add(1)
	if bs.sink != nil {
		f.pushT = bs.sink.push(depth, bs.policy)
	}
	bs.frames = append(bs.frames, f)
	return nil
}

// Pop returns to the innermost branch point and removes it: adopt the
// snapshot of a real frame, unwind the journal suffix of a virtual one.
func (bs *branchState) Pop() error {
	if len(bs.frames) <= bs.floor {
		return errors.New("pops below its branch floor")
	}
	d := len(bs.frames) - 1
	f := bs.frames[d]
	bs.frames = bs.frames[:d]
	if f.real {
		bs.frames[:d+1][d].st = bs.work // the vacated slot's spare
		bs.work = f.st
		bs.journal = bs.journal[:f.pos]
		bs.realCnt--
		bs.tr.add(-1)
		if bs.sink != nil {
			bs.sink.drop(f.pushT)
		}
		return nil
	}
	bs.rollbackTo(f.pos)
	bs.journal = bs.journal[:f.pos]
	return nil
}

// Restore re-enters the innermost branch point without removing it
// (StepRestore in budgeted plans). A real top frame is copied (kept for
// its later consumers); a virtual top frame is reverse-executed to (and
// stays on the stack); an empty stack resets to |0...0>, from which the
// plan replays.
func (bs *branchState) Restore() error {
	if len(bs.frames) == 0 {
		bs.work.Reset()
		bs.journal = bs.journal[:0]
	} else {
		f := bs.frames[len(bs.frames)-1]
		if f.real {
			bs.work.CopyFrom(f.st)
			bs.res.Copies++
		} else {
			bs.rollbackTo(f.pos)
		}
		bs.journal = bs.journal[:f.pos]
	}
	if bs.sink != nil {
		bs.sink.restore(bs.realCnt, len(bs.frames))
	}
	return nil
}

// nextSlot returns the frame slot the next push fills, with the spare
// its last pop left, or nil when the push must grow the stack.
func (bs *branchState) nextSlot() *pframe {
	if d := len(bs.frames); d < cap(bs.frames) {
		return &bs.frames[:d+1][d]
	}
	return nil
}

// release returns every register the walk holds to the arena: the
// working register, each real frame's snapshot (a task's preserved entry
// included) and the spares past the stack's length. It leaves the branch
// state empty, so a second call is a no-op.
func (bs *branchState) release() {
	if bs.work != nil {
		bs.pool.put(bs.work)
		bs.work = nil
	}
	slots := bs.frames[:cap(bs.frames)]
	for i := range slots {
		if st := slots[i].st; st != nil {
			bs.pool.put(st)
			slots[i].st = nil
		}
	}
	bs.frames = bs.frames[:0]
}

// recoverErr turns a panic in an executor goroutine into its error
// result, so one failing task fails the run instead of the process.
func recoverErr(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}
