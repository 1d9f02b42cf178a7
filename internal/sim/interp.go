package sim

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// The plan-step interpreter. Every single-lane executor — a sequential
// plan, a subtree trunk, a subtree task — walks its steps through
// branchState.run under every restore policy. A branch point (StepPush)
// becomes a frame: a *real* frame stores a snapshot of the working
// register, a *virtual* frame (PolicyUncompute/PolicyAdaptive only, see
// uncompute.go) records just the journal position to roll back to. The
// paper's snapshot executor is the case where decideReal is always true:
// every frame is real, nothing is journaled, and a pop adopts the stored
// vector as the working register.

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
type pframe struct {
	real  bool
	st    *statevec.State
	pos   int // journal length when the frame was created
	pushT time.Time
}

// branchState is the working state of one execution (one goroutine): the
// working register, the frame stack, the journal, and the counters it
// feeds.
type branchState struct {
	c       *circuit.Circuit
	opt     Options
	rec     obs.Recorder
	tr      *msvTracker
	pool    *statePool
	prog    *statevec.Program // nil: walk tab (snapshot policy only)
	tab     *dispatchTable
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
// table. Built once per run and shared read-only by every goroutine.
type advancer struct {
	prog *statevec.Program
	tab  *dispatchTable
}

func newAdvancer(c *circuit.Circuit, prog *statevec.Program) advancer {
	if prog != nil {
		return advancer{prog: prog}
	}
	return advancer{tab: newDispatchTable(c)}
}

// dispatchTable is the circuit's ops resolved once into kernels
// (statevec.ResolveOp) in layer order. Walking it applies exactly the
// kernels gate-by-gate ApplyOp would, without re-reading each op's gate.
type dispatchTable struct {
	kern  []statevec.OpKernel
	start []int // layer l's kernels are kern[start[l]:start[l+1]]
}

func newDispatchTable(c *circuit.Circuit) *dispatchTable {
	layers, ops := c.Layers(), c.Ops()
	t := &dispatchTable{
		kern:  make([]statevec.OpKernel, 0, len(ops)),
		start: make([]int, len(layers)+1),
	}
	for l, idx := range layers {
		for _, oi := range idx {
			t.kern = append(t.kern, statevec.ResolveOp(c.NumQubits(), ops[oi].Gate, ops[oi].Qubits...))
		}
		t.start[l+1] = len(t.kern)
	}
	return t
}

// newBranchState returns the state by value so that callers keep it on
// their stack: one is built per plan, trunk and subtree task.
func newBranchState(c *circuit.Circuit, opt Options, adv advancer, res *Result, tr *msvTracker, pool *statePool, striped bool) branchState {
	return branchState{
		c: c, opt: opt, rec: opt.Recorder, tr: tr, pool: pool,
		prog: adv.prog, tab: adv.tab, res: res, striped: striped,
		policy: opt.Policy != PolicySnapshot,
		exact:  opt.Fuse != statevec.FuseNumeric,
	}
}

// run interprets one step list against the working register: order
// resolves emitted trial indices, want is the number of trials the list
// must emit, and spawn serves StepSpawn (nil everywhere but a trunk),
// with last set when the next step is not a spawn, which closes the
// current lane group. It fails unless the list emitted exactly want
// trials and unwound to its floor.
func (bs *branchState) run(steps []reorder.Step, order []*trial.Trial, want int, spawn func(task int, last bool)) error {
	emitted := 0
	// Trial latency (recorder-only) is the wall time since the previous
	// emit, amortized equally over the emit batch, so the histogram's
	// count always equals the trials emitted. Trunk prefix time is shared
	// by construction and not attributed to trials.
	var emitMark time.Time
	if bs.rec != nil {
		emitMark = time.Now()
	}
	for i, s := range steps {
		switch s.Kind {
		case reorder.StepAdvance:
			bs.advance(int(s.From), int(s.To))
		case reorder.StepPush:
			bs.push()
		case reorder.StepInject:
			bs.inject(s.Op, int(s.Qubit))
		case reorder.StepEmit:
			for _, t := range order[s.From:s.To] {
				bs.res.Outcomes = append(bs.res.Outcomes, Outcome{TrialID: t.ID, Bits: sampleOutcome(bs.work, bs.c, t)})
				if bs.opt.KeepStates {
					bs.res.FinalStates[t.ID] = bs.work.Clone()
				}
			}
			n := int(s.To - s.From)
			emitted += n
			if bs.rec != nil {
				bs.rec.Add(obs.TrialsEmitted, int64(n))
				now := time.Now()
				if n > 0 {
					per := int64(now.Sub(emitMark)) / int64(n)
					for j := 0; j < n; j++ {
						bs.rec.Observe(obs.HistTrialLatency, per)
					}
				}
				emitMark = now
			}
		case reorder.StepPop:
			if err := bs.pop(); err != nil {
				return err
			}
		case reorder.StepRestore:
			bs.restore()
		case reorder.StepSpawn:
			if spawn == nil {
				return fmt.Errorf("sim: spawn step outside a trunk")
			}
			spawn(s.Task(), i+1 == len(steps) || steps[i+1].Kind != reorder.StepSpawn)
		default:
			return fmt.Errorf("sim: unknown plan step %v", s.Kind)
		}
	}
	if emitted != want {
		return fmt.Errorf("sim: emitted %d of %d trials", emitted, want)
	}
	if len(bs.frames) != bs.floor {
		return fmt.Errorf("sim: execution leaves %d branch frames", len(bs.frames)-bs.floor)
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

func (bs *branchState) advance(from, to int) {
	if bs.prog == nil {
		ks := bs.tab.kern[bs.tab.start[from]:bs.tab.start[to]]
		for i := range ks {
			bs.work.ApplyKernel(&ks[i])
		}
		bs.res.Ops += int64(len(ks))
		return
	}
	bs.res.Ops += int64(bs.runFwd(from, to))
	if bs.policy {
		bs.journal = append(bs.journal, jentry{adv: true, from: from, to: to})
	}
}

func (bs *branchState) inject(op gate.Pauli, qubit int) {
	bs.work.ApplyPauli(op, qubit)
	bs.res.Ops++
	if bs.policy {
		bs.journal = append(bs.journal, jentry{op: op, qubit: qubit})
	}
}

// push opens a branch point. Under PolicySnapshot it always stores a
// snapshot and traces a "snapshot_push"; under the other policies the
// decision itself is counted and traced as a "policy_decision".
func (bs *branchState) push() {
	depth := len(bs.frames) + 1
	if !bs.decideReal() {
		bs.frames = append(bs.frames, pframe{pos: len(bs.journal)})
		if bs.rec != nil {
			bs.rec.Add(obs.PolicyUncomputeDecisions, 1)
		}
		if sp := bs.opt.Span; sp != nil {
			sp.Event("policy_decision",
				trace.String("decision", "uncompute"),
				trace.Int("depth", int64(depth)))
		}
		return
	}
	snap := bs.pool.get()
	snap.CopyFrom(bs.work)
	f := pframe{real: true, st: snap, pos: len(bs.journal)}
	bs.res.Copies++
	bs.realCnt++
	if bs.realCnt > bs.res.MSV {
		bs.res.MSV = bs.realCnt
	}
	bs.tr.add(1)
	if bs.rec != nil {
		bs.rec.Add(obs.SnapshotPushes, 1)
		if bs.policy {
			bs.rec.Add(obs.PolicySnapshotDecisions, 1)
		}
		f.pushT = time.Now()
	}
	if sp := bs.opt.Span; sp != nil {
		if bs.policy {
			sp.Event("policy_decision",
				trace.String("decision", "snapshot"),
				trace.Int("depth", int64(depth)))
		} else {
			sp.Event("snapshot_push", trace.Int("depth", int64(depth)))
		}
	}
	bs.frames = append(bs.frames, f)
}

// pop returns to the innermost branch point and removes it: adopt the
// snapshot of a real frame, unwind the journal suffix of a virtual one.
func (bs *branchState) pop() error {
	if len(bs.frames) <= bs.floor {
		return fmt.Errorf("sim: plan pops below its branch floor")
	}
	f := bs.frames[len(bs.frames)-1]
	bs.frames = bs.frames[:len(bs.frames)-1]
	if f.real {
		bs.pool.put(bs.work)
		bs.work = f.st
		bs.journal = bs.journal[:f.pos]
		bs.realCnt--
		bs.tr.add(-1)
		if bs.rec != nil {
			bs.rec.Add(obs.SnapshotDrops, 1)
			bs.rec.Observe(obs.HistSnapshotLifetime, int64(time.Since(f.pushT)))
		}
		return nil
	}
	bs.rollbackTo(f.pos)
	bs.journal = bs.journal[:f.pos]
	return nil
}

// restore re-enters the innermost branch point without removing it
// (StepRestore in budgeted plans). A real top frame is copied (kept for
// its later consumers); a virtual top frame is reverse-executed to (and
// stays on the stack); an empty stack resets to |0...0>, from which the
// plan replays.
func (bs *branchState) restore() {
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
	if bs.rec != nil {
		bs.rec.Add(obs.SnapshotRestores, 1)
		bs.rec.Observe(obs.HistRestoreDepth, int64(bs.realCnt))
	}
	if sp := bs.opt.Span; sp != nil {
		sp.Event("snapshot_restore", trace.Int("depth", int64(len(bs.frames))))
	}
}

// recoverErr turns a panic in an executor goroutine into its error
// result, so one failing task fails the run instead of the process.
func recoverErr(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}
