// Package sim provides the two noisy Monte Carlo simulators the paper
// compares:
//
//   - Baseline: every trial is executed independently from |0...0>, errors
//     injected on the fly, only the final result kept — the strategy of
//     full-state simulators like Rigetti's QVM and QX (Section V,
//     "Baseline").
//   - Reordered: trials are statically generated, reordered with
//     Algorithm 1, and executed through an explicit plan that stores
//     prefix states at branch points and drops them after their last use
//     (Section IV).
//
// Both simulators account basic operations (matrix-vector applications:
// circuit gates plus injected Paulis) and produce per-trial classical
// outcomes that are bit-identical between the two — the paper's
// mathematical-equivalence guarantee, which the test suite checks
// amplitude-by-amplitude.
package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// Outcome is the classical result of one trial: the measured bit pattern
// after readout errors.
type Outcome struct {
	TrialID int
	Bits    uint64
}

// Result aggregates a simulation run.
type Result struct {
	// Counts histograms the measured classical bit patterns.
	Counts map[uint64]int
	// Outcomes lists per-trial results in trial-ID order.
	Outcomes []Outcome
	// Ops is the number of basic operations executed (gate applications
	// plus injected Pauli applications). Reverse-executed ops are NOT
	// included — see UncomputeOps — so the snapshot executors' invariant
	// ops == plan.OptimizedOps() holds for the forward count under every
	// restore policy that does not replay.
	Ops int64
	// UncomputeOps is the number of basic operations spent running gates
	// backwards (dagger applications and reverse Pauli injections) under
	// PolicyUncompute/PolicyAdaptive. Always 0 for PolicySnapshot and
	// the baseline.
	UncomputeOps int64
	// Copies is the number of whole-state copies performed (0 for the
	// baseline).
	Copies int64
	// MSV is the peak number of stored prefix state vectors maintained
	// simultaneously (0 for the baseline).
	MSV int
	// FinalStates maps trial ID to the pre-measurement state, populated
	// only when Options.KeepStates is set (memory: one full vector per
	// distinct trial).
	FinalStates map[int]*statevec.State
}

// Options tunes a simulation run.
type Options struct {
	// KeepStates retains a copy of every trial's final pre-measurement
	// state in Result.FinalStates. Intended for equivalence tests only.
	KeepStates bool
	// SnapshotBudget caps the stored prefix state vectors, trading
	// recomputation for memory (reorder.Options.Budget). 0 or negative
	// means unlimited. Under PolicySnapshot it applies to the
	// plan-building entry points — Reordered and ParallelSubtree (where
	// it caps each component's stack: the trunk's and every worker's,
	// entry state included) — and ExecutePlan runs
	// its prebuilt plan as built. Under PolicyAdaptive every executor,
	// ExecutePlan included, reads it at run time as the real-frame cap.
	SnapshotBudget int
	// Fuse selects how StepAdvance ranges run. FuseOff (the default)
	// applies dispatch's kernels, bit-identical to gate-by-gate ApplyOp:
	// the snapshot policy walks the circuit's dispatch table, and the
	// other policies compile a FuseOff program because reverse execution
	// needs one. FuseNumeric compiles the circuit once per run into a
	// program of fused kernels (statevec.CompileWith) that every trial
	// and worker replays, folding matrices algebraically (equivalent
	// within rounding). Injected Paulis stay individual ops, so the
	// basic-op accounting is unchanged in every mode. Baseline ignores
	// it — it is the dispatch reference the fused paths are checked
	// against.
	Fuse statevec.FuseMode
	// Deprecated: intra-state striping is removed; the plan executors
	// reject Stripes > 1. Workers run the subtree executor's parallelism.
	Stripes int
	// Recorder, when non-nil, receives run metrics (ops, copies,
	// snapshot push/drop/restore counts, MSV high-water, emitted trials)
	// from every executor. nil disables observability; the hot path then
	// pays one nil-check per instrumented site. A plan walk's step counts
	// and histograms reach it in one Merge when the walk ends and every
	// 4,096 step events (stepSink). Recording never perturbs
	// the Result: executors report ops == plan.OptimizedOps() with or
	// without a recorder.
	Recorder obs.Recorder
	// Policy selects how executors return to branch points:
	// PolicySnapshot (default) stores prefix states as the plan dictates;
	// PolicyUncompute reverse-executes back to branch points instead of
	// storing anything; PolicyAdaptive chooses per branch point. Under a
	// non-snapshot policy the plan-building entry points construct
	// unbudgeted plans — the budget is enforced by the policy itself
	// (PolicyAdaptive snapshots at most SnapshotBudget frames and
	// uncomputes beyond), not by plan-level restore steps.
	Policy RestorePolicy
	// MemProbe, when non-nil and Policy is PolicyAdaptive, reports live
	// memory pressure; while it returns true the adaptive policy keeps
	// only the shallowest branch frames as real snapshots. See
	// SamplerMemProbe. nil means no pressure.
	MemProbe func() bool
	// Pool, when non-nil, is the amplitude-buffer arena the run draws
	// snapshots and entry clones from, letting callers keep buffers warm
	// across runs (the zero-alloc steady state). nil gives the run a
	// private arena. Pool hit/miss counters are recorded
	// only by runs that own their arena, so a shared pool is counted by
	// exactly one accountant.
	Pool *statevec.BufferPool
	// Span, when non-nil, parents this run's causal trace: executors
	// open one child span per execution (execute_plan /
	// execute_subtree, plus trunk and per-task subtree_task spans),
	// segment-cache misses compile under "segment_compile" spans, and
	// snapshot pushes, restores, policy decisions and rollbacks become
	// span events. nil disables tracing at one pointer check per site;
	// like Recorder, a span never perturbs the Result
	// (ops == plan.OptimizedOps() either way).
	Span *trace.Span
}

// check rejects options that name removed executors. ExecutePlan and
// ExecuteSplitPlan, which every plan executor runs through, call it first.
func (o Options) check() error {
	if o.Stripes > 1 {
		return fmt.Errorf("sim: Options.Stripes %d: intra-state striping was removed; Workers > 1 runs the subtree executor", o.Stripes)
	}
	return nil
}

// compileProgram returns the compiled program the options imply for the
// circuit, or nil when plain gate-by-gate dispatch should run. always
// compiles even then: reverse execution (the non-snapshot policies)
// exists only on compiled programs, and a FuseOff program is
// bit-identical to dispatch.
func (o Options) compileProgram(c *circuit.Circuit, always bool) *statevec.Program {
	if !always && o.Fuse == statevec.FuseOff {
		return nil
	}
	return statevec.CompileWith(c, statevec.CompileOptions{
		Fuse:     o.Fuse,
		Recorder: o.Recorder,
		Span:     o.Span,
	})
}

// planOptions returns the reorder options of the plans a run builds:
// budgeted by SnapshotBudget (0 or negative: unlimited) under the
// snapshot policy only. Non-snapshot policies always build unbudgeted
// plans: the policy enforces the budget at run time (uncomputing instead
// of dropping), so plan-level restore/replay steps would only duplicate
// work the policy already avoids.
func (o Options) planOptions() reorder.Options {
	if o.Policy != PolicySnapshot || o.SnapshotBudget <= 0 {
		return reorder.Options{}
	}
	return reorder.Options{Budget: o.SnapshotBudget}
}

// msvTracker maintains a concurrent high-water mark of stored state
// vectors across every goroutine of a run: add(+1) when a vector becomes
// stored (snapshot pushed, subtree entry cloned), add(-1) when it is
// dropped or adopted as a working register. The peak is the true maximum
// number of simultaneously stored vectors, unlike a sum of per-worker
// peaks, which overstates memory because workers do not peak at the same
// instant.
type msvTracker struct {
	cur  atomic.Int64
	peak atomic.Int64
}

func (m *msvTracker) add(d int64) {
	v := m.cur.Add(d)
	if d <= 0 {
		return
	}
	for {
		p := m.peak.Load()
		if v <= p || m.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (m *msvTracker) highWater() int { return int(m.peak.Load()) }

// statePool adapts the shared statevec.BufferPool arena to the executors'
// get/put idiom for one register width, so the push/pop churn of deep
// plans reuses a handful of buffers instead of allocating at every branch
// return. The arena is shared by every goroutine of a run (the trunk
// clones entry states that workers later release), so buffers circulate
// instead of stranding in per-goroutine free lists.
type statePool struct {
	qubits int
	arena  *statevec.BufferPool
}

func newStatePool(n int, arena *statevec.BufferPool) *statePool {
	return &statePool{qubits: n, arena: arena}
}

// get returns a register with unspecified contents (callers overwrite it
// via CopyFrom or Reset).
func (p *statePool) get() *statevec.State { return p.arena.GetState(p.qubits) }

func (p *statePool) put(s *statevec.State) { p.arena.PutState(s) }

// bufferPool returns the arena this run allocates from and whether the
// run owns it (created here rather than supplied via Options.Pool).
func (o Options) bufferPool() (arena *statevec.BufferPool, owned bool) {
	if o.Pool != nil {
		return o.Pool, false
	}
	return statevec.NewBufferPool(), true
}

// recordPoolStats adds the arena's hit/miss/drop deltas since (h0, m0,
// d0) to the recorder. Only the run that owns an arena records it.
func recordPoolStats(rec obs.Recorder, arena *statevec.BufferPool, h0, m0, d0 int64) {
	if rec == nil {
		return
	}
	h, m := arena.Stats()
	rec.Add(obs.PoolHits, h-h0)
	rec.Add(obs.PoolMisses, m-m0)
	rec.Add(obs.PoolDrops, arena.Drops()-d0)
}

// Distribution returns the outcome histogram normalized to probabilities.
func (r *Result) Distribution() map[uint64]float64 {
	total := 0
	for _, c := range r.Counts {
		total += c
	}
	out := make(map[uint64]float64, len(r.Counts))
	if total == 0 {
		return out
	}
	for k, c := range r.Counts {
		out[k] = float64(c) / float64(total)
	}
	return out
}

// sampleOutcome turns a final state into the trial's classical bit
// pattern: sample a basis state with the trial's pre-drawn uniform, route
// measured qubits to classical bits, then apply the readout-error flips.
func sampleOutcome(st *statevec.State, c *circuit.Circuit, t *trial.Trial) uint64 {
	return sampleBitsRaw(st, c, t) ^ t.MeasFlips
}

// sampleBitsRaw is sampleOutcome without the readout flips. Inverse-CDF
// sampling with the trial's own uniform keeps the result independent of
// execution order, so baseline and reordered runs agree bit-for-bit.
func sampleBitsRaw(st *statevec.State, c *circuit.Circuit, t *trial.Trial) uint64 {
	return measuredBits(c, statevec.SampleIndex(st.Amplitudes(), t.SampleU))
}

// bitsTable maps every basis index of a run's state to its measured
// classical bits (measuredBits), so an emit reads one entry instead of
// looping over the measurements. A run builds it once, only when the
// state has no more basis states than the run has trials: there the
// table costs less than the loops it saves. Otherwise it is nil and
// outcome loops.
type bitsTable []uint64

// fill returns the table of a run of trials trials of c in t's slab,
// grown when it is too small, or nil when the run should loop instead.
func (t bitsTable) fill(c *circuit.Circuit, trials int) bitsTable {
	if c.NumQubits() >= 31 || 1<<c.NumQubits() > trials {
		return nil
	}
	if cap(t) < 1<<c.NumQubits() {
		t = make(bitsTable, 1<<c.NumQubits())
	}
	t = t[:1<<c.NumQubits()]
	for i := range t {
		t[i] = measuredBits(c, i)
	}
	return t
}

// outcome is sampleOutcome through the table.
func (t bitsTable) outcome(st *statevec.State, c *circuit.Circuit, tr *trial.Trial) uint64 {
	if t == nil {
		return sampleOutcome(st, c, tr)
	}
	return t[statevec.SampleIndex(st.Amplitudes(), tr.SampleU)] ^ tr.MeasFlips
}

// measuredBits routes the measured qubits of basis state idx to their
// classical bits.
func measuredBits(c *circuit.Circuit, idx int) uint64 {
	var bits uint64
	for _, m := range c.Measurements() {
		if idx>>uint(m.Qubit)&1 == 1 {
			bits |= 1 << uint(m.Bit)
		}
	}
	return bits
}

// Baseline runs every trial independently: reset to |0...0>, apply each
// gate layer, inject the trial's errors at each layer boundary, sample the
// terminal measurement. This is the widely adopted strategy the paper
// normalizes against.
func Baseline(c *circuit.Circuit, trials []*trial.Trial, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	res := newResult(c, len(trials), opt.KeepStates)
	rec := opt.Recorder
	st := statevec.NewState(c.NumQubits())
	layers := c.Layers()
	ops := c.Ops()
	var trialMark time.Time
	if rec != nil {
		trialMark = time.Now()
	}
	for _, t := range trials {
		st.Reset()
		next := 0 // cursor into the trial's sorted injection list
		for l := range layers {
			for _, oi := range layers[l] {
				op := ops[oi]
				st.ApplyOp(op.Gate, op.Qubits...)
				res.Ops++
			}
			for next < len(t.Inj) && t.Inj[next].Layer() == l {
				in := t.Inj[next].Unpack()
				st.ApplyPauli(in.Op, in.Qubit)
				res.Ops++
				next++
			}
		}
		if next != len(t.Inj) {
			return nil, fmt.Errorf("sim: trial %d has injection beyond final layer %d", t.ID, len(layers)-1)
		}
		res.Outcomes = append(res.Outcomes, Outcome{TrialID: t.ID, Bits: sampleOutcome(st, c, t)})
		if opt.KeepStates {
			res.FinalStates[t.ID] = st.Clone()
		}
		if rec != nil {
			now := time.Now()
			rec.Observe(obs.HistTrialLatency, int64(now.Sub(trialMark)))
			trialMark = now
		}
	}
	if rec != nil {
		rec.Add(obs.Ops, res.Ops)
		rec.Add(obs.TrialsEmitted, int64(len(trials)))
	}
	finish(res)
	return res, nil
}

// Reordered builds the reorder plan for the trial set (budgeted when
// Options.SnapshotBudget is set) and executes it with real state vectors:
// one working register, a snapshot stack for prefix states, snapshots
// dropped at their last use.
func Reordered(c *circuit.Circuit, trials []*trial.Trial, opt Options) (*Result, error) {
	plan, err := reorder.BuildPlan(c, trials, opt.planOptions())
	if err != nil {
		return nil, err
	}
	return ExecutePlan(c, plan, opt)
}

// ExecutePlan runs a prebuilt plan. Exposed separately so callers can
// reuse one plan across analyses and execution.
//
// With a span attached it wraps the execution in one "execute_plan"
// child; all deeper trace activity — segment compiles, snapshot events,
// policy decisions — nests under that child.
func ExecutePlan(c *circuit.Circuit, plan *reorder.Plan, opt Options) (*Result, error) {
	return new(Workspace).ExecutePlan(c, plan, opt)
}

// Workspace holds a sequential plan walk's slabs between runs: the
// dispatch table, the measured-bits table, the branch state with its
// frame stack and journal, the step sink with its tally and event
// buffer, and the result's outcomes and histogram. Its zero value is
// ready to use. The Outcomes and Counts of a Result it returned stay
// valid until its next ExecutePlan, which reuses them; the rest of the
// Result is the caller's.
type Workspace struct {
	tab      dispatchTable
	bits     bitsTable
	bs       branchState
	pool     statePool
	tr       msvTracker
	sink     *stepSink
	outcomes []Outcome
	counts   map[uint64]int
}

// ExecutePlan is the package-level ExecutePlan over w's slabs.
func (w *Workspace) ExecutePlan(c *circuit.Circuit, plan *reorder.Plan, opt Options) (*Result, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	var esp *trace.Span
	if opt.Span != nil {
		esp = opt.Span.Child("execute_plan",
			trace.String("policy", opt.Policy.String()),
			trace.Int("steps", int64(len(plan.Steps))),
			trace.Int("trials", int64(len(plan.Order))))
		opt.Span = esp
	}
	if err := c.Validate(); err != nil {
		return traceDone(esp, nil, err)
	}
	res := reuseResult(w.outcomes, w.counts, c, len(plan.Order), opt.KeepStates)
	w.outcomes, w.counts = res.Outcomes, res.Counts
	rec := opt.Recorder
	prog := plan.Prog
	if prog == nil {
		prog = opt.compileProgram(c, opt.Policy != PolicySnapshot)
	}
	adv := newAdvancer(c, prog, len(plan.Order), &w.tab, w.bits)
	if adv.bits != nil {
		w.bits = adv.bits
	}
	arena, owned := opt.bufferPool()
	h0, m0 := arena.Stats()
	d0 := arena.Drops()
	w.pool = statePool{qubits: c.NumQubits(), arena: arena}
	w.tr = msvTracker{}
	bs := &w.bs
	bs.reset(c, opt, adv, res, &w.tr, &w.pool, w.sink)
	if bs.sink != nil {
		w.sink = bs.sink
	}
	// Every StepPush opens a frame, so the plan's stack peak sizes the
	// frame stack, and with it the spares, once.
	if cap(bs.frames) < plan.MSV() {
		bs.frames = make([]pframe, 0, plan.MSV())
	}
	bs.work = w.pool.get()
	// A panic hands the registers back too, and lets go of the run.
	defer w.detach()
	bs.work.Reset()
	err := bs.run(plan.Steps, plan.Order, len(plan.Order), nil)
	bs.sink.flush()
	// Return the registers to the arena so a caller-shared pool stays warm
	// across runs instead of leaking one working set per run.
	bs.release()
	if err != nil {
		return traceDone(esp, nil, fmt.Errorf("sim: %w", err))
	}
	if rec != nil {
		rec.Add(obs.Ops, res.Ops)
		rec.Add(obs.Copies, res.Copies)
		rec.SetMax(obs.MSVHighWater, int64(res.MSV))
		if owned {
			recordPoolStats(rec, arena, h0, m0, d0)
		}
	}
	finish(res)
	return traceDone(esp, res, nil)
}

// detach returns the walk's registers to the arena and drops the run's
// circuit, options, result, arena and span from the workspace, keeping
// only its slabs, so an idle workspace holds no job's working set.
func (w *Workspace) detach() {
	w.bs.release()
	w.bs = branchState{journal: w.bs.journal[:0], frames: w.bs.frames[:0]}
	w.pool = statePool{}
	if w.sink != nil {
		w.sink.rec, w.sink.span = nil, nil
	}
}

// Bytes returns the capacity the workspace's slabs hold, in bytes; the
// histogram is estimated at 32 bytes per entry.
func (w *Workspace) Bytes() int {
	n := cap(w.tab.kern)*int(unsafe.Sizeof(statevec.OpKernel{})) + cap(w.tab.start)*8 +
		cap(w.bits)*8 + cap(w.bs.journal)*int(unsafe.Sizeof(jentry{})) +
		cap(w.bs.frames)*int(unsafe.Sizeof(pframe{})) +
		cap(w.outcomes)*int(unsafe.Sizeof(Outcome{})) + 32*len(w.counts)
	if w.sink != nil {
		n += int(unsafe.Sizeof(*w.sink)) + cap(w.sink.events)*int(unsafe.Sizeof(trace.StepEvent{}))
	}
	return n
}

// newResult returns an empty Result with room for the outcomes of trials
// trials of circuit c (nil: no histogram hint), with the final-state map
// when the run keeps states.
func newResult(c *circuit.Circuit, trials int, keepStates bool) *Result {
	return reuseResult(nil, nil, c, trials, keepStates)
}

// reuseResult is newResult over an outcome slab and a histogram to reuse
// (nil: allocate), the slab grown and the histogram emptied first.
func reuseResult(outcomes []Outcome, counts map[uint64]int, c *circuit.Circuit, trials int, keepStates bool) *Result {
	if outcomes == nil || cap(outcomes) < trials {
		outcomes = make([]Outcome, 0, trials)
	}
	if counts == nil {
		counts = make(map[uint64]int, countsHint(c, trials))
	}
	clear(counts)
	res := &Result{Outcomes: outcomes[:0], Counts: counts}
	if keepStates {
		res.FinalStates = make(map[int]*statevec.State, trials)
	}
	return res
}

// countsHint sizes the histogram for the distinct bit patterns trials
// trials of c can produce (at most one per trial and one per value of the
// measured bits), capped at countsHintMax so that a run of many trials
// over few distinct outcomes does not allocate a map sized to its trial
// count; a run with more outcomes grows the map from there.
func countsHint(c *circuit.Circuit, trials int) int {
	if c == nil {
		return 0
	}
	hint := min(trials, countsHintMax)
	if m := len(c.Measurements()); m < 20 {
		hint = min(hint, 1<<m)
	}
	return hint
}

// countsHintMax caps countsHint.
const countsHintMax = 1024

// traceDone closes an executor span with the run's outcome: the error
// on failure, the executed ops/copies as attributes on success.
// Nil-safe, so executors call it unconditionally on every return path.
func traceDone(sp *trace.Span, res *Result, err error) (*Result, error) {
	if sp != nil {
		if err != nil {
			sp.SetError(err)
		} else if res != nil {
			sp.SetAttr(trace.Int("ops", res.Ops), trace.Int("copies", res.Copies))
		}
		sp.End()
	}
	return res, err
}

// absorb merges a worker's partial result into r: work counters,
// outcomes and final states. MSV and the histogram are the caller's.
func (r *Result) absorb(p *Result) {
	r.Ops += p.Ops
	r.UncomputeOps += p.UncomputeOps
	r.Copies += p.Copies
	r.Outcomes = append(r.Outcomes, p.Outcomes...)
	for id, st := range p.FinalStates {
		r.FinalStates[id] = st
	}
}

// finish puts outcomes in trial-ID order and fills the histogram. When
// the outcomes' bit patterns fit in 2^w values for 2^w no larger than the
// outcome count, it counts them in a slice first and writes each pattern
// seen into the map once.
func finish(res *Result) {
	if !placeByID(res.Outcomes) {
		slices.SortFunc(res.Outcomes, func(a, b Outcome) int { return cmp.Compare(a.TrialID, b.TrialID) })
	}
	var seen uint64
	for _, o := range res.Outcomes {
		seen |= o.Bits
	}
	if w := bits.Len64(seen); w < 31 && 1<<w <= len(res.Outcomes) {
		var small [64]int
		dense := small[:]
		if 1<<w > len(small) {
			dense = make([]int, 1<<w)
		}
		for _, o := range res.Outcomes {
			dense[o.Bits]++
		}
		for b, n := range dense {
			if n > 0 {
				res.Counts[uint64(b)] += n
			}
		}
		return
	}
	for _, o := range res.Outcomes {
		res.Counts[o.Bits]++
	}
}

// placeByID moves each outcome to the index equal to its TrialID, in
// O(n) swaps, when the IDs are a permutation of 0..n-1 (every generated
// trial set's are). On any other ID set it stops and reports false,
// leaving os a permutation of its input for the caller to sort.
func placeByID(os []Outcome) bool {
	for i := range os {
		for id := os[i].TrialID; id != i; id = os[i].TrialID {
			if uint(id) >= uint(len(os)) || os[id].TrialID == id {
				return false
			}
			os[i], os[id] = os[id], os[i]
		}
	}
	return true
}

// EqualOutcomes reports whether two results produced identical per-trial
// classical outcomes — the observable form of the paper's equivalence
// claim.
func EqualOutcomes(a, b *Result) bool {
	if len(a.Outcomes) != len(b.Outcomes) {
		return false
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			return false
		}
	}
	return true
}
