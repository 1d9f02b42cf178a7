// Package reorder implements the paper's core contribution: reordering
// statically generated Monte Carlo trials so that consecutive trials share
// the longest possible computation prefix (Algorithm 1), building an
// explicit execution plan with prefix-state snapshots that are stored at
// branch points and dropped as soon as their last consumer has run, and
// statically analyzing that plan for the paper's two evaluation metrics —
// basic-operation count and Maintained State Vectors (MSV) — without
// touching a single amplitude.
//
// The static analyzer is what makes the paper's scalability experiments
// (Figures 7 and 8: 40-qubit circuits, 10^6 trials) reproducible on a
// laptop: both metrics are functions of the reordered trial multiset and
// the circuit's layer structure only, so no 16-TiB state vector is ever
// allocated.
package reorder

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// Sort returns the trials in the paper's optimized execution order: the
// lexicographic order of packed injection sequences with exhausted trials
// sorting last, and trials with equal sequences in input order — exactly
// the stable sort by trial.Compare. The input slice is not modified.
//
// Sort is Algorithm 1's recursive partition: the plan walk (walk.node)
// with no plan to build. BuildPlan sorts in the same walk, so a caller
// that plans the trials need not sort them first.
func Sort(trials []*trial.Trial) []*trial.Trial {
	var w Workspace
	return w.Sort(trials)
}

// Workspace holds the plan walk's order and scratch, a plan's steps and
// layer tables, and the walk's prefix and snapshot stack between runs.
// Its zero value is ready to use. The order Sort returns, and the plan
// BuildPlan returns (its Order, Steps and layer tables), stay valid until
// the workspace's next Sort or BuildPlan, which reuses the slabs.
type Workspace struct {
	order  []*trial.Trial
	keys   []uint64       // a node's sort keys, then each placed trial's group key
	held   []*trial.Trial // a node's trials with a next key, in input order
	steps  []Step
	layers []int // a plan's layerCum
	prefix []trial.Key
	snaps  []snap
}

// Sort is the package-level Sort over w's slabs.
func (w *Workspace) Sort(trials []*trial.Trial) []*trial.Trial {
	wk := walk{maxShared: math.MaxInt}
	w.load(&wk, trials)
	wk.node(0, len(trials), 0)
	return wk.order
}

// load copies the trials into w's order slab, sized with the scratch
// once for len(trials), and hands both to wk.
func (w *Workspace) load(wk *walk, trials []*trial.Trial) {
	n := len(trials)
	if cap(w.order) < n {
		w.order, w.keys, w.held = make([]*trial.Trial, n), make([]uint64, n), make([]*trial.Trial, n)
	}
	wk.order, wk.keys, wk.held = w.order[:n], w.keys[:n], w.held[:n]
	copy(wk.order, trials)
}

// Bytes returns the capacity the workspace's slabs hold, in bytes.
func (w *Workspace) Bytes() int {
	ptr := int(unsafe.Sizeof(&trial.Trial{}))
	return (cap(w.order)+cap(w.held))*ptr + cap(w.keys)*8 +
		cap(w.steps)*int(unsafe.Sizeof(Step{})) + cap(w.layers)*int(unsafe.Sizeof(0)) +
		cap(w.prefix)*int(unsafe.Sizeof(trial.Key(0))) + cap(w.snaps)*int(unsafe.Sizeof(snap{}))
}

// StepKind discriminates plan steps.
type StepKind uint8

// Plan step kinds. Walk dispatches each to one Handler method (a Spawn
// to its spawn function).
const (
	// StepAdvance applies gate layers [From, To) of the circuit to the
	// working state, error-free.
	StepAdvance StepKind = iota
	// StepPush snapshots the working state onto the prefix-state stack;
	// the working copy then continues as the child branch.
	StepPush
	// StepInject applies the Pauli Op to Qubit of the working state.
	StepInject
	// StepEmit declares the working state (advanced through all layers)
	// to be the final pre-measurement state of trials Order[From:To].
	StepEmit
	// StepPop discards the working state and resumes from the top
	// snapshot, which is removed from the stack.
	StepPop
	// StepRestore discards the working state and resumes from a COPY of
	// the top snapshot (or from |0...0> when the stack is empty), leaving
	// the snapshot in place. Emitted only by memory-budgeted plans, where
	// a branch point could not afford its own snapshot and later siblings
	// must replay the missing prefix from a shallower state.
	StepRestore
	// StepSpawn clones the working state and hands the clone to subtree
	// task Step.Task() as its entry state. Emitted only in SplitPlan trunks
	// (never by BuildPlan); sequential executors reject it.
	StepSpawn
)

// String names the step kind.
func (k StepKind) String() string {
	switch k {
	case StepAdvance:
		return "advance"
	case StepPush:
		return "push"
	case StepInject:
		return "inject"
	case StepEmit:
		return "emit"
	case StepPop:
		return "pop"
	case StepRestore:
		return "restore"
	case StepSpawn:
		return "spawn"
	default:
		return fmt.Sprintf("step(%d)", int(k))
	}
}

// Step is one instruction of an execution plan. It is a flat 16-byte
// value: plans hold several steps per trial, and executors walk them in
// their innermost loop. Its index fields are int32, so plan builders
// reject trial and layer counts beyond math.MaxInt32 (checkStepRange).
type Step struct {
	// From, To bound the layer range of an Advance ([From, To)), and the
	// trials an Emit finalizes: the contiguous range Order[From:To] of
	// the plan's trial order. Sort groups duplicated trials, so they
	// share one entry-point state and one Emit. A Spawn, which has no
	// range, keeps its task index in From (see Task).
	From, To int32
	// Qubit and Op describe an Inject.
	Qubit int32
	Kind  StepKind
	Op    gate.Pauli
}

// Task returns the SplitPlan.Subtrees index a Spawn hands the cloned
// working state to. Meaningful only for StepSpawn.
func (s Step) Task() int { return int(s.From) }

// spawnStep returns the Spawn step for subtree task.
func spawnStep(task int) Step { return Step{Kind: StepSpawn, From: int32(task)} }

// checkStepRange returns an error when a plan over trials trials and
// layers circuit layers would not fit a Step's int32 fields. Every task
// index is below the trial count, so the check covers Spawn too.
func checkStepRange(trials, layers int) error {
	if trials > math.MaxInt32 {
		return fmt.Errorf("reorder: %d trials exceed a plan step's range of %d", trials, math.MaxInt32)
	}
	if layers > math.MaxInt32 {
		return fmt.Errorf("reorder: %d circuit layers exceed a plan step's range of %d", layers, math.MaxInt32)
	}
	return nil
}

// Plan is a complete reordered execution schedule for one trial set over
// one circuit.
type Plan struct {
	// Order is the reordered trial sequence the plan executes.
	Order []*trial.Trial
	// Steps is the instruction sequence.
	Steps []Step
	// Prog, when set, is a compiled kernel program executors use for
	// StepAdvance layer ranges instead of gate-by-gate dispatch. It is
	// advisory: static analysis ignores it, a nil Prog means dispatch
	// execution, and it has no effect on the plan's op/MSV/copy metrics
	// (compiled execution applies the same logical ops).
	Prog *statevec.Program

	nLayers   int
	layerCum  []int // gates in layers [0, l), per l
	totalOps  int   // gates in one full circuit pass
	baseline  int64 // baseline basic-op count for the same trial set
	planOps   int64 // optimized basic-op count
	msv       int   // peak snapshot-stack depth
	pushCount int64 // number of state copies the plan performs
	tasks     [CountedCuts + 1]int
}

// CountedCuts is the deepest split cut whose task count a plan records
// (see SplitTasks).
const CountedCuts = 3

// SplitTasks returns how many subtree tasks BuildSplitPlan makes of the
// plan's trials at cut depth cut, 1 to CountedCuts (0 otherwise): the
// trie nodes at depth cut, plus the clean tails above it. The walk that
// built or counted the plan recorded them; a walk capped by
// Options.MaxShared records only the nodes above its cap.
func (p *Plan) SplitTasks(cut int) int {
	if cut < 1 || cut > CountedCuts {
		return 0
	}
	return p.tasks[cut]
}

// NumLayers returns the circuit depth the plan was built against.
func (p *Plan) NumLayers() int { return p.nLayers }

// GatesInLayers returns the gate-application count of layers [from, to).
func (p *Plan) GatesInLayers(from, to int) int {
	return p.layerCum[to] - p.layerCum[from]
}

// OptimizedOps returns the basic-operation count (gate applications plus
// injected Paulis) the plan executes.
func (p *Plan) OptimizedOps() int64 { return p.planOps }

// BaselineOps returns the basic-operation count of running every trial
// independently: trials x circuit gates + total injections.
func (p *Plan) BaselineOps() int64 { return p.baseline }

// NormalizedComputation returns OptimizedOps / BaselineOps — the metric of
// the paper's Figures 5 and 7 (lower is better; 1 - value is the saving).
func (p *Plan) NormalizedComputation() float64 {
	if p.baseline == 0 {
		return 0
	}
	return float64(p.planOps) / float64(p.baseline)
}

// MSV returns the peak number of simultaneously stored prefix state
// vectors (excluding the working register) — the metric of Figures 6/8.
func (p *Plan) MSV() int { return p.msv }

// Copies returns how many state-vector copies (Push steps) the plan makes.
func (p *Plan) Copies() int64 { return p.pushCount }

// BranchRollbackOps returns, for each StepPush in step order, the number
// of logical ops (advance gates plus injections) the plan executes
// between that push and its matching pop *at the push's own nesting
// level* — ops inside nested push..pop pairs are excluded, because an
// inner return already unwound them. This is exactly the segment an
// uncompute executor (sim.PolicyUncompute) reverse-executes when it
// returns to the branch point instead of adopting a snapshot, so the
// values predict per-branch rollback cost statically; the difftest suite
// checks them against the executor's measured uncompute_depth
// observations. On budgeted plans a StepRestore re-enters the innermost
// open branch point, resetting its accumulator (the restore unwound the
// outstanding ops); the reported value is what remains at the final pop.
func (p *Plan) BranchRollbackOps() []int64 {
	if p.Validate() != nil {
		return nil // invalid plan; Validate reports the real error
	}
	r := &rollback{p: p, out: make([]int64, 0, p.pushCount)}
	_ = Walk(r, p.Steps, p.Order, len(p.Order), nil) // a valid plan walks without error
	return r.out
}

// rollback is BranchRollbackOps' handler. out holds one count per push
// so far; open indexes the pushes not yet popped, innermost last.
type rollback struct {
	p    *Plan
	out  []int64
	open []int
}

// add charges n ops to the innermost open push.
func (r *rollback) add(n int) error {
	if k := len(r.open); k > 0 {
		r.out[r.open[k-1]] += int64(n)
	}
	return nil
}

func (r *rollback) Advance(from, to int) error     { return r.add(r.p.GatesInLayers(from, to)) }
func (r *rollback) Inject(gate.Pauli, int) error   { return r.add(1) }
func (r *rollback) Emit(int, []*trial.Trial) error { return nil }

func (r *rollback) Push() error {
	r.open = append(r.open, len(r.out))
	r.out = append(r.out, 0)
	return nil
}

func (r *rollback) Pop() error {
	r.open = r.open[:len(r.open)-1]
	return nil
}

// Restore unwinds the ops outstanding at the innermost open push.
func (r *rollback) Restore() error {
	if k := len(r.open); k > 0 {
		r.out[r.open[k-1]] = 0
	}
	return nil
}

func (r *rollback) Unwound() error { return nil }

// NoSnapshots is the Options.Budget of a plan that stores no snapshot:
// every later sibling replays its prefix from |0...0>.
const NoSnapshots = -1

// NoSharing is the Options.MaxShared of a walk that shares no
// injection: every trial replays alone, at the baseline's cost.
const NoSharing = -1

// Options select what the plan walk builds. The zero value is the
// paper's scheme: a snapshot at every branch point, every shared
// injection shared, and the steps recorded.
type Options struct {
	// Budget caps the snapshots stored at once; 0 sets no cap, and
	// NoSnapshots stores none. When a branch point cannot afford a
	// snapshot, its later siblings restore a copy of the nearest stored
	// ancestor (or |0...0>) and replay the missing gates and injections,
	// trading computation for memory, the graceful degradation the
	// paper's memory discussion motivates.
	Budget int
	// MaxShared caps the injections trials share; 0 sets no cap, and
	// NoSharing reproduces the baseline cost. Past the cap every trial
	// replays alone from its node's entry state, and the walk neither
	// orders those trials further nor has steps for them, so a capped
	// walk must Count. A cap of 1 orders by the first error only,
	// without Algorithm 1's recursion: the ablation of the reorder depth.
	MaxShared int
	// Count makes the walk count without recording steps: the plan has
	// its order and every counter, but nil Steps, so it can be neither
	// executed nor validated. Million-trial, 40-qubit sweeps fit in
	// memory this way, and the subtree executor chooses its cut from a
	// counted plan.
	Count bool
}

// caps returns the walk's snapshot budget and sharing cap, math.MaxInt
// for no cap.
func (o Options) caps() (budget, maxShared int, err error) {
	if o.MaxShared != 0 && !o.Count {
		return 0, 0, fmt.Errorf("reorder: a walk capped at %d shared injections has no steps; set Count", o.MaxShared)
	}
	capOf := func(name string, v int) (int, error) {
		switch {
		case v == 0:
			return math.MaxInt, nil
		case v == -1:
			return 0, nil
		case v < 0:
			return 0, fmt.Errorf("reorder: negative %s %d", name, v)
		}
		return v, nil
	}
	if budget, err = capOf("snapshot budget", o.Budget); err != nil {
		return 0, 0, err
	}
	maxShared, err = capOf("sharing cap", o.MaxShared)
	return budget, maxShared, err
}

// BuildPlan sorts the trials with Algorithm 1 and, in the same walk,
// builds their execution plan: a depth-first walk of the
// injection-prefix trie in which each branch point stores one snapshot
// that is dropped after its last child, and the last child of a branch
// consumes the parent's state in place (the paper's "S1 can be dropped
// since it is no longer used"). The trials may come in any order; the
// input slice is not modified. Options set a snapshot budget, a sharing
// cap, or counting only.
func BuildPlan(c *circuit.Circuit, trials []*trial.Trial, opt Options) (*Plan, error) {
	var w Workspace
	return w.BuildPlan(c, trials, opt)
}

// BuildPlan is the package-level BuildPlan over w's slabs.
func (w *Workspace) BuildPlan(c *circuit.Circuit, trials []*trial.Trial, opt Options) (*Plan, error) {
	var wk walk
	if err := w.start(&wk, c, trials, opt); err != nil {
		return nil, err
	}
	wk.node(0, len(trials), 0)
	if wk.record {
		w.steps = wk.cur.steps // a budgeted plan may have grown them
	}
	if wk.layersDone != wk.plan.nLayers || len(wk.snaps) != 0 {
		// The final emit always advances to the end and every push pops;
		// reaching here means the walk has a bug, so fail loudly.
		return nil, fmt.Errorf("reorder: internal error, plan ended at layer %d of %d with %d snapshots", wk.layersDone, wk.plan.nLayers, len(wk.snaps))
	}
	p := wk.plan
	p.Steps, p.planOps, p.msv, p.pushCount = wk.cur.steps, wk.cur.ops, wk.cur.msv, wk.cur.copies
	p.tasks = wk.tasks
	return p, nil
}

// BuildPlanOrderedBudget builds the plan of presorted trials under a
// snapshot budget, math.MaxInt for none and 0 for NoSnapshots.
//
// Deprecated: use BuildPlan, which takes trials in any order.
func BuildPlanOrderedBudget(c *circuit.Circuit, ordered []*trial.Trial, budget int) (*Plan, error) {
	return BuildPlan(c, ordered, Options{Budget: cmp.Or(budget, NoSnapshots)})
}

// start checks the options, the trials and the circuit, and sets wk up
// to walk the trials in w's slabs from the root: its plan has the order,
// the circuit's layer tables and the baseline, and its step slab is
// presized. It rejects orders and circuits too large for a Step's int32
// fields.
func (w *Workspace) start(wk *walk, c *circuit.Circuit, trials []*trial.Trial, opt Options) error {
	budget, maxShared, err := opt.caps()
	if err != nil {
		return err
	}
	if len(trials) == 0 {
		return fmt.Errorf("reorder: empty trial set")
	}
	layers := c.Layers()
	if err := checkStepRange(len(trials), len(layers)); err != nil {
		return err
	}
	n := len(layers)
	if cap(w.layers) < n+1 {
		w.layers = make([]int, n+1)
	}
	p := &Plan{nLayers: n, layerCum: w.layers[: n+1 : n+1]}
	p.layerCum[0] = 0
	for l, idx := range layers {
		p.layerCum[l+1] = p.layerCum[l] + len(idx)
	}
	p.totalOps = p.layerCum[n]
	injections, injected, maxInj := 0, 0, 0
	for _, t := range trials {
		if len(t.Inj) == 0 {
			continue
		}
		if l := t.Inj[len(t.Inj)-1].Layer(); l >= n {
			return fmt.Errorf("reorder: trial %d injects at layer %d, circuit has %d layers", t.ID, l, n)
		}
		injections += len(t.Inj)
		injected++
		maxInj = max(maxInj, len(t.Inj))
	}
	p.baseline = int64(len(trials))*int64(p.totalOps) + int64(injections)
	// The prefix is never deeper than the longest injection list, nor is
	// a stack; a split task's stack sits above the trunk's, one deeper
	// for a budgeted task's entry.
	if cap(w.prefix) < maxInj || cap(w.snaps) < maxInj+1 {
		w.prefix, w.snaps = make([]trial.Key, 0, maxInj), make([]snap, 0, maxInj+1)
	}
	*wk = walk{plan: p, record: !opt.Count, budget: budget, maxShared: maxShared, prefix: w.prefix[:0], snaps: w.snaps[:0]}
	w.load(wk, trials)
	p.Order = wk.order
	if wk.record {
		// An unbudgeted plan never has more steps than this bound, so its
		// slab never regrows. Take the distinct injection sequences in
		// walk order. The first applies its injections, each an inject
		// and at most one advance before it, then at most one advance to
		// the end and an emit. Each later sequence branches from its
		// predecessor at their common prefix (exhausted trials sort
		// last, so it is a proper prefix of the predecessor): one push
		// and one pop, then the same at most two steps per injection past
		// the branch and two to finish. Duplicates share an emit. With D
		// sequences, that is at most 2·injections + 4·D − 2 steps, and
		// D <= injected + 1, since each nonempty sequence has a trial with
		// an injection and at most one sequence is empty. A split plan's
		// tasks fit too: a task has the steps of its subtree less the
		// branch point's advance, push and pop. Budgeted plans replay on
		// top and may regrow the slab.
		bound := 2*injections + 4*injected + 2
		if cap(w.steps) < bound {
			w.steps = make([]Step, 0, bound)
		}
		wk.cur.steps = w.steps[:0]
	}
	return nil
}

// snap records what a pushed snapshot holds: how many gate layers were
// applied and how many of the walk's prefix injections.
type snap struct {
	layers    int
	prefixLen int
}

// part is what the walk has made of one plan component: the whole plan,
// a split plan's trunk, or one of its tasks.
type part struct {
	steps  []Step
	ops    int64 // basic operations
	copies int64 // pushes and restores from a stored snapshot
	msv    int   // peak snapshot-stack depth
}

// walk is one run of Algorithm 1 over an order (see node). Without a
// plan it only sorts (Sort). With one it builds the plan's steps and
// counters, or counts only; with split set, it builds split's trunk, and
// spawns a task for each trie child at depth cut and each clean tail
// above it, each task body the same walk of that subtree.
type walk struct {
	order []*trial.Trial
	keys  []uint64
	held  []*trial.Trial

	plan      *Plan // nil: sort only
	record    bool  // false: count without steps
	budget    int   // max snapshots stored at once (math.MaxInt: no cap)
	maxShared int   // shared injections exploited (math.MaxInt: no cap)
	split     *SplitPlan
	cut       int
	slab      []Step // with split, the tasks' steps, one task after another

	cur        part // the component being walked
	layersDone int  // gate layers the working state has applied
	prefix     []trial.Key
	snaps      []snap
	tasks      [CountedCuts + 1]int // see Plan.SplitTasks
}

// node walks trials order[lo:hi), which share their first depth
// injections and sit in input order, from a working state that has
// applied those injections and layersDone gate layers. It partitions the
// range, and then, for each child (the trials sharing a depth-th
// injection), advances to the injection's layer; pushes a snapshot, or,
// at a split's cut, spawns a task; injects; walks the child; and returns
// to the branch point by a pop, or by a restore and replay when the
// budget allowed no snapshot. The last child of a range without
// exhausted trials consumes the working state in place. The exhausted
// trials, last in the range, are its clean tail: an advance to the end
// and one emit, or above a split's cut, a task of their own.
//
// node is the package's one recursion over the trie: Sort, the plans and
// counts of BuildPlan and BuildBatchPlan, and the trunks and tasks of
// BuildSplitPlan are all this walk.
func (w *walk) node(lo, hi, depth int) {
	if depth >= w.maxShared {
		w.replay(lo, hi, depth)
		return
	}
	tail := lo + w.partition(lo, hi, depth)
	for i := lo; i < tail; {
		j := i + 1
		for j < tail && w.keys[j] == w.keys[i] {
			j++
		}
		if w.plan == nil {
			if j-i > 1 { // one trial is ordered
				w.node(i, j, depth+1)
			}
			i = j
			continue
		}
		if depth < CountedCuts {
			w.tasks[depth+1]++
		}
		key := w.order[i].Inj[depth]
		w.advanceTo(key.Layer() + 1)
		spawn, last, pushed := w.split != nil && depth == w.cut-1, j == hi, false
		var trunk resume
		switch {
		case spawn:
			trunk = w.enterTask(i, j, depth)
		case !last && len(w.snaps) < w.budget:
			w.push(depth)
			pushed = true
		}
		w.inject(key)
		w.prefix = append(w.prefix[:depth], key)
		w.node(i, j, depth+1)
		switch {
		case spawn:
			w.leaveTask(trunk)
		case pushed:
			w.pop()
		case !last:
			w.restoreTo(depth)
		}
		i = j
	}
	if tail == hi || w.plan == nil {
		return
	}
	for cut := depth + 1; cut <= CountedCuts; cut++ {
		w.tasks[cut]++
	}
	if w.split != nil && depth < w.cut {
		w.spawnClean(tail, hi, depth)
		return
	}
	w.advanceTo(w.plan.nLayers)
	w.emit(Step{Kind: StepEmit, From: int32(tail), To: int32(hi)})
}

// partition is Algorithm 1's step at the trie node order[lo:hi): trials
// that share their first depth injections and sit in input order. It
// returns how many have a depth-th injection. Those come first, sorted
// by it, equal keys in input order, with keys[lo+i] equal for equal
// injections; the exhausted trials follow in input order. A node that
// mixes both, or several keys, sorts one uint64 per live trial: the
// depth-th key minus the node's smallest, shifted left past the trial's
// rank in input order, so that equal keys tie by input position. When
// key spread and rank need more than 64 bits, it sorts ranks by (key,
// rank) instead. Only the scratch of the node's own range is written, so
// a child never overwrites what its parent still reads.
func (w *walk) partition(lo, hi, depth int) int {
	// One pass: trials with a depth-th key to held, their keys to keys,
	// exhausted trials packed to the front of the range.
	held, keys := w.held[lo:hi], w.keys[lo:hi]
	live, minK, maxK := 0, ^uint64(0), uint64(0)
	for i, t := range w.order[lo:hi] {
		if len(t.Inj) <= depth {
			w.order[lo+i-live] = t
			continue
		}
		k := uint64(t.Inj[depth])
		held[live], keys[live] = t, k
		minK, maxK = min(minK, k), max(maxK, k)
		live++
	}
	if live == 0 || (live == hi-lo && minK == maxK) {
		return live // all exhausted, or a single child: nothing moves
	}
	copy(w.order[lo+live:hi], w.order[lo:hi-live])
	held, keys = held[:live], keys[:live]
	if rankBits := bits.Len(uint(live - 1)); bits.Len64(maxK-minK)+rankBits <= 64 {
		for j, k := range keys {
			keys[j] = (k-minK)<<rankBits | uint64(j)
		}
		slices.Sort(keys)
		mask := uint64(1)<<rankBits - 1
		for j, k := range keys {
			w.order[lo+j] = held[k&mask]
			keys[j] = k >> rankBits
		}
	} else {
		for j := range keys {
			keys[j] = uint64(j)
		}
		slices.SortFunc(keys, func(a, b uint64) int {
			if c := cmp.Compare(held[a].Inj[depth], held[b].Inj[depth]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for j, k := range keys {
			w.order[lo+j] = held[k]
			keys[j] = uint64(held[k].Inj[depth])
		}
	}
	return live
}

func (w *walk) emit(s Step) {
	if w.record {
		w.cur.steps = append(w.cur.steps, s)
	}
}

// advanceTo emits an Advance covering layers [layersDone, to) and counts
// its gate applications.
func (w *walk) advanceTo(to int) {
	if to < w.layersDone {
		panic(fmt.Sprintf("reorder: advance backwards from %d to %d", w.layersDone, to))
	}
	if to == w.layersDone {
		return
	}
	w.emit(Step{Kind: StepAdvance, From: int32(w.layersDone), To: int32(to)})
	w.cur.ops += int64(w.plan.GatesInLayers(w.layersDone, to))
	w.layersDone = to
}

func (w *walk) inject(k trial.Key) {
	in := k.Unpack()
	w.emit(Step{Kind: StepInject, Qubit: int32(in.Qubit), Op: in.Op})
	w.cur.ops++
}

// push snapshots the working state, which has applied the prefix's
// first depth injections.
func (w *walk) push(depth int) {
	w.emit(Step{Kind: StepPush})
	w.cur.copies++
	w.snaps = append(w.snaps, snap{layers: w.layersDone, prefixLen: depth})
	w.cur.msv = max(w.cur.msv, len(w.snaps))
}

func (w *walk) pop() {
	w.emit(Step{Kind: StepPop})
	top := w.snaps[len(w.snaps)-1]
	w.snaps = w.snaps[:len(w.snaps)-1]
	w.layersDone, w.prefix = top.layers, w.prefix[:top.prefixLen]
}

// restoreTo resumes the working state to (prefix[:depth], the associated
// layer frontier) without a dedicated snapshot: restore a copy of the
// nearest stored ancestor (or reset to |0...0>) and replay the missing
// gates and injections. Only budgeted plans reach this path.
func (w *walk) restoreTo(depth int) {
	base := snap{} // empty stack: replay from the initial state
	if n := len(w.snaps); n > 0 {
		base = w.snaps[n-1]
		w.cur.copies++ // restoring copies one stored vector
	}
	w.emit(Step{Kind: StepRestore})
	w.layersDone = base.layers
	for _, k := range w.prefix[base.prefixLen:depth] {
		w.advanceTo(k.Layer() + 1)
		w.inject(k)
	}
	w.prefix = w.prefix[:depth]
}

// replay counts trials order[lo:hi) past the sharing cap: each finishes
// alone from the range's entry state.
func (w *walk) replay(lo, hi, depth int) {
	rest := int64(w.plan.GatesInLayers(w.layersDone, w.plan.nLayers))
	for _, t := range w.order[lo:hi] {
		w.cur.ops += rest + int64(len(t.Inj)-depth)
	}
	w.layersDone = w.plan.nLayers
}

// Analysis bundles the static metrics of a plan, matching the evaluation
// metrics of the paper's Section V.
type Analysis struct {
	Trials        int
	BaselineOps   int64
	OptimizedOps  int64
	Normalized    float64 // OptimizedOps / BaselineOps (Figures 5, 7)
	Saving        float64 // 1 - Normalized
	MSV           int     // peak stored state vectors (Figures 6, 8)
	Copies        int64   // state-vector copies performed
	CircuitLayers int
	CircuitGates  int
}

// Analysis reports the plan's static metrics.
func (p *Plan) Analysis() Analysis {
	return Analysis{
		Trials:        len(p.Order),
		BaselineOps:   p.baseline,
		OptimizedOps:  p.planOps,
		Normalized:    p.NormalizedComputation(),
		Saving:        1 - p.NormalizedComputation(),
		MSV:           p.msv,
		Copies:        p.pushCount,
		CircuitLayers: p.nLayers,
		CircuitGates:  p.totalOps,
	}
}

// Dump writes the plan as readable text, one step per line with the
// snapshot-stack depth in the margin — the debugging view of the
// execution schedule:
//
//	[0] advance L0..L3
//	[0] push
//	[1] inject X q0
//	[1] advance L3..L5
//	[1] emit t7 t12
//	[0] pop
func (p *Plan) Dump(w io.Writer) error {
	depth := 0
	for _, s := range p.Steps {
		var line string
		switch s.Kind {
		case StepAdvance:
			line = fmt.Sprintf("advance L%d..L%d (%d gates)", s.From, s.To, p.GatesInLayers(int(s.From), int(s.To)))
		case StepPush:
			line = "push"
		case StepInject:
			line = fmt.Sprintf("inject %s q%d", s.Op, s.Qubit)
		case StepEmit:
			ids := make([]string, 0, s.To-s.From)
			for _, t := range p.Order[s.From:s.To] {
				ids = append(ids, fmt.Sprintf("t%d", t.ID))
			}
			line = "emit " + strings.Join(ids, " ")
		case StepPop:
			line = "pop"
		case StepRestore:
			line = "restore"
		case StepSpawn:
			line = fmt.Sprintf("spawn #%d", s.Task())
		default:
			line = s.Kind.String()
		}
		if _, err := fmt.Fprintf(w, "[%d] %s\n", depth, line); err != nil {
			return err
		}
		switch s.Kind {
		case StepPush:
			depth++
		case StepPop:
			depth--
		}
	}
	return nil
}
