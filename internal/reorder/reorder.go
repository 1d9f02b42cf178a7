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
// Sort is Algorithm 1's recursive partition. At each trie node, a range
// of trials that share their first d injections and sit in input order,
// the trials with no d-th injection move to the tail in input order, and
// the rest are sorted by one uint64 each: the d-th key minus the node's
// smallest, shifted left past the trial's rank in input order, so that
// equal keys tie by input position. Each run of equal keys is then a
// child node. When key spread and rank need more than 64 bits, the node
// sorts ranks by (key, rank) instead. Scratch is sized once per call.
func Sort(trials []*trial.Trial) []*trial.Trial {
	out := make([]*trial.Trial, len(trials))
	copy(out, trials)
	if len(out) > 1 {
		p := partitioner{order: out, keys: make([]uint64, len(out)), held: make([]*trial.Trial, len(out))}
		p.node(0, len(out), 0)
	}
	return out
}

// partitioner holds Sort's order and its scratch. A node uses only the
// scratch of its own range, so a child never overwrites what its parent
// still reads.
type partitioner struct {
	order []*trial.Trial
	keys  []uint64       // a node's sort keys, then each placed trial's group key
	held  []*trial.Trial // a node's trials with a next key, in input order
}

// node orders trials order[lo:hi), which share their first depth
// injections and are in input order.
func (p *partitioner) node(lo, hi, depth int) {
	for hi-lo > 1 {
		// One pass: trials with a depth-th key to held, their keys to
		// keys, exhausted trials packed to the front of the range.
		held, keys := p.held[lo:hi], p.keys[lo:hi]
		live, minK, maxK := 0, ^uint64(0), uint64(0)
		for i, t := range p.order[lo:hi] {
			if len(t.Inj) <= depth {
				p.order[lo+i-live] = t
				continue
			}
			k := uint64(t.Inj[depth])
			held[live], keys[live] = t, k
			minK, maxK = min(minK, k), max(maxK, k)
			live++
		}
		if live == 0 {
			return // all exhausted: identical sequences, already in input order
		}
		if live == hi-lo && minK == maxK {
			depth++ // a single child: nothing moves
			continue
		}
		copy(p.order[lo+live:hi], p.order[lo:hi-live])
		held, keys = held[:live], keys[:live]
		if rankBits := bits.Len(uint(live - 1)); bits.Len64(maxK-minK)+rankBits <= 64 {
			for j, k := range keys {
				keys[j] = (k-minK)<<rankBits | uint64(j)
			}
			slices.Sort(keys)
			mask := uint64(1)<<rankBits - 1
			for j, k := range keys {
				p.order[lo+j] = held[k&mask]
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
				p.order[lo+j] = held[k]
				keys[j] = uint64(held[k].Inj[depth])
			}
		}
		for i := 0; i < live; {
			j := i + 1
			for j < live && keys[j] == keys[i] {
				j++
			}
			p.node(lo+i, lo+j, depth+1)
			i = j
		}
		return
	}
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
	layerOps  []int // gate count per layer
	layerCum  []int // prefix sums of layerOps
	totalOps  int   // gates in one full circuit pass
	baseline  int64 // baseline basic-op count for the same trial set
	planOps   int64 // optimized basic-op count
	msv       int   // peak snapshot-stack depth
	pushCount int64 // number of state copies the plan performs

	injections int // total injections over Order
	maxInj     int // longest injection list in Order
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

// BuildPlan sorts the trials with Sort and constructs the execution plan:
// a depth-first walk of the injection-prefix trie in which each trie
// branch point stores one snapshot that is dropped after its last child,
// and the last child of a branch consumes the parent's state in place
// (the paper's "S1 can be dropped since it is no longer used").
func BuildPlan(c *circuit.Circuit, trials []*trial.Trial) (*Plan, error) {
	return BuildPlanBudget(c, trials, math.MaxInt)
}

// BuildPlanBudget is BuildPlan under a hard cap on concurrently stored
// state vectors. When a branch point cannot afford a snapshot, its later
// siblings restore a copy of the nearest stored ancestor (or the initial
// state) and replay the missing gates and injections — trading computation
// for memory, the graceful degradation the paper's memory discussion
// motivates. A budget of math.MaxInt reproduces BuildPlan exactly; a
// budget of 0 stores nothing and replays everything.
func BuildPlanBudget(c *circuit.Circuit, trials []*trial.Trial, budget int) (*Plan, error) {
	if len(trials) == 0 {
		return nil, fmt.Errorf("reorder: empty trial set")
	}
	return BuildPlanOrderedBudget(c, Sort(trials), budget)
}

// BuildPlanOrdered is BuildPlan for a trial slice that is already in Sort
// order, skipping the O(n log n) re-sort. The parallel executors use it so
// that sorting the full trial set once is enough: each worker's sub-range
// of the global order is already sorted. The input slice is retained (not
// copied) as Plan.Order and must not be mutated afterwards; passing an
// unsorted slice is an error.
func BuildPlanOrdered(c *circuit.Circuit, ordered []*trial.Trial) (*Plan, error) {
	return BuildPlanOrderedBudget(c, ordered, math.MaxInt)
}

// BuildPlanOrderedBudget is BuildPlanBudget over a presorted trial slice
// (see BuildPlanOrdered).
//
// The pass that checks the order also counts the unbudgeted plan's steps
// from the adjacent common-prefix lengths, so an unbudgeted plan's Steps
// is allocated once at its exact size. Budgeted plans presize to a bound
// and grow when their replays exceed it.
func BuildPlanOrderedBudget(c *circuit.Circuit, ordered []*trial.Trial, budget int) (*Plan, error) {
	return buildPlanOrdered(c, ordered, budget, true)
}

// CountPlanOrderedBudget is BuildPlanOrderedBudget without the steps: the
// same walk counting only, as Analyze does. The plan carries the order
// and every counter BuildPlanOrderedBudget's would (OptimizedOps, MSV,
// copies, Analysis), but its Steps are nil, so it cannot be executed or
// validated. It serves callers that execute the order some other way,
// such as the subtree-parallel executors, which build their own split
// plans.
func CountPlanOrderedBudget(c *circuit.Circuit, ordered []*trial.Trial, budget int) (*Plan, error) {
	return buildPlanOrdered(c, ordered, budget, false)
}

// buildPlanOrdered builds (record) or counts the plan of a presorted
// trial slice under a snapshot budget.
func buildPlanOrdered(c *circuit.Circuit, ordered []*trial.Trial, budget int, record bool) (*Plan, error) {
	if budget < 0 {
		return nil, fmt.Errorf("reorder: negative snapshot budget %d", budget)
	}
	p, err := planShell(c, ordered)
	if err != nil {
		return nil, err
	}
	steps, err := scanOrder(ordered, 0, 0, p.nLayers)
	if err != nil {
		return nil, err
	}
	if budget != math.MaxInt {
		// At most four steps per trie node (advance, push, inject, pop),
		// no more trie nodes than injections, plus an advance and an emit
		// per trial.
		steps = 4*p.injections + 2*len(ordered) + 1
	}
	if record {
		p.Steps = make([]Step, 0, steps)
	}

	b := newPlanBuilder(p, math.MaxInt, budget)
	b.record = record
	b.build(0, len(p.Order), 0)
	if b.layersDone != p.nLayers {
		// The final emit always advances to the end; reaching here means
		// the builder has a bug, so fail loudly.
		return nil, fmt.Errorf("reorder: internal error, plan ended at layer %d of %d", b.layersDone, p.nLayers)
	}
	if len(b.snaps) != 0 {
		return nil, fmt.Errorf("reorder: internal error, %d snapshots leaked", len(b.snaps))
	}
	if record && budget == math.MaxInt && len(p.Steps) != steps {
		return nil, fmt.Errorf("reorder: internal error, plan has %d steps, counted %d", len(p.Steps), steps)
	}
	return p, nil
}

// scanOrder returns an error unless ordered is in Sort order, and counts
// the steps of its unbudgeted walk from a working state that has applied
// the first depth injections every trial shares and entry gate layers: a
// whole plan from |0...0> (0, 0), or a split plan's task below its branch
// injection. The first trial adds its injections beyond depth. Each later
// trial that starts a new distinct sequence branches from its predecessor
// at depth p, their common-prefix length. Exhausted trials sort last, so
// the predecessor has a p-th injection, and the walk resumes from the
// snapshot taken before it: one push/pop pair per branch, the state
// advanced through the layer of that injection. From there the trial adds
// one inject per injection beyond p, an advance wherever the layer
// frontier rises (before an injection in a later layer, and to the
// circuit's end) and one emit. Duplicates share their predecessor's emit
// and add nothing.
func scanOrder(ordered []*trial.Trial, depth, entry, nLayers int) (int, error) {
	steps := 0
	var prev []trial.Key
	for i, t := range ordered {
		cur := t.Inj
		p, frontier := depth, entry
		if i > 0 {
			n := min(len(prev), len(cur))
			for p < n && prev[p] == cur[p] {
				p++
			}
			if (p < n && prev[p] > cur[p]) || (p == n && len(prev) < len(cur)) {
				return 0, fmt.Errorf("reorder: trials not in Sort order at index %d (use Sort first)", i)
			}
			if p == n && len(prev) == len(cur) {
				continue
			}
			steps += 2
			frontier = prev[p].Layer() + 1
		}
		for _, k := range cur[p:] {
			if l := k.Layer() + 1; l > frontier {
				steps++
				frontier = l
			}
			steps++
		}
		if frontier < nLayers {
			steps++
		}
		steps++
		prev = cur
	}
	return steps, nil
}

// planShell builds a Plan over an already-ordered trial sequence with the
// circuit's layer metadata and the baseline op count filled in, ready for a
// planBuilder to populate steps and metrics. It rejects orders and
// circuits too large for a Step's int32 fields.
func planShell(c *circuit.Circuit, ordered []*trial.Trial) (*Plan, error) {
	if len(ordered) == 0 {
		return nil, fmt.Errorf("reorder: empty trial set")
	}
	layers := c.Layers()
	if err := checkStepRange(len(ordered), len(layers)); err != nil {
		return nil, err
	}
	p := &Plan{
		Order:    ordered,
		nLayers:  len(layers),
		layerOps: make([]int, len(layers)),
		layerCum: make([]int, len(layers)+1),
	}
	for l, idx := range layers {
		p.layerOps[l] = len(idx)
		p.layerCum[l+1] = p.layerCum[l] + len(idx)
	}
	p.totalOps = p.layerCum[len(layers)]
	for _, t := range ordered {
		if len(t.Inj) > 0 && t.Inj[len(t.Inj)-1].Layer() >= len(layers) {
			return nil, fmt.Errorf("reorder: trial %d injects at layer %d, circuit has %d layers", t.ID, t.Inj[len(t.Inj)-1].Layer(), len(layers))
		}
		p.baseline += int64(p.totalOps) + int64(len(t.Inj))
		p.injections += len(t.Inj)
		p.maxInj = max(p.maxInj, len(t.Inj))
	}
	return p, nil
}

// snap records what a pushed snapshot holds: how many gate layers were
// applied and how many of the builder's prefix injections.
type snap struct {
	layers    int
	prefixLen int
}

// planBuilder walks the injection-prefix trie of its plan's order. The
// one walk builds a whole plan, counts one without steps (Analyze), or,
// with split set, builds a SplitPlan's trunk: it then spawns a task for
// each trie child at depth cut and for each clean tail above it, and
// each task body is again a whole-plan walk of that subtree.
type planBuilder struct {
	plan       *Plan
	record     bool       // false: streaming analysis, count but emit no steps
	depthCap   int        // max shared injections exploited; 0 disables sharing
	budget     int        // max concurrent snapshots (MaxInt for BuildPlan)
	split      *SplitPlan // non-nil: this walk is the trunk of split
	cut        int        // with split, the depth tasks hang at
	layersDone int
	prefix     []trial.Key // injections applied to the working state
	snaps      []snap
}

// newPlanBuilder returns a builder over p's trial order. The prefix and
// the snapshot stack are never deeper than the longest injection list, so
// both are sized once.
func newPlanBuilder(p *Plan, depthCap, budget int) *planBuilder {
	return &planBuilder{
		plan: p, depthCap: depthCap, budget: budget,
		prefix: make([]trial.Key, 0, p.maxInj),
		snaps:  make([]snap, 0, p.maxInj),
	}
}

func (b *planBuilder) emit(s Step) {
	if b.record {
		b.plan.Steps = append(b.plan.Steps, s)
	}
}

// advanceTo emits an Advance covering layers [layersDone, to) and accounts
// for its gate applications.
func (b *planBuilder) advanceTo(to int) {
	if to < b.layersDone {
		panic(fmt.Sprintf("reorder: advance backwards from %d to %d", b.layersDone, to))
	}
	if to == b.layersDone {
		return
	}
	b.emit(Step{Kind: StepAdvance, From: int32(b.layersDone), To: int32(to)})
	b.plan.planOps += int64(b.plan.GatesInLayers(b.layersDone, to))
	b.layersDone = to
}

// build processes sorted trials [lo, hi), which agree on their first
// `depth` injections (already applied to the working state). The working
// state has b.layersDone gate layers applied — at least the layer of the
// depth-th injection plus one, and no injections beyond depth.
func (b *planBuilder) build(lo, hi, depth int) {
	// Depth-capped ablation mode: beyond the cap, every trial in the
	// range replays individually from the range's entry state. Used by
	// AnalyzeCapped to quantify how much each recursion level of
	// Algorithm 1 contributes; the cap is MaxInt in normal operation.
	if depth >= b.depthCap {
		for i := lo; i < hi; i++ {
			t := b.plan.Order[i]
			b.plan.planOps += int64(b.plan.GatesInLayers(b.layersDone, b.plan.nLayers))
			b.plan.planOps += int64(len(t.Inj) - depth)
		}
		b.layersDone = b.plan.nLayers
		return
	}
	// Exhausted trials (exactly `depth` injections) sort to the tail of
	// the range; they are served by the error-free frontier last.
	cleanStart := hi
	for cleanStart > lo && len(b.plan.Order[cleanStart-1].Inj) == depth {
		cleanStart--
	}
	i := lo
	for i < cleanStart {
		key := b.plan.Order[i].Inj[depth]
		j := i + 1
		for j < cleanStart && b.plan.Order[j].Inj[depth] == key {
			j++
		}
		inj := key.Unpack()
		b.advanceTo(inj.Layer + 1)
		if b.split != nil && depth == b.cut-1 {
			b.spawnBranch(i, j, depth, key)
			i = j
			continue
		}
		// Consume the working state in place for the last child of a
		// tail-free range, snapshot when the budget allows, replay
		// otherwise.
		last := j == cleanStart && cleanStart == hi
		pushed := false
		if !last && len(b.snaps) < b.budget {
			b.emit(Step{Kind: StepPush})
			b.plan.pushCount++
			b.snaps = append(b.snaps, snap{layers: b.layersDone, prefixLen: depth})
			if len(b.snaps) > b.plan.msv {
				b.plan.msv = len(b.snaps)
			}
			pushed = true
		}
		b.emit(Step{Kind: StepInject, Qubit: int32(inj.Qubit), Op: inj.Op})
		b.plan.planOps++
		b.prefix = append(b.prefix[:depth], key)
		b.build(i, j, depth+1)
		if !last {
			if pushed {
				b.emit(Step{Kind: StepPop})
				top := b.snaps[len(b.snaps)-1]
				b.snaps = b.snaps[:len(b.snaps)-1]
				b.layersDone = top.layers
				b.prefix = b.prefix[:top.prefixLen]
			} else {
				b.restoreTo(depth)
			}
		}
		i = j
	}
	switch {
	case cleanStart == hi:
	case b.split != nil:
		b.spawnClean(cleanStart, hi, depth)
	default:
		b.advanceTo(b.plan.nLayers)
		b.emit(Step{Kind: StepEmit, From: int32(cleanStart), To: int32(hi)})
	}
}

// restoreTo resumes the working state to (prefix[:depth], the associated
// layer frontier) without a dedicated snapshot: restore a copy of the
// nearest stored ancestor (or reset to |0...0|) and replay the missing
// gates and injections. Only budgeted plans reach this path.
func (b *planBuilder) restoreTo(depth int) {
	base := snap{} // empty stack: replay from the initial state
	if len(b.snaps) > 0 {
		base = b.snaps[len(b.snaps)-1]
		b.plan.pushCount++ // restoring copies one stored vector
	}
	b.emit(Step{Kind: StepRestore})
	b.layersDone = base.layers
	for _, k := range b.prefix[base.prefixLen:depth] {
		in := k.Unpack()
		b.advanceTo(in.Layer + 1)
		b.emit(Step{Kind: StepInject, Qubit: int32(in.Qubit), Op: in.Op})
		b.plan.planOps++
	}
	b.prefix = b.prefix[:depth]
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

// Analyze runs the static analysis for a circuit, trial set pair without
// materializing plan steps: the same recursion as BuildPlan but counting
// only, so million-trial, 40-qubit sweeps fit in memory. It reports
// exactly the metrics BuildPlan would (the test suite asserts equality).
func Analyze(c *circuit.Circuit, trials []*trial.Trial) (Analysis, error) {
	return AnalyzeCapped(c, trials, math.MaxInt)
}

// AnalyzeCapped is Analyze with the prefix-sharing depth capped at
// maxShared injections: trials reuse computation only through their first
// maxShared shared errors, and replay individually beyond that. A cap of 0
// disables sharing entirely (reproducing the baseline cost exactly); a cap
// of 1 corresponds to ordering by the first error location only, without
// Algorithm 1's recursion. Intended for ablation studies of the reorder
// depth.
func AnalyzeCapped(c *circuit.Circuit, trials []*trial.Trial, maxShared int) (Analysis, error) {
	return analyze(c, trials, maxShared, math.MaxInt)
}

// analyze sorts trials and counts their plan under a sharing depth cap
// and a snapshot budget: the planBuilder recursion without steps, so its
// metrics match BuildPlanBudget's exactly.
func analyze(c *circuit.Circuit, trials []*trial.Trial, depthCap, budget int) (Analysis, error) {
	p, err := planShell(c, Sort(trials))
	if err != nil {
		return Analysis{}, err
	}
	b := newPlanBuilder(p, depthCap, budget)
	b.build(0, len(p.Order), 0)
	if b.layersDone != p.nLayers || len(b.snaps) != 0 {
		return Analysis{}, fmt.Errorf("reorder: internal analysis error (layer %d of %d, stack %d)", b.layersDone, p.nLayers, len(b.snaps))
	}
	return p.Analysis(), nil
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
