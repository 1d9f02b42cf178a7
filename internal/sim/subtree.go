package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// ParallelSubtree runs the reordered simulation across several workers by
// decomposing the injection-prefix trie into subtree tasks
// (reorder.SplitPlan): the coordinator executes the sequential trunk —
// computing every shared prefix state exactly once — and on each spawn
// point clones the working state into a task that any worker can pick up.
// Unlike the contiguous chunking of Parallel, no prefix sharing is lost:
// the decomposition's total basic-operation count equals the sequential
// plan's for every worker count.
//
// Scheduling is dynamic: workers pull from a ready queue ordered
// largest-static-ops-first, so load balance does not depend on how trials
// happened to be distributed, and the number of cloned-but-unfinished
// entry states is bounded (2x workers) so the queue cannot hoard memory.
// Per-trial outcomes are bit-identical to the sequential simulators and
// independent of scheduling because every trial carries its own
// randomness; results are merged deterministically by trial ID.
//
// Options.SnapshotBudget caps each component's stored vectors (the
// trunk's stack, and each task's stack including its preserved entry
// state); Result.MSV reports the true concurrent high-water mark of
// stored vectors across the trunk, the queue, and all workers.
func ParallelSubtree(c *circuit.Circuit, trials []*trial.Trial, workers int, opt Options) (*Result, error) {
	return ParallelSubtreeCut(c, trials, workers, 0, opt)
}

// ParallelSubtreeCut is ParallelSubtree with an explicit trie cut depth;
// cut 0 chooses automatically (deep enough that every worker has several
// tasks, capped at 3).
func ParallelSubtreeCut(c *circuit.Circuit, trials []*trial.Trial, workers, cut int, opt Options) (*Result, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sim: worker count %d < 1", workers)
	}
	if len(trials) == 0 {
		return nil, fmt.Errorf("sim: empty trial set")
	}
	if workers > len(trials) {
		workers = len(trials)
	}
	ordered := reorder.Sort(trials)
	if cut == 0 {
		cut = chooseCut(ordered, workers)
	}
	sp, err := reorder.SplitPlanOrderedCut(c, ordered, cut, opt.planBudget())
	if err != nil {
		return nil, err
	}
	return ExecuteSplitPlan(c, sp, workers, opt)
}

// chooseCut picks the shallowest trie cut that yields a comfortable
// number of tasks per worker (more tasks = better dynamic balancing, but
// deeper cuts serialize more trunk work), capped at depth 3.
func chooseCut(ordered []*trial.Trial, workers int) int {
	const tasksPerWorker = 4
	for cut := 1; ; cut++ {
		if cut == 3 || countSubtrees(ordered, cut) >= tasksPerWorker*workers {
			return cut
		}
	}
}

// countSubtrees counts the tasks a cut would produce without building the
// plan: trials are in Sort order, so each task's trials are contiguous,
// and a boundary falls wherever the task key changes. Trials with at
// least `cut` injections share a task iff their first `cut` injections
// agree; shallower trials are exhausted at their trie node and share a
// task iff their whole injection lists agree.
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
		for i := 0; i < n; i++ {
			if a.Inj[i] != b.Inj[i] {
				return false
			}
		}
		return true
	}
	count := 1
	for i := 1; i < len(ordered); i++ {
		if !sameTask(ordered[i-1], ordered[i]) {
			count++
		}
	}
	return count
}

// queuedTask is a group of spawned subtrees waiting for a worker: the
// static tasks plus their materialized entry states, one per lane. With
// Options.Lanes <= 1 every group holds a single task (the original
// one-task-per-pop behavior); larger groups are executed through the
// batched SoA engine.
type queuedTask struct {
	tasks   []*reorder.Subtree
	entries []*statevec.State
	ops     int64 // summed static task ops: the heap priority
}

// spawnGroup buffers consecutively spawned sibling tasks into one queued
// group. Non-spawn trunk steps flush the buffer, so only strictly
// consecutive spawns — siblings entering at the same layer, cloned from
// the same trunk state — share a group, which is exactly the set a
// batched sweep can advance in lockstep from its first segment.
type spawnGroup struct {
	lanes   int
	queue   *taskQueue
	tasks   []*reorder.Subtree
	entries []*statevec.State
}

func newSpawnGroup(lanes int, queue *taskQueue) *spawnGroup {
	if lanes < 1 {
		lanes = 1
	}
	return &spawnGroup{lanes: lanes, queue: queue}
}

// add buffers one spawned task; a full buffer is flushed immediately. The
// caller has already acquired one sem slot per entry, so buffering never
// exceeds the queue's entry-state bound.
func (g *spawnGroup) add(st *reorder.Subtree, entry *statevec.State) {
	g.tasks = append(g.tasks, st)
	g.entries = append(g.entries, entry)
	if len(g.tasks) >= g.lanes {
		g.flush()
	}
}

func (g *spawnGroup) flush() {
	if len(g.tasks) == 0 {
		return
	}
	var ops int64
	for _, st := range g.tasks {
		ops += st.Ops
	}
	g.queue.push(queuedTask{tasks: g.tasks, entries: g.entries, ops: ops})
	g.tasks = nil
	g.entries = nil
}

// taskQueue is the ready queue: a max-heap on static task ops under a
// mutex, so workers always pull the largest available task first.
type taskQueue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []queuedTask
	done  bool
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *taskQueue) push(t queuedTask) {
	q.mu.Lock()
	q.items = append(q.items, t)
	for i := len(q.items) - 1; i > 0; {
		p := (i - 1) / 2
		if q.items[p].ops >= q.items[i].ops {
			break
		}
		q.items[p], q.items[i] = q.items[i], q.items[p]
		i = p
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a task is available or the queue is closed and empty.
func (q *taskQueue) pop() (queuedTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.done {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return queuedTask{}, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		big := i
		if l <= last-1 && q.items[l].ops > q.items[big].ops {
			big = l
		}
		if r <= last-1 && q.items[r].ops > q.items[big].ops {
			big = r
		}
		if big == i {
			break
		}
		q.items[i], q.items[big] = q.items[big], q.items[i]
		i = big
	}
	return top, true
}

func (q *taskQueue) close() {
	q.mu.Lock()
	q.done = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// ExecuteSplitPlan runs a prebuilt subtree decomposition on a worker
// pool. Exposed separately so callers can choose the cut depth and reuse
// one SplitPlan across runs.
func ExecuteSplitPlan(c *circuit.Circuit, sp *reorder.SplitPlan, workers int, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("sim: worker count %d < 1", workers)
	}
	lanes := opt.Lanes
	if lanes < 1 {
		lanes = 1
	}
	var esp *trace.Span
	if opt.Span != nil {
		esp = opt.Span.Child("execute_subtree",
			trace.String("policy", opt.Policy.String()),
			trace.Int("workers", int64(workers)),
			trace.Int("lanes", int64(lanes)),
			trace.Int("tasks", int64(len(sp.Subtrees))))
		// The trunk span, per-group subtree_task spans and all segment
		// compiles (the shared program included) nest under it.
		opt.Span = esp
	}
	var tracker msvTracker
	queue := newTaskQueue()
	// Bound on cloned-but-unfinished entry states: the trunk blocks
	// rather than materializing an entry vector per task up front. The
	// trunk acquires a slot per entry before buffering a lane group, so
	// the bound must admit at least one full group.
	semCap := 2 * workers
	if lanes > semCap {
		semCap = lanes
	}
	sem := make(chan struct{}, semCap)
	prog := sp.Prog
	if prog == nil {
		prog = opt.compileProgram(c, opt.Policy != PolicySnapshot || lanes > 1)
	}
	adv := newAdvancer(c, prog)
	arena, owned := opt.bufferPool()
	h0, m0 := arena.Stats()
	d0 := arena.Drops()

	partials := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := newResult(opt.KeepStates)
			pool := newStatePool(c.NumQubits(), arena)
			var br *batchRunner
			if lanes > 1 && opt.Policy == PolicySnapshot {
				br = newBatchRunner(c.NumQubits(), lanes, arena)
			}
			for {
				qt, ok := queue.pop()
				if !ok {
					break
				}
				if errs[w] == nil {
					wopt := opt
					var tsp *trace.Span
					if esp != nil {
						tsp = esp.Child("subtree_task",
							trace.Int("tasks", int64(len(qt.tasks))),
							trace.Int("static_ops", qt.ops))
						tsp.SetWorker(w)
						wopt.Span = tsp
					}
					errs[w] = runTaskGroup(c, sp, adv, qt, wopt, res, &tracker, pool, br)
					tsp.SetError(errs[w])
					tsp.End()
				} else {
					// Already failed: drain so the trunk never blocks on
					// the entry-state bound, dropping the queued clones.
					tracker.add(-int64(len(qt.entries)))
				}
				for range qt.entries {
					<-sem
				}
			}
			if br != nil {
				br.release()
			}
			partials[w] = res
		}(w)
	}

	trunkPool := newStatePool(c.NumQubits(), arena)
	topt := opt
	var trunkSpan *trace.Span
	if esp != nil {
		trunkSpan = esp.Child("trunk")
		topt.Span = trunkSpan
	}
	// runTrunk recovers its own panics, so the queue always closes and no
	// worker is left waiting on it.
	trunkRes, trunkErr := runTrunk(c, sp, adv, topt, queue, sem, &tracker, trunkPool)
	trunkSpan.SetError(trunkErr)
	trunkSpan.End()
	queue.close()
	wg.Wait()
	if trunkErr != nil {
		return traceDone(esp, nil, trunkErr)
	}
	for w, err := range errs {
		if err != nil {
			return traceDone(esp, nil, fmt.Errorf("sim: worker %d: %v", w, err))
		}
	}

	merged := trunkRes
	for _, p := range partials {
		merged.absorb(p)
	}
	if len(merged.Outcomes) != len(sp.Order) {
		return traceDone(esp, nil, fmt.Errorf("sim: split plan emitted %d of %d trials", len(merged.Outcomes), len(sp.Order)))
	}
	merged.MSV = tracker.highWater()
	if rec := opt.Recorder; rec != nil {
		// Trunk and tasks record their push/drop/restore/spawn counts
		// inline; the logical totals are added once here so they match the
		// merged Result exactly.
		rec.Add(obs.Ops, merged.Ops)
		rec.Add(obs.Copies, merged.Copies)
		rec.SetMax(obs.MSVHighWater, int64(merged.MSV))
		if owned {
			recordPoolStats(rec, arena, h0, m0, d0)
		}
	}
	finish(merged)
	return traceDone(esp, merged, nil)
}

// runTrunk executes the sequential prefix program, feeding spawned tasks
// (with cloned entry states) into the queue. It performs each shared
// prefix computation exactly once; it never emits trials. With a compiled
// program, trunk advances use the striped Run so the otherwise
// single-threaded serialization point can borrow idle CPUs. Its span
// events (spawn included) sit on the "trunk" span.
func runTrunk(c *circuit.Circuit, sp *reorder.SplitPlan, adv advancer, opt Options, queue *taskQueue, sem chan struct{}, tr *msvTracker, pool *statePool) (_ *Result, err error) {
	defer recoverErr(&err)
	res := newResult(opt.KeepStates)
	rec := opt.Recorder
	bs := newBranchState(c, opt, adv, res, tr, pool, true)
	bs.work = pool.get()
	bs.work.Reset()
	grp := newSpawnGroup(opt.Lanes, queue)
	spawn := func(task int, last bool) {
		sem <- struct{}{}
		entry := pool.get()
		entry.CopyFrom(bs.work)
		res.Copies++
		tr.add(1) // the queued entry state is a stored vector
		if rec != nil {
			rec.Add(obs.TasksSpawned, 1)
		}
		if tsp := opt.Span; tsp != nil {
			tsp.Event("spawn", trace.Int("task", int64(task)))
		}
		// Only strictly consecutive spawns share a lane group.
		grp.add(sp.Subtrees[task], entry)
		if last {
			grp.flush()
		}
	}
	if err := bs.run(sp.Trunk, sp.Order, 0, spawn); err != nil {
		return nil, fmt.Errorf("sim: trunk: %v", err)
	}
	pool.put(bs.work)
	return res, nil
}

// runSubtree executes one task against its entry state, accumulating
// outcomes and op counts into the worker's partial result.
//
// An unbudgeted snapshot task adopts the entry clone as its working
// register (it stops being a stored vector). Otherwise the task keeps the
// entry pristine as a real frame at its stack floor and works on a copy:
// a budgeted plan (budget >= 1) restores from it, and under the other
// policies it is the base every replay bottoms out at, because a task's
// journal covers only its own steps, never the trunk prefix. The entry is
// a spawn clone, already counted by the tracker at spawn and never
// reported as a snapshot push — PolicyUncompute still executes with
// snapshot_pushes == 0. A snapshot plan with budget 0 adopts the entry
// and restores replay from |0...0>.
func runSubtree(c *circuit.Circuit, sp *reorder.SplitPlan, adv advancer, st *reorder.Subtree, entry *statevec.State, opt Options, res *Result, tr *msvTracker, pool *statePool) error {
	bs := newBranchState(c, opt, adv, res, tr, pool, false)
	keepEntry := opt.Policy != PolicySnapshot || (sp.Budget() != math.MaxInt && sp.Budget() >= 1)
	if keepEntry {
		bs.work = pool.get()
		bs.work.CopyFrom(entry)
		res.Copies++
		bs.frames = append(bs.frames, pframe{real: true, st: entry})
		bs.floor = 1
		bs.realCnt = 1
	} else {
		bs.work = entry
		tr.add(-1) // adopted as the working register
	}
	if err := bs.run(st.Steps, sp.Order, st.Trials, nil); err != nil {
		return fmt.Errorf("sim: task %d: %v", st.ID, err)
	}
	pool.put(bs.work)
	if keepEntry {
		tr.add(-1) // the preserved entry state is dropped with the task
		pool.put(entry)
	}
	return nil
}
