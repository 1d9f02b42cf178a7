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
// No prefix sharing is lost: the decomposition's total basic-operation
// count equals the sequential plan's for every worker count.
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
	return parallelSubtree(c, reorder.Sort(trials), workers, cut, opt)
}

// ParallelSubtreeOrdered is ParallelSubtree over trials already in
// reorder.Sort order, as reorder.BuildPlanOrdered is BuildPlan: a caller
// that has sorted the trials for its own plan hands the order over
// instead of having it sorted again. An unsorted slice is an error.
func ParallelSubtreeOrdered(c *circuit.Circuit, ordered []*trial.Trial, workers int, opt Options) (*Result, error) {
	return parallelSubtree(c, ordered, workers, 0, opt)
}

func parallelSubtree(c *circuit.Circuit, ordered []*trial.Trial, workers, cut int, opt Options) (*Result, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sim: worker count %d < 1", workers)
	}
	if len(ordered) == 0 {
		return nil, fmt.Errorf("sim: empty trial set")
	}
	if workers > len(ordered) {
		workers = len(ordered)
	}
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

// queuedTask is a spawned subtree waiting for a worker: the static task
// and its materialized entry state.
type queuedTask struct {
	task  *reorder.Subtree
	entry *statevec.State
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
		if q.items[p].task.Ops >= q.items[i].task.Ops {
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
		if l <= last-1 && q.items[l].task.Ops > q.items[big].task.Ops {
			big = l
		}
		if r <= last-1 && q.items[r].task.Ops > q.items[big].task.Ops {
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
	if err := opt.check(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("sim: worker count %d < 1", workers)
	}
	var esp *trace.Span
	if opt.Span != nil {
		esp = opt.Span.Child("execute_subtree",
			trace.String("policy", opt.Policy.String()),
			trace.Int("workers", int64(workers)),
			trace.Int("tasks", int64(len(sp.Subtrees))))
		// The trunk span, per-task subtree_task spans and all segment
		// compiles (the shared program included) nest under it.
		opt.Span = esp
	}
	var tracker msvTracker
	queue := newTaskQueue()
	// Bound on cloned-but-unfinished entry states: the trunk blocks
	// rather than materializing an entry vector per task up front.
	sem := make(chan struct{}, 2*workers)
	prog := sp.Prog
	if prog == nil {
		prog = opt.compileProgram(c, opt.Policy != PolicySnapshot)
	}
	adv := newAdvancer(c, prog, len(sp.Order))
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
			res := newResult(c, 0, opt.KeepStates)
			pool := newStatePool(c.NumQubits(), arena)
			bs := newBranchState(c, opt, adv, res, &tracker, pool)
			for {
				qt, ok := queue.pop()
				if !ok {
					break
				}
				if errs[w] == nil {
					var tsp *trace.Span
					if esp != nil {
						tsp = esp.Child("subtree_task",
							trace.Int("task", int64(qt.task.ID)),
							trace.Int("static_ops", qt.task.Ops))
						tsp.SetWorker(w)
					}
					if bs.sink != nil {
						bs.sink.span = tsp
					}
					errs[w] = runSubtree(sp, bs, qt)
					tsp.SetError(errs[w])
					tsp.End()
				} else {
					// Already failed: drain so the trunk never blocks on
					// the entry-state bound, returning the queued clone.
					tracker.add(-1)
					pool.put(qt.entry)
				}
				<-sem
			}
			bs.sink.flush()
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
		// Trunk and tasks merge their push/drop/restore/spawn counts from
		// their sinks; the logical totals are added once here so they
		// match the merged Result exactly.
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
// prefix computation exactly once; it never emits trials. Its step
// events (spawn included) sit on the "trunk" span.
func runTrunk(c *circuit.Circuit, sp *reorder.SplitPlan, adv advancer, opt Options, queue *taskQueue, sem chan struct{}, tr *msvTracker, pool *statePool) (_ *Result, err error) {
	defer recoverErr(&err)
	res := newResult(c, 0, opt.KeepStates)
	bs := newBranchState(c, opt, adv, res, tr, pool)
	bs.work = pool.get()
	defer bs.release()
	defer bs.sink.flush()
	bs.work.Reset()
	spawn := func(task int) error {
		sem <- struct{}{}
		entry := pool.get()
		entry.CopyFrom(bs.work)
		res.Copies++
		tr.add(1) // the queued entry state is a stored vector
		if bs.sink != nil {
			bs.sink.spawn(task)
		}
		queue.push(queuedTask{task: sp.Subtrees[task], entry: entry})
		return nil
	}
	if err := bs.run(sp.Trunk, sp.Order, 0, spawn); err != nil {
		return nil, fmt.Errorf("sim: trunk: %v", err)
	}
	return res, nil
}

// runSubtree executes one popped task against its entry state on the
// worker's branch state, accumulating outcomes and op counts into the
// worker's partial result. A panic in the task becomes its error, so the
// worker survives to keep draining the queue, and the task's registers go
// back to the arena either way.
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
func runSubtree(sp *reorder.SplitPlan, bs *branchState, qt queuedTask) (err error) {
	defer recoverErr(&err)
	// The entry goes back with the registers: adopted as the working
	// one, or kept at the stack floor.
	defer bs.release()
	// The task's step events go to its span before the span ends; the
	// worker merges its tally when it exits.
	defer bs.sink.flushEvents()
	st, entry := qt.task, qt.entry
	bs.frames, bs.journal = bs.frames[:0], bs.journal[:0]
	bs.floor, bs.realCnt = 0, 0
	keepEntry := bs.policy || (sp.Budget() != math.MaxInt && sp.Budget() >= 1)
	if keepEntry {
		bs.work = bs.pool.get()
		bs.work.CopyFrom(entry)
		bs.res.Copies++
		bs.frames = append(bs.frames, pframe{real: true, st: entry})
		bs.floor = 1
		bs.realCnt = 1
	} else {
		bs.work = entry
		bs.tr.add(-1) // adopted as the working register
	}
	if err := bs.run(st.Steps, sp.Order, st.Trials, nil); err != nil {
		return fmt.Errorf("sim: task %d: %v", st.ID, err)
	}
	if keepEntry {
		bs.tr.add(-1) // the preserved entry state is dropped with the task
	}
	return nil
}
