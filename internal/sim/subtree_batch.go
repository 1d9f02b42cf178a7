package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// Batched subtree execution. Sibling subtree tasks spawned from the same
// trunk state execute the same layer ranges after the fork; the single-lane
// executor dispatches those fused kernels one state at a time. Here a
// worker claims a whole spawn group, packs the tasks' working registers
// into the lanes of one statevec.BatchState (structure of arrays), and
// advances every common layer range through Program.RunBatch — one
// cache-blocked pass per compiled segment across all lanes. Everything
// that is per-trial or per-branch (pushes, injections, emits, pops,
// restores) still executes lane-by-lane with the exact arithmetic of
// runSubtree, so outcomes, forward op counts and emitted trials are
// identical to single-lane execution (bit-identical in non-numeric fuse
// modes) at every lane and worker count.

// ExecuteBatchedSubtree is ParallelSubtree with the batched SoA engine:
// the trunk groups up to `lanes` consecutively spawned sibling tasks and
// workers execute each group's shared suffix segments in lockstep.
// lanes <= 1 degenerates to plain ParallelSubtree. This is the executor
// behind qsim's `-par subtree-batched`.
func ExecuteBatchedSubtree(c *circuit.Circuit, trials []*trial.Trial, workers, lanes int, opt Options) (*Result, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("sim: lane count %d < 1", lanes)
	}
	opt.Lanes = lanes
	return ParallelSubtree(c, trials, workers, opt)
}

// runTaskGroup executes one popped spawn group. Groups of one, and every
// group under a non-snapshot restore policy (whose journaled rollbacks are
// inherently per-lane), run tasks sequentially through the single-lane
// path; larger snapshot-policy groups go through the batched engine. A
// panic in a task becomes the group's error, so the worker survives to
// keep draining the queue.
func runTaskGroup(sp *reorder.SplitPlan, bs *branchState, qt queuedTask, br *batchRunner) (err error) {
	defer recoverErr(&err)
	if br == nil || len(qt.tasks) == 1 || bs.policy {
		// A panicking task's registers go back to the arena too.
		defer bs.release()
		for i, st := range qt.tasks {
			if err := runSubtree(sp, bs, st, qt.entries[i]); err != nil {
				for _, e := range qt.entries[i+1:] {
					bs.pool.put(e)
				}
				return err
			}
		}
		return nil
	}
	return br.run(bs.c, sp, bs.prog, qt, bs.opt, bs.res, bs.tr, bs.pool)
}

// laneExec is one lane's execution state within a task group: the task,
// its step cursor, and the per-lane snapshot stack mirroring runSubtree's.
type laneExec struct {
	st        *reorder.Subtree
	pc        int
	stack     []*statevec.State
	pushTimes []time.Time // shadows stack above the entry floor
	floor     int
	emitted   int
	emitMark  time.Time
	done      bool
}

// batchRunner is a worker's reusable batched-execution state: the
// lane-packed SoA register plus scratch for grouping lanes by their next
// layer range. One runner lives per worker goroutine, so the steady-state
// group loop performs no heap allocations.
type batchRunner struct {
	arena   *statevec.BufferPool
	batch   *statevec.BatchState
	amps    [][]complex128 // all lane amplitude slices, cached once
	lanes   []laneExec
	sweep   [][]complex128 // lanes of the current RunBatch subgroup
	members []int          // lane indices of the current subgroup
	pending []int          // lanes stopped at a StepAdvance this round
	rest    []int          // pending lanes deferred to a later subgroup
}

func newBatchRunner(qubits, lanes int, arena *statevec.BufferPool) *batchRunner {
	batch := arena.GetBatch(qubits, lanes)
	return &batchRunner{
		arena:   arena,
		batch:   batch,
		amps:    batch.LaneAmps(lanes),
		lanes:   make([]laneExec, lanes),
		sweep:   make([][]complex128, 0, lanes),
		members: make([]int, 0, lanes),
		pending: make([]int, 0, lanes),
		rest:    make([]int, 0, lanes),
	}
}

// release returns the batch register to the arena when the worker exits.
func (r *batchRunner) release() { r.arena.PutBatch(r.batch) }

// run executes one spawn group: load each entry into a lane, then
// alternate between draining per-lane steps up to the next StepAdvance and
// sweeping groups of lanes that share the same layer range through one
// batched segment execution. Lanes whose next range differs (divergent
// branch structure below the cut) simply sweep in smaller subgroups.
func (r *batchRunner) run(c *circuit.Circuit, sp *reorder.SplitPlan, prog *statevec.Program, qt queuedTask, opt Options, res *Result, tr *msvTracker, pool *statePool) error {
	rec := opt.Recorder
	n := len(qt.tasks)
	keepEntry := sp.Budget() != math.MaxInt && sp.Budget() >= 1
	// A group that fails or panics hands back the registers its lanes
	// still hold, as the single-lane release does: each loaded lane's
	// stack (snapshots and preserved entry) and the entries not loaded.
	loaded, ok := 0, false
	defer func() {
		if ok {
			return
		}
		for i := range n {
			if i >= loaded {
				pool.put(qt.entries[i])
				continue
			}
			le := &r.lanes[i]
			for _, st := range le.stack {
				pool.put(st)
			}
			le.stack = le.stack[:0]
		}
	}()
	for i := 0; i < n; i++ {
		le := &r.lanes[i]
		*le = laneExec{st: qt.tasks[i], stack: le.stack[:0], pushTimes: le.pushTimes[:0]}
		lane := r.batch.Lane(i)
		entry := qt.entries[i]
		lane.CopyFrom(entry)
		res.Copies++
		if keepEntry {
			// The pristine entry stays at the stack floor — the replay
			// floor for StepRestore — exactly as in runSubtree.
			le.stack = append(le.stack, entry)
			le.floor = 1
		} else {
			// A lane cannot adopt the entry the way runSubtree's working
			// register does (lanes are pinned stripes of the batch
			// buffer), so the clone is copied in and released at once.
			tr.add(-1)
			pool.put(entry)
		}
		if rec != nil {
			le.emitMark = time.Now()
		}
		loaded = i + 1
	}
	active := n
	for active > 0 {
		r.pending = r.pending[:0]
		for i := 0; i < n; i++ {
			le := &r.lanes[i]
			if le.done {
				continue
			}
			if err := r.drain(i, c, sp, opt, res, tr, pool); err != nil {
				return err
			}
			if le.done {
				active--
			} else {
				r.pending = append(r.pending, i)
			}
		}
		for len(r.pending) > 0 {
			lead := r.lanes[r.pending[0]]
			want := lead.st.Steps[lead.pc]
			r.sweep = r.sweep[:0]
			r.members = r.members[:0]
			r.rest = r.rest[:0]
			for _, i := range r.pending {
				le := &r.lanes[i]
				if s := le.st.Steps[le.pc]; s.From == want.From && s.To == want.To {
					r.sweep = append(r.sweep, r.amps[i])
					r.members = append(r.members, i)
				} else {
					r.rest = append(r.rest, i)
				}
			}
			segOps := prog.RunBatch(r.sweep, int(want.From), int(want.To))
			res.Ops += int64(segOps) * int64(len(r.members))
			for _, i := range r.members {
				r.lanes[i].pc++
			}
			r.pending, r.rest = r.rest, r.pending
		}
	}
	ok = true
	return nil
}

// drain executes lane i's steps up to (exclusive) its next StepAdvance or
// through the end of its task. The step semantics mirror runSubtree's; the
// only difference is that pops and the entry load copy into the pinned
// lane register instead of adopting a pointer, which changes Copies but no
// amplitude bit and no forward op count.
func (r *batchRunner) drain(i int, c *circuit.Circuit, sp *reorder.SplitPlan, opt Options, res *Result, tr *msvTracker, pool *statePool) error {
	le := &r.lanes[i]
	lane := r.batch.Lane(i)
	rec := opt.Recorder
	for le.pc < len(le.st.Steps) {
		s := le.st.Steps[le.pc]
		switch s.Kind {
		case reorder.StepAdvance:
			return nil // the batched phase advances this lane
		case reorder.StepPush:
			snap := pool.get()
			snap.CopyFrom(lane)
			le.stack = append(le.stack, snap)
			res.Copies++
			tr.add(1)
			if rec != nil {
				rec.Add(obs.SnapshotPushes, 1)
				le.pushTimes = append(le.pushTimes, time.Now())
			}
		case reorder.StepInject:
			lane.ApplyPauli(s.Op, int(s.Qubit))
			res.Ops++
		case reorder.StepEmit:
			for _, t := range sp.Order[s.From:s.To] {
				res.Outcomes = append(res.Outcomes, Outcome{TrialID: t.ID, Bits: sampleOutcome(lane, c, t)})
				le.emitted++
				if opt.KeepStates {
					res.FinalStates[t.ID] = lane.Clone()
				}
			}
			if rec != nil {
				b := int(s.To - s.From)
				rec.Add(obs.TrialsEmitted, int64(b))
				now := time.Now()
				if b > 0 {
					per := int64(now.Sub(le.emitMark)) / int64(b)
					for j := 0; j < b; j++ {
						rec.Observe(obs.HistTrialLatency, per)
					}
				}
				le.emitMark = now
			}
		case reorder.StepPop:
			if len(le.stack) <= le.floor {
				return fmt.Errorf("sim: task %d pops below its entry floor", le.st.ID)
			}
			top := le.stack[len(le.stack)-1]
			le.stack = le.stack[:len(le.stack)-1]
			lane.CopyFrom(top)
			res.Copies++
			pool.put(top)
			tr.add(-1)
			if rec != nil {
				rec.Add(obs.SnapshotDrops, 1)
				rec.Observe(obs.HistSnapshotLifetime, int64(time.Since(le.pushTimes[len(le.pushTimes)-1])))
				le.pushTimes = le.pushTimes[:len(le.pushTimes)-1]
			}
		case reorder.StepRestore:
			if len(le.stack) == 0 {
				lane.Reset()
			} else {
				lane.CopyFrom(le.stack[len(le.stack)-1])
				res.Copies++
			}
			if rec != nil {
				rec.Add(obs.SnapshotRestores, 1)
				rec.Observe(obs.HistRestoreDepth, int64(len(le.stack)))
			}
		default:
			return fmt.Errorf("sim: invalid subtree step %v", s.Kind)
		}
		le.pc++
	}
	if len(le.stack) != le.floor {
		return fmt.Errorf("sim: task %d leaves %d snapshots stored", le.st.ID, len(le.stack)-le.floor)
	}
	if le.emitted != le.st.Trials {
		return fmt.Errorf("sim: task %d emitted %d of %d trials", le.st.ID, le.emitted, le.st.Trials)
	}
	for _, snap := range le.stack {
		tr.add(-1) // the preserved entry is dropped with the task
		pool.put(snap)
	}
	le.stack = le.stack[:0]
	le.done = true
	return nil
}
