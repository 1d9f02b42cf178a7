package sim

import (
	"fmt"
	"sync"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// Parallel runs the reordered simulation across several workers: the
// sorted trial sequence is split into contiguous chunks, each chunk gets
// its own plan and state registers, and chunks execute concurrently.
//
// Sharing within each chunk is preserved in full, but every prefix that
// spans a chunk boundary is recomputed, so total ops grow with the worker
// count — the redundancy ParallelSubtree eliminates by cutting the trie at
// branch points instead of at arbitrary trial indices. Parallel is kept as
// the comparison baseline for that decomposition. Per-trial outcomes are
// bit-identical to the sequential simulators because every trial carries
// its own randomness.
//
// The Result's MSV field reports the true concurrent peak of stored
// vectors — a high-water mark taken across all workers as snapshots are
// pushed and dropped. It is at most, and usually below, the sum of
// per-chunk peaks, because chunks do not reach their individual peaks at
// the same instant.
func Parallel(c *circuit.Circuit, trials []*trial.Trial, workers int, opt Options) (*Result, error) {
	return ParallelOrdered(c, reorder.Sort(trials), workers, opt)
}

// ParallelOrdered is Parallel over trials already in reorder.Sort order
// (see ParallelSubtreeOrdered). Each chunk's plan rejects an unsorted
// chunk.
func ParallelOrdered(c *circuit.Circuit, ordered []*trial.Trial, workers int, opt Options) (*Result, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sim: worker count %d < 1", workers)
	}
	if len(ordered) == 0 {
		return nil, fmt.Errorf("sim: empty trial set")
	}
	var psp *trace.Span
	if opt.Span != nil {
		psp = opt.Span.Child("execute_parallel",
			trace.Int("workers", int64(workers)),
			trace.Int("trials", int64(len(ordered))))
		// Chunk spans (execute_plan, one per worker) and the shared
		// program's segment compiles nest under the parallel span.
		opt.Span = psp
	}
	// Workers beyond the trial count simply get empty chunks (lo == hi
	// below) and contribute nothing to the merge.
	budget := opt.planBudget()
	// One buffer arena shared by every chunk, recorded here (the chunks
	// see a caller-provided pool and skip their own accounting).
	if opt.Pool == nil {
		arena := statevec.NewBufferPool()
		opt.Pool = arena
		defer recordPoolStats(opt.Recorder, arena, 0, 0, 0)
	}
	// One compiled circuit shared by every chunk (Programs are
	// goroutine-safe); each chunk plan carries it into executePlan.
	prog := opt.compileProgram(c, opt.Policy != PolicySnapshot)

	type chunkResult struct {
		res *Result
		err error
	}
	results := make([]chunkResult, workers)
	var tracker msvTracker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(ordered) / workers
		hi := (w + 1) * len(ordered) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w int, chunk []*trial.Trial) {
			defer wg.Done()
			cr := &results[w]
			// A panic fails this chunk, not the process.
			defer recoverErr(&cr.err)
			// The chunk is a sub-range of the globally sorted order, so
			// the presorted plan constructor skips the per-chunk re-sort.
			plan, err := reorder.BuildPlanOrderedBudget(c, chunk, budget)
			if err != nil {
				cr.err = err
				return
			}
			plan.Prog = prog
			cr.res, cr.err = executePlan(c, plan, opt, &tracker, w)
		}(w, ordered[lo:hi])
	}
	wg.Wait()

	merged := newResult(c, len(ordered), opt.KeepStates)
	for w, cr := range results {
		if cr.err != nil {
			return traceDone(psp, nil, fmt.Errorf("sim: worker %d: %v", w, cr.err))
		}
		if cr.res != nil {
			merged.absorb(cr.res)
		}
	}
	merged.MSV = tracker.highWater()
	if opt.Recorder != nil {
		// Chunks recorded their own stack peaks; the tracker's concurrent
		// high-water is the true combined MSV.
		opt.Recorder.SetMax(obs.MSVHighWater, int64(merged.MSV))
	}
	finish(merged)
	return traceDone(psp, merged, nil)
}
