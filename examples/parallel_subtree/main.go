// Subtree-parallel execution: the reordered simulation spread across
// workers WITHOUT losing prefix sharing. The injection-prefix trie is cut
// at a shallow depth into independent subtree tasks; a coordinator runs
// the shared trunk — computing every common prefix state exactly once —
// and hands clones to a worker pool at each branch point. The program
// contrasts this with the naive contiguous-chunk decomposition, counted
// statically from one plan per chunk of the sorted trials: its total
// basic-op count grows with the worker count because prefixes that span
// chunk boundaries are recomputed in every chunk.
//
//	go run ./examples/parallel_subtree
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/trial"
)

func main() {
	const (
		qubits = 5
		depth  = 5
		shots  = 4096
		seed   = 7
	)
	c := bench.QV(qubits, depth, rand.New(rand.NewSource(seed)))
	m := noise.Uniform("artificial", qubits, 1e-3, 1e-2, 1e-2)
	gen, err := trial.NewGenerator(c, m)
	if err != nil {
		log.Fatal(err)
	}
	trials := gen.Generate(rand.New(rand.NewSource(seed)), shots)

	fmt.Printf("circuit %s: %d qubits, %d layers, %d trials\n\n",
		c.Name(), c.NumQubits(), c.NumLayers(), len(trials))

	// The yardstick: the sequential reordered plan.
	start := time.Now()
	seq, err := sim.Reordered(c, trials, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential reordered:  %8d ops  MSV %2d  (%v)\n",
		seq.Ops, seq.MSV, time.Since(start).Round(time.Millisecond))

	// The static decomposition shows where the tasks come from.
	sp, err := reorder.BuildSplitPlan(c, trials, 1, reorder.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("split plan: %d subtree tasks, trunk %d ops, total %d ops (= sequential)\n\n",
		len(sp.Subtrees), sp.TrunkOps(), sp.TotalOps())

	ordered := reorder.Sort(trials)
	fmt.Println("workers   chunked ops   (vs seq)   subtree ops   (vs seq)")
	for _, workers := range []int{1, 2, 4, 8} {
		chunked := chunkedOps(c, ordered, workers)
		sub, err := sim.ParallelSubtree(c, trials, workers, sim.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if !sim.EqualOutcomes(seq, sub) {
			log.Fatal("subtree outcomes diverged from sequential")
		}
		fmt.Printf("%7d   %11d   %+6.2f%%   %11d   %+6.2f%%\n",
			workers,
			chunked, 100*float64(chunked-seq.Ops)/float64(seq.Ops),
			sub.Ops, 100*float64(sub.Ops-seq.Ops)/float64(seq.Ops))
	}
	fmt.Println("\nthe subtree executor's outcomes are bit-identical to sequential, and")
	fmt.Println("only it keeps the op count at the sequential plan's.")
}

// chunkedOps sums the plan op counts of one contiguous chunk of the sorted
// trials per worker, the decomposition that loses boundary prefixes.
func chunkedOps(c *circuit.Circuit, ordered []*trial.Trial, workers int) int64 {
	var total int64
	for w := 0; w < workers; w++ {
		lo, hi := w*len(ordered)/workers, (w+1)*len(ordered)/workers
		plan, err := reorder.BuildPlan(c, ordered[lo:hi], reorder.Options{})
		if err != nil {
			log.Fatal(err)
		}
		total += plan.OptimizedOps()
	}
	return total
}
