// Scalability study: how much computation does trial reordering save on
// FUTURE devices — wider circuits, lower error rates, more trials? This
// reproduces the methodology of the paper's Section V-B at user-chosen
// scale, using the static analyzer: no state vectors are allocated, so the
// 30-qubit configurations below run in seconds on a laptop even though a
// single 30-qubit state would occupy 16 GiB.
//
//	go run ./examples/scalability
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/trial"
)

func main() {
	const trials = 50_000
	fmt.Printf("Quantum-volume circuits, %d Monte Carlo trials each (static analysis)\n\n", trials)
	fmt.Println("circuit     1q-rate  mean-err  normalized  saving   MSV")
	for _, shape := range []struct{ n, d int }{{10, 10}, {20, 10}, {30, 10}} {
		circ := bench.QV(shape.n, shape.d, rand.New(rand.NewSource(int64(shape.n))))
		for _, p1 := range []float64{1e-3, 1e-4} {
			m := noise.Uniform("artificial", shape.n, p1, 10*p1, 10*p1)
			gen, err := trial.NewGenerator(circ, m)
			if err != nil {
				log.Fatal(err)
			}
			ts := gen.Generate(rand.New(rand.NewSource(42)), trials)
			counted, err := reorder.BuildPlan(circ, ts, reorder.Options{Count: true})
			if err != nil {
				log.Fatal(err)
			}
			a := counted.Analysis()
			st := trial.Summarize(ts)
			fmt.Printf("n%02d,d%02d     %-7.0e  %-8.2f  %.3f       %5.1f%%  %3d\n",
				shape.n, shape.d, p1, st.MeanErrors, a.Normalized, a.Saving*100, a.MSV)
		}
	}
	fmt.Println("\nThe stored-state overhead (MSV) stays in single digits while the")
	fmt.Println("computation saving grows as error rates drop — the paper's claim that")
	fmt.Println("the optimization gets MORE valuable on future hardware.")
}
