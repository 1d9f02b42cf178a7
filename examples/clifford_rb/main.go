// Clifford randomized benchmarking at 100 qubits: the reordering scheme
// applied to a stabilizer-tableau backend. A single 100-qubit state vector
// would need 2^100 amplitudes; the CHP tableau needs kilobytes, and
// because Pauli errors are Clifford, the WHOLE pipeline of the paper —
// static trial generation, Algorithm 1 reordering, prefix-state caching —
// runs unchanged on it. This demonstrates the paper's claim that the
// inter-trial optimization is orthogonal to single-trial simulation
// technique.
//
//	go run ./examples/clifford_rb
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/trial"
)

// rbSequence builds an n-qubit Clifford sequence of the given depth
// followed by its exact inverse, so the noiseless outcome is all zeros —
// the self-inverting structure randomized benchmarking uses. Any nonzero
// readout is noise.
func rbSequence(n, depth int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("rb_n%d_d%d", n, depth), n)
	type step struct {
		kind int
		a, b int
	}
	var steps []step
	apply := func(s step) {
		switch s.kind {
		case 0:
			c.Append(gate.H(), s.a)
		case 1:
			c.Append(gate.S(), s.a)
		case 2:
			c.Append(gate.CX(), s.a, s.b)
		}
	}
	invert := func(s step) {
		switch s.kind {
		case 0:
			c.Append(gate.H(), s.a)
		case 1:
			c.Append(gate.Sdg(), s.a)
		case 2:
			c.Append(gate.CX(), s.a, s.b)
		}
	}
	for d := 0; d < depth; d++ {
		for q := 0; q < n; q++ {
			if rng.Intn(3) == 2 {
				b := (q + 1 + rng.Intn(n-1)) % n
				steps = append(steps, step{2, q, b})
			} else {
				steps = append(steps, step{rng.Intn(2), q, 0})
			}
		}
	}
	for _, s := range steps {
		apply(s)
	}
	for i := len(steps) - 1; i >= 0; i-- {
		invert(steps[i])
	}
	// Measure the first 60 qubits (the classical mask is 64 bits wide).
	meas := n
	if meas > 60 {
		meas = 60
	}
	for q := 0; q < meas; q++ {
		c.Measure(q, q)
	}
	return c
}

func main() {
	const (
		nQubits = 100
		depth   = 4
		trialsN = 2000
	)
	rng := rand.New(rand.NewSource(1))
	circ := rbSequence(nQubits, depth, rng)
	m := noise.Uniform("future", nQubits, 1e-4, 1e-3, 1e-3)

	gen, err := trial.NewGenerator(circ, m)
	if err != nil {
		log.Fatal(err)
	}
	trials := gen.Generate(rng, trialsN)
	st := trial.Summarize(trials)
	fmt.Printf("RB on %d qubits, %d gates, %d trials (%.2f mean errors/trial)\n",
		nQubits, circ.NumOps(), trialsN, st.MeanErrors)

	plan, err := reorder.BuildPlan(circ, trials)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	base, err := sim.BaselineTableau(circ, trials)
	if err != nil {
		log.Fatal(err)
	}
	baseT := time.Since(start)

	start = time.Now()
	reord, err := sim.ExecutePlanTableau(circ, plan)
	if err != nil {
		log.Fatal(err)
	}
	reordT := time.Since(start)

	if !sim.EqualOutcomes(base, reord) {
		log.Fatal("equivalence violated")
	}
	if reord.Ops != plan.OptimizedOps() {
		log.Fatalf("reordered run executed %d ops, plan has %d", reord.Ops, plan.OptimizedOps())
	}
	fmt.Printf("baseline:  %8d ops  %v\n", base.Ops, baseT.Round(time.Millisecond))
	fmt.Printf("reordered: %8d ops  %v  (%.1f%% saved, MSV %d)\n",
		reord.Ops, reordT.Round(time.Millisecond),
		(1-float64(reord.Ops)/float64(base.Ops))*100, reord.MSV)

	// RB survival: fraction of trials reading all-zeros.
	survival := float64(reord.Counts[0]) / float64(trialsN)
	fmt.Printf("RB survival probability (all-zero readout): %.3f\n", survival)
	fmt.Println("\nA state-vector simulator cannot touch this width; the tableau")
	fmt.Println("backend inherits the paper's savings because Pauli errors are Clifford.")
}
