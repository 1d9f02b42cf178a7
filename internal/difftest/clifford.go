package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/stabilizer"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// RandomCliffordCircuit draws a random circuit from the Clifford gate
// set only (H, S, Sdg, X, Y, Z, SX, CX, CZ, Swap) with every qubit
// measured — simulable both by the state vector and by the stabilizer
// tableau, which is what makes it the cross-backend test vehicle.
func RandomCliffordCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	oneQ := []func() gate.Gate{gate.X, gate.Y, gate.Z, gate.H, gate.S, gate.Sdg, gate.SX}
	twoQ := []func() gate.Gate{gate.CX, gate.CZ, gate.Swap}
	c := circuit.New(fmt.Sprintf("clifford-n%d-g%d", n, gates), n)
	for i := 0; i < gates; i++ {
		if n >= 2 && rng.Intn(3) == 0 {
			q := rng.Perm(n)
			c.Append(twoQ[rng.Intn(len(twoQ))](), q[0], q[1])
		} else {
			c.Append(oneQ[rng.Intn(len(oneQ))](), rng.Intn(n))
		}
	}
	c.MeasureAll()
	return c
}

// CheckClifford cross-checks the stabilizer backend against the state
// vector on one seeded random Clifford workload. Both backends run the
// full noisy pipeline (trial generation, reordering, prefix reuse); the
// check then asserts, per trial:
//
//   - the two backends assign the same measurement distribution: the
//     tableau's Z expectation of every measured qubit (+1, -1, or 0)
//     matches the state vector's marginal exactly (stabilizer marginals
//     are always 0, 1/2, or 1, so this is a tolerance-free comparison);
//   - the outcome the tableau samples lies in the support of the state
//     vector's distribution (catches sign/phase-tracking bugs that
//     preserve marginals but shift the supported affine subspace);
//   - tableau execution is order-invariant: plan execution and naive
//     backend execution produce identical per-trial outcomes, and the
//     plan execution performs exactly the plan's ops at its MSV.
func CheckClifford(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4)
	c := RandomCliffordCircuit(rng, n, 4+rng.Intn(28))
	m := noise.Uniform(fmt.Sprintf("clifford-%d", n), n, 0.05+rng.Float64()*0.1, 0.1+rng.Float64()*0.1, 0.02)
	g, err := trial.NewGenerator(c, m)
	if err != nil {
		return fmt.Errorf("difftest: clifford seed %d: %w", seed, err)
	}
	trials := g.Generate(rng, 40+rng.Intn(80))
	if err := checkCliffordTrials(c, trials); err != nil {
		return fmt.Errorf("difftest: clifford seed %d [%s]: %w", seed, c.Name(), err)
	}
	return nil
}

func checkCliffordTrials(c *circuit.Circuit, trials []*trial.Trial) error {
	// Order invariance of the tableau backend: the reorder plan and the
	// naive backend loop must sample identical per-trial outcomes.
	plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
	if err != nil {
		return err
	}
	planTab, err := sim.ExecutePlanTableau(c, plan)
	if err != nil {
		return err
	}
	naiveTab, err := sim.BaselineTableau(c, trials)
	if err != nil {
		return err
	}
	if !sim.EqualOutcomes(naiveTab, planTab) {
		return fmt.Errorf("tableau outcomes differ between naive and plan execution%s", firstOutcomeDiff(naiveTab, planTab))
	}
	// The plan contract the state-vector executors are held to.
	if planTab.Ops != plan.OptimizedOps() || planTab.MSV != plan.MSV() {
		return fmt.Errorf("tableau plan execution: ops %d, MSV %d; plan says ops %d, MSV %d",
			planTab.Ops, planTab.MSV, plan.OptimizedOps(), plan.MSV())
	}

	// Per-trial distribution agreement between backends.
	for _, t := range trials {
		sv, tab, err := cliffordFinalStates(c, t)
		if err != nil {
			return err
		}
		probs := sv.Probabilities()
		for _, meas := range c.Measurements() {
			q := meas.Qubit
			p1 := marginalOne(probs, q)
			switch tab.ExpectationZ(q) {
			case 1: // stabilized by +Z: P(1) must be exactly 0
				if p1 > 1e-9 {
					return fmt.Errorf("trial %d qubit %d: tableau says P(1)=0, statevec has %g", t.ID, q, p1)
				}
			case -1:
				if p1 < 1-1e-9 {
					return fmt.Errorf("trial %d qubit %d: tableau says P(1)=1, statevec has %g", t.ID, q, p1)
				}
			default: // indeterminate: stabilizer marginal is exactly 1/2
				if p1 < 0.5-1e-9 || p1 > 0.5+1e-9 {
					return fmt.Errorf("trial %d qubit %d: tableau says P(1)=1/2, statevec has %g", t.ID, q, p1)
				}
			}
		}
		// The tableau's sampled joint outcome must be supported by the
		// state vector's distribution.
		bits := sim.SampleTableau(tab, c, t)
		if p := jointProbability(probs, c, bits); p < 1e-9 {
			return fmt.Errorf("trial %d: tableau sampled %0*b, outside statevec support (p=%g)", t.ID, c.NumQubits(), bits, p)
		}
	}
	return nil
}

// cliffordFinalStates replays one trial on both backends, returning the
// final pre-measurement states.
func cliffordFinalStates(c *circuit.Circuit, t *trial.Trial) (*statevec.State, *stabilizer.Tableau, error) {
	sv := statevec.NewState(c.NumQubits())
	tb := stabilizer.New(c.NumQubits())
	layers := c.Layers()
	ops := c.Ops()
	next := 0
	for l := range layers {
		for _, oi := range layers[l] {
			op := ops[oi]
			sv.ApplyOp(op.Gate, op.Qubits...)
			if err := tb.ApplyOp(op); err != nil {
				return nil, nil, err
			}
		}
		for next < len(t.Inj) && t.Inj[next].Layer() == l {
			in := t.Inj[next].Unpack()
			sv.ApplyPauli(in.Op, in.Qubit)
			tb.ApplyPauli(in.Op, in.Qubit)
			next++
		}
	}
	if next != len(t.Inj) {
		return nil, nil, fmt.Errorf("trial %d has injection beyond final layer", t.ID)
	}
	return sv, tb, nil
}

// marginalOne returns P(qubit q = 1) from a basis-state probability
// vector.
func marginalOne(probs []float64, q int) float64 {
	var p float64
	for idx, pr := range probs {
		if idx>>uint(q)&1 == 1 {
			p += pr
		}
	}
	return p
}

// jointProbability returns the state-vector probability of observing the
// classical bit pattern `bits` over the circuit's measured qubits.
func jointProbability(probs []float64, c *circuit.Circuit, bits uint64) float64 {
	var p float64
	for idx, pr := range probs {
		match := true
		for _, m := range c.Measurements() {
			if uint64(idx>>uint(m.Qubit)&1) != bits>>uint(m.Bit)&1 {
				match = false
				break
			}
		}
		if match {
			p += pr
		}
	}
	return p
}
