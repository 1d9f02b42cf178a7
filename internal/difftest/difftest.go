// Package difftest is the differential and metamorphic correctness
// harness for the prefix-reuse simulation engine.
//
// The paper's central claim is that trial reordering is *exact*: every
// trial's final state is bit-identical to naive no-reuse execution, and
// the op-count and MSV metrics reported by the static planner are exactly
// what the executors realize. Every execution path must uphold that
// claim (sequential plan, subtree parallel, restore policies, snapshot
// budgets), so this package hammers all of them with seeded random
// workloads and proves equivalence:
//
//   - Workload: a randomized (circuit, noise model, trial count, budget)
//     tuple, generated deterministically from a printed seed so any
//     failure replays with `FromSeed(seed)`.
//   - Check / CheckWorkload: run the workload through every registered
//     executor and assert bit-identical final states, identical per-trial
//     outcomes and averaged distributions, op-count equality with the
//     sequential plan, and MSV within the snapshot budget — plus
//     metamorphic properties (trial-order permutation invariance,
//     plan ops <= naive ops, one plan from any trial order).
//   - SelfTest: the same engine as a seeded smoke run, wired into the
//     CLI as `qsim -selftest` for CI and user machines.
//   - A golden-file regression corpus under testdata/ (see golden.go)
//     pins the static metrics and outcome histograms of fixed seeds.
//
// TQSim and TUSQ validate reuse-based simulators the same way — by
// cross-checking against naive Monte Carlo execution; this package makes
// that validation systematic and reusable for every future executor.
package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/trial"
)

// Workload is one randomized differential-test case: everything needed
// to generate a trial set and run it through every executor.
type Workload struct {
	// Seed reproduces the workload exactly via FromSeed.
	Seed int64
	// Circuit is the random circuit under test.
	Circuit *circuit.Circuit
	// Model is the random device noise model.
	Model *noise.Model
	// Trials is the Monte Carlo trial count.
	Trials int
	// Budget caps stored state vectors (0 = unlimited), exercising the
	// replay paths of budgeted plans.
	Budget int
	// Mode is the error-injection mode.
	Mode trial.ErrorMode
}

// String renders a one-line descriptor of the workload shape.
func (w *Workload) String() string {
	return fmt.Sprintf("seed=%d qubits=%d gates=%d layers=%d trials=%d budget=%d mode=%s",
		w.Seed, w.Circuit.NumQubits(), w.Circuit.NumOps(), w.Circuit.NumLayers(),
		w.Trials, w.Budget, w.Mode)
}

// Params bounds the random workload generator. The zero value is not
// usable; start from QuickParams or DeepParams.
type Params struct {
	MinQubits, MaxQubits int
	MinGates, MaxGates   int
	MinTrials, MaxTrials int
	// MaxErrorRate bounds the per-gate error probabilities drawn for the
	// noise model. High rates (0.1-0.3) make trials diverge early and
	// deep, exercising the trie machinery far harder than realistic
	// device rates would.
	MaxErrorRate float64
}

// QuickParams bounds workloads for the always-on quick mode: small
// enough that a full differential check takes a few milliseconds.
func QuickParams() Params {
	return Params{
		MinQubits: 2, MaxQubits: 5,
		MinGates: 3, MaxGates: 32,
		MinTrials: 8, MaxTrials: 160,
		MaxErrorRate: 0.25,
	}
}

// DeepParams bounds workloads for the deep mode (skipped under
// `go test -short`): wider circuits, longer trial sets.
func DeepParams() Params {
	return Params{
		MinQubits: 2, MaxQubits: 7,
		MinGates: 3, MaxGates: 64,
		MinTrials: 8, MaxTrials: 512,
		MaxErrorRate: 0.3,
	}
}

// FromSeed deterministically generates the quick-mode workload for a
// seed — the replay entry point printed in every failure message.
func FromSeed(seed int64) *Workload {
	return Generate(seed, QuickParams())
}

// Generate deterministically generates the workload for (seed, params).
// The same pair always yields the same workload, byte for byte.
func Generate(seed int64, p Params) *Workload {
	rng := rand.New(rand.NewSource(seed))
	n := randBetween(rng, p.MinQubits, p.MaxQubits)
	w := &Workload{
		Seed:    seed,
		Circuit: RandomCircuit(rng, n, randBetween(rng, p.MinGates, p.MaxGates)),
		Model:   randomModel(rng, n, p.MaxErrorRate),
		Trials:  randBetween(rng, p.MinTrials, p.MaxTrials),
	}
	// Half the workloads run unbudgeted; the rest sweep tight budgets,
	// including 1 (every branch point forced onto the replay path).
	if rng.Intn(2) == 1 {
		w.Budget = 1 + rng.Intn(4)
	}
	if rng.Intn(4) == 0 {
		w.Mode = trial.PerQubit
	}
	return w
}

// GenTrials generates the workload's trial set. Generation is seeded by
// the workload seed, so the trial set is part of the replayable state.
func (w *Workload) GenTrials() ([]*trial.Trial, error) {
	g, err := trial.NewGeneratorMode(w.Circuit, w.Model, w.Mode)
	if err != nil {
		return nil, err
	}
	// Offset the stream so trial randomness is independent of the draws
	// that shaped the circuit and model.
	return g.Generate(rand.New(rand.NewSource(w.Seed^0x74726961)), w.Trials), nil
}

// randBetween draws uniformly from [lo, hi].
func randBetween(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// RandomCircuit draws a random circuit over the full gate set: every
// named one- and two-qubit gate the library knows, parameterized gates
// with random angles, and CCX when the register is wide enough. A random
// subset of qubits (at least one) is measured into shuffled classical
// bits, so bit routing is exercised too.
func RandomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("rand-n%d-g%d", n, gates), n)
	for i := 0; i < gates; i++ {
		g, qubits := randomGateFor(rng, n)
		c.Append(g, qubits...)
	}
	measureRandom(rng, c, n)
	return c
}

// randomGateFor draws one gate application valid for an n-qubit register.
func randomGateFor(rng *rand.Rand, n int) (gate.Gate, []int) {
	angle := func() float64 { return rng.Float64()*4*3.141592653589793 - 2*3.141592653589793 }
	oneQ := []func() gate.Gate{
		gate.I, gate.X, gate.Y, gate.Z, gate.H, gate.S, gate.Sdg,
		gate.T, gate.Tdg, gate.SX,
		func() gate.Gate { return gate.RX(angle()) },
		func() gate.Gate { return gate.RY(angle()) },
		func() gate.Gate { return gate.RZ(angle()) },
		func() gate.Gate { return gate.P(angle()) },
		func() gate.Gate { return gate.U1(angle()) },
		func() gate.Gate { return gate.U2(angle(), angle()) },
		func() gate.Gate { return gate.U3(angle(), angle(), angle()) },
	}
	twoQ := []func() gate.Gate{gate.CX, gate.CZ, gate.Swap}
	switch {
	case n >= 3 && rng.Intn(12) == 0:
		q := rng.Perm(n)
		return gate.CCX(), []int{q[0], q[1], q[2]}
	case n >= 2 && rng.Intn(3) == 0:
		q := rng.Perm(n)
		return twoQ[rng.Intn(len(twoQ))](), []int{q[0], q[1]}
	default:
		return oneQ[rng.Intn(len(oneQ))](), []int{rng.Intn(n)}
	}
}

// measureRandom measures a random nonempty qubit subset into a random
// assignment of classical bits.
func measureRandom(rng *rand.Rand, c *circuit.Circuit, n int) {
	qubits := rng.Perm(n)[:1+rng.Intn(n)]
	bits := rng.Perm(n)
	for i, q := range qubits {
		c.Measure(q, bits[i])
	}
}

// randomModel draws a random device noise model: independent per-qubit
// 1q and readout rates, a 2q default plus per-pair overrides, and
// (occasionally) idle errors or a fully noiseless model — the degenerate
// case where every trial is an exact duplicate.
func randomModel(rng *rand.Rand, n int, maxRate float64) *noise.Model {
	m := noise.NewModel(fmt.Sprintf("rand-%d", n), n)
	if rng.Intn(16) == 0 {
		return m // noiseless: all trials identical
	}
	for q := 0; q < n; q++ {
		m.SetSingle(q, rng.Float64()*maxRate)
		m.SetMeasure(q, rng.Float64()*maxRate)
	}
	m.SetTwoDefault(rng.Float64() * maxRate)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(3) == 0 {
				m.SetTwo(a, b, rng.Float64()*maxRate)
			}
		}
	}
	if rng.Intn(4) == 0 {
		for q := 0; q < n; q++ {
			m.SetIdle(q, rng.Float64()*maxRate/8)
		}
	}
	return m
}
