package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/stabilizer"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// Backend abstracts the quantum-state representation the executors drive.
// The paper's scheme only needs four capabilities from a simulator —
// reset, apply, snapshot, resume — plus terminal sampling, so any
// representation providing them (full state vector, stabilizer tableau,
// and in principle tensor networks or decision diagrams) inherits the
// inter-trial optimization unchanged. This realizes the paper's claim
// that the reordering is orthogonal to single-trial simulation technique.
type Backend interface {
	// Reset returns the state to |0...0>.
	Reset()
	// ApplyOp applies one circuit operation; an error means the backend
	// cannot represent the gate (e.g. non-Clifford on a tableau).
	ApplyOp(op circuit.Op) error
	// ApplyPauli applies an injected error operator.
	ApplyPauli(p gate.Pauli, q int)
	// Snapshot returns an independent deep copy.
	Snapshot() Backend
	// CopyFrom overwrites this state from a snapshot of the same width.
	CopyFrom(Backend) error
	// SampleBits draws the trial's classical outcome (before readout
	// flips) from the current state, deterministically in the trial's
	// own randomness so execution order cannot change results.
	SampleBits(c *circuit.Circuit, t *trial.Trial) uint64
}

// SVBackend adapts statevec.State to the Backend interface.
type SVBackend struct {
	st *statevec.State
}

// NewSVBackend returns a |0...0> state-vector backend over n qubits.
func NewSVBackend(n int) *SVBackend {
	return &SVBackend{st: statevec.NewState(n)}
}

// State exposes the wrapped state for inspection in tests.
func (b *SVBackend) State() *statevec.State { return b.st }

// Reset implements Backend.
func (b *SVBackend) Reset() { b.st.Reset() }

// ApplyOp implements Backend.
func (b *SVBackend) ApplyOp(op circuit.Op) error {
	b.st.ApplyOp(op.Gate, op.Qubits...)
	return nil
}

// ApplyPauli implements Backend.
func (b *SVBackend) ApplyPauli(p gate.Pauli, q int) { b.st.ApplyPauli(p, q) }

// Snapshot implements Backend.
func (b *SVBackend) Snapshot() Backend { return &SVBackend{st: b.st.Clone()} }

// CopyFrom implements Backend.
func (b *SVBackend) CopyFrom(src Backend) error {
	o, ok := src.(*SVBackend)
	if !ok {
		return fmt.Errorf("sim: cannot copy %T into SVBackend", src)
	}
	b.st.CopyFrom(o.st)
	return nil
}

// SampleBits implements Backend using the trial's pre-drawn uniform via
// inverse-CDF sampling, exactly as the specialized executors do.
func (b *SVBackend) SampleBits(c *circuit.Circuit, t *trial.Trial) uint64 {
	return sampleBitsRaw(b.st, c, t)
}

// TableauBackend adapts the stabilizer tableau to the Backend interface,
// enabling noisy Clifford-circuit simulation (randomized benchmarking,
// GHZ/error-correction studies) at hundreds of qubits.
type TableauBackend struct {
	tab *stabilizer.Tableau
}

// NewTableauBackend returns a |0...0> tableau backend over n qubits.
func NewTableauBackend(n int) *TableauBackend {
	return &TableauBackend{tab: stabilizer.New(n)}
}

// Tableau exposes the wrapped tableau for inspection in tests.
func (b *TableauBackend) Tableau() *stabilizer.Tableau { return b.tab }

// Reset implements Backend.
func (b *TableauBackend) Reset() { b.tab.Reset() }

// ApplyOp implements Backend.
func (b *TableauBackend) ApplyOp(op circuit.Op) error { return b.tab.ApplyOp(op) }

// ApplyPauli implements Backend.
func (b *TableauBackend) ApplyPauli(p gate.Pauli, q int) { b.tab.ApplyPauli(p, q) }

// Snapshot implements Backend.
func (b *TableauBackend) Snapshot() Backend { return &TableauBackend{tab: b.tab.Clone()} }

// CopyFrom implements Backend.
func (b *TableauBackend) CopyFrom(src Backend) error {
	o, ok := src.(*TableauBackend)
	if !ok {
		return fmt.Errorf("sim: cannot copy %T into TableauBackend", src)
	}
	b.tab.CopyFrom(o.tab)
	return nil
}

// SampleBits implements Backend. Tableau measurement needs a stream of
// random bits (one per indeterminate qubit); it is seeded from the
// trial's own randomness so the outcome is a pure function of the trial,
// independent of execution order.
func (b *TableauBackend) SampleBits(c *circuit.Circuit, t *trial.Trial) uint64 {
	seed := int64(math.Float64bits(t.SampleU)) ^ int64(t.ID)<<1
	rng := rand.New(rand.NewSource(seed))
	collapsed := b.tab.Clone()
	var bits uint64
	for _, m := range c.Measurements() {
		if collapsed.MeasureZ(m.Qubit, rng) {
			bits |= 1 << uint(m.Bit)
		}
	}
	return bits
}

// BaselineBackend runs every trial independently on a fresh backend state,
// the baseline strategy generalized over representations.
func BaselineBackend(c *circuit.Circuit, trials []*trial.Trial, be Backend) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	res := newResult(c, len(trials), false)
	layers := c.Layers()
	ops := c.Ops()
	for _, t := range trials {
		be.Reset()
		next := 0
		for l := range layers {
			for _, oi := range layers[l] {
				if err := be.ApplyOp(ops[oi]); err != nil {
					return nil, err
				}
				res.Ops++
			}
			for next < len(t.Inj) && t.Inj[next].Layer() == l {
				in := t.Inj[next].Unpack()
				be.ApplyPauli(in.Op, in.Qubit)
				res.Ops++
				next++
			}
		}
		if next != len(t.Inj) {
			return nil, fmt.Errorf("sim: trial %d has injection beyond final layer", t.ID)
		}
		res.Outcomes = append(res.Outcomes, Outcome{TrialID: t.ID, Bits: be.SampleBits(c, t) ^ t.MeasFlips})
	}
	finish(res)
	return res, nil
}

// ExecutePlanBackend runs a reorder plan on any backend: the generalized
// form of ExecutePlan. The working state is `be`; snapshots are taken with
// Backend.Snapshot.
func ExecutePlanBackend(c *circuit.Circuit, plan *reorder.Plan, be Backend) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	res := newResult(c, len(plan.Order), false)
	var stack []Backend
	layers := c.Layers()
	ops := c.Ops()
	work := be
	for _, s := range plan.Steps {
		switch s.Kind {
		case reorder.StepAdvance:
			for _, layer := range layers[s.From:s.To] {
				for _, oi := range layer {
					if err := work.ApplyOp(ops[oi]); err != nil {
						return nil, err
					}
					res.Ops++
				}
			}
		case reorder.StepPush:
			stack = append(stack, work.Snapshot())
			res.Copies++
			if len(stack) > res.MSV {
				res.MSV = len(stack)
			}
		case reorder.StepInject:
			work.ApplyPauli(s.Op, int(s.Qubit))
			res.Ops++
		case reorder.StepEmit:
			for _, t := range plan.Order[s.From:s.To] {
				res.Outcomes = append(res.Outcomes, Outcome{TrialID: t.ID, Bits: work.SampleBits(c, t) ^ t.MeasFlips})
			}
		case reorder.StepPop:
			if len(stack) == 0 {
				return nil, fmt.Errorf("sim: plan pops an empty snapshot stack")
			}
			work = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case reorder.StepRestore:
			if len(stack) == 0 {
				work.Reset()
			} else {
				if err := work.CopyFrom(stack[len(stack)-1]); err != nil {
					return nil, err
				}
				res.Copies++
			}
		default:
			return nil, fmt.Errorf("sim: unknown plan step %v", s.Kind)
		}
	}
	if len(res.Outcomes) != len(plan.Order) {
		return nil, fmt.Errorf("sim: plan emitted %d of %d trials", len(res.Outcomes), len(plan.Order))
	}
	finish(res)
	return res, nil
}

// SparseBackend adapts the sparse state-vector simulator to the Backend
// interface: states with small support (GHZ ladders, basis-state
// arithmetic) simulate in memory proportional to their support, at full
// amplitude fidelity — complementing the tableau (Clifford-only) and the
// dense vector (any circuit, exponential memory).
type SparseBackend struct {
	st *sparse.State
}

// NewSparseBackend returns a |0...0> sparse backend over n qubits.
func NewSparseBackend(n int) *SparseBackend {
	return &SparseBackend{st: sparse.NewState(n)}
}

// State exposes the wrapped sparse state for inspection in tests.
func (b *SparseBackend) State() *sparse.State { return b.st }

// Reset implements Backend.
func (b *SparseBackend) Reset() { b.st.Reset() }

// ApplyOp implements Backend.
func (b *SparseBackend) ApplyOp(op circuit.Op) error { return b.st.ApplyOp(op) }

// ApplyPauli implements Backend.
func (b *SparseBackend) ApplyPauli(p gate.Pauli, q int) { b.st.ApplyPauli(p, q) }

// Snapshot implements Backend.
func (b *SparseBackend) Snapshot() Backend { return &SparseBackend{st: b.st.Clone()} }

// CopyFrom implements Backend.
func (b *SparseBackend) CopyFrom(src Backend) error {
	o, ok := src.(*SparseBackend)
	if !ok {
		return fmt.Errorf("sim: cannot copy %T into SparseBackend", src)
	}
	b.st.CopyFrom(o.st)
	return nil
}

// SampleBits implements Backend with the trial's pre-drawn uniform.
func (b *SparseBackend) SampleBits(c *circuit.Circuit, t *trial.Trial) uint64 {
	return measuredBits(c, int(b.st.Sample(t.SampleU)))
}
