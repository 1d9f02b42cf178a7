package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/reorder"
	"repro/internal/stabilizer"
	"repro/internal/trial"
)

// The stabilizer tableau as a second state representation. The paper's
// prefix reuse needs only apply, snapshot, resume and drop, so a plan
// runs on the tableau through the same interpreter (runSteps) as on the
// state vector, and noisy Clifford circuits (randomized benchmarking,
// GHZ/error-correction studies) inherit the savings at hundreds of
// qubits.

// tableauRun is the tableau's stepper: snapshot semantics only, every
// push stores a clone.
type tableauRun struct {
	c      *circuit.Circuit
	layers [][]int
	work   *stabilizer.Tableau
	frames []*stabilizer.Tableau
	res    *Result
	err    error // the first gate the tableau cannot apply
}

func (r *tableauRun) advance(from, to int) {
	for _, layer := range r.layers[from:to] {
		for _, oi := range layer {
			if err := r.work.ApplyOp(r.c.Op(oi)); err != nil && r.err == nil {
				r.err = err
			}
			r.res.Ops++
		}
	}
}

func (r *tableauRun) push() {
	r.frames = append(r.frames, r.work.Clone())
	r.res.Copies++
	r.res.MSV = max(r.res.MSV, len(r.frames))
}

func (r *tableauRun) inject(op gate.Pauli, qubit int) {
	r.work.ApplyPauli(op, qubit)
	r.res.Ops++
}

func (r *tableauRun) emit(ts []*trial.Trial) {
	for _, t := range ts {
		r.res.Outcomes = append(r.res.Outcomes, Outcome{TrialID: t.ID, Bits: SampleTableau(r.work, r.c, t) ^ t.MeasFlips})
	}
}

func (r *tableauRun) pop() error {
	if len(r.frames) == 0 {
		return fmt.Errorf("sim: plan pops an empty snapshot stack")
	}
	r.work = r.frames[len(r.frames)-1]
	r.frames = r.frames[:len(r.frames)-1]
	return nil
}

// restore re-enters the innermost branch point without removing it; an
// empty stack resets to |0...0>, from which the plan replays.
func (r *tableauRun) restore() {
	if len(r.frames) == 0 {
		r.work.Reset()
		return
	}
	r.work.CopyFrom(r.frames[len(r.frames)-1])
	r.res.Copies++
}

func (r *tableauRun) unwound() error {
	if r.err != nil {
		return r.err
	}
	if len(r.frames) != 0 {
		return fmt.Errorf("sim: execution leaves %d branch frames", len(r.frames))
	}
	return nil
}

// ExecutePlanTableau runs a reorder plan on a stabilizer tableau: the
// tableau form of ExecutePlan. A gate outside the Clifford set fails the
// run.
func ExecutePlanTableau(c *circuit.Circuit, plan *reorder.Plan) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	r := &tableauRun{c: c, layers: c.Layers(), work: stabilizer.New(c.NumQubits()), res: newResult(c, len(plan.Order), false)}
	if err := runSteps(r, plan.Steps, plan.Order, len(plan.Order), nil); err != nil {
		return nil, err
	}
	finish(r.res)
	return r.res, nil
}

// BaselineTableau runs every trial independently on a tableau reset to
// |0...0>: the baseline strategy, and the reference ExecutePlanTableau
// is checked against.
func BaselineTableau(c *circuit.Circuit, trials []*trial.Trial) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	res := newResult(c, len(trials), false)
	tab := stabilizer.New(c.NumQubits())
	layers := c.Layers()
	for _, t := range trials {
		tab.Reset()
		next := 0
		for l := range layers {
			for _, oi := range layers[l] {
				if err := tab.ApplyOp(c.Op(oi)); err != nil {
					return nil, err
				}
				res.Ops++
			}
			for next < len(t.Inj) && t.Inj[next].Layer() == l {
				in := t.Inj[next].Unpack()
				tab.ApplyPauli(in.Op, in.Qubit)
				res.Ops++
				next++
			}
		}
		if next != len(t.Inj) {
			return nil, fmt.Errorf("sim: trial %d has injection beyond final layer", t.ID)
		}
		res.Outcomes = append(res.Outcomes, Outcome{TrialID: t.ID, Bits: SampleTableau(tab, c, t) ^ t.MeasFlips})
	}
	finish(res)
	return res, nil
}

// SampleTableau draws the trial's classical outcome (before readout
// flips) from tab, which it leaves untouched. Tableau measurement needs
// a stream of random bits (one per indeterminate qubit); it is seeded
// from the trial's own randomness so the outcome is a pure function of
// the trial, independent of execution order.
func SampleTableau(tab *stabilizer.Tableau, c *circuit.Circuit, t *trial.Trial) uint64 {
	seed := int64(math.Float64bits(t.SampleU)) ^ int64(t.ID)<<1
	rng := rand.New(rand.NewSource(seed))
	collapsed := tab.Clone()
	var bits uint64
	for _, m := range c.Measurements() {
		if collapsed.MeasureZ(m.Qubit, rng) {
			bits |= 1 << uint(m.Bit)
		}
	}
	return bits
}
