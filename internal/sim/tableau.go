package sim

import (
	"errors"
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
// runs on the tableau through the same interpreter (reorder.Walk) as on
// the state vector, and noisy Clifford circuits (randomized
// benchmarking, GHZ/error-correction studies) inherit the savings at
// hundreds of qubits.

// tableauRun is the tableau's plan-step handler: snapshot semantics
// only, every push stores a copy. frames[:depth] are the open branch
// points; a pop swaps the released working tableau into its frame's
// slot, where the next push at that depth copies into it.
type tableauRun struct {
	c      *circuit.Circuit
	layers [][]int
	work   *stabilizer.Tableau
	frames []*stabilizer.Tableau
	depth  int
	smp    *tableauSampler
	res    *Result
}

func (r *tableauRun) Advance(from, to int) error {
	for _, layer := range r.layers[from:to] {
		for _, oi := range layer {
			if err := r.work.ApplyOp(r.c.Op(oi)); err != nil {
				return err
			}
			r.res.Ops++
		}
	}
	return nil
}

func (r *tableauRun) Push() error {
	if r.depth == len(r.frames) {
		r.frames = append(r.frames, r.work.Clone())
	} else {
		r.frames[r.depth].CopyFrom(r.work)
	}
	r.depth++
	r.res.Copies++
	r.res.MSV = max(r.res.MSV, r.depth)
	return nil
}

func (r *tableauRun) Inject(op gate.Pauli, qubit int) error {
	r.work.ApplyPauli(op, qubit)
	r.res.Ops++
	return nil
}

func (r *tableauRun) Emit(_ int, ts []*trial.Trial) error {
	for _, t := range ts {
		r.res.Outcomes = append(r.res.Outcomes, Outcome{TrialID: t.ID, Bits: r.smp.sample(r.work, r.c, t) ^ t.MeasFlips})
	}
	return nil
}

func (r *tableauRun) Pop() error {
	if r.depth == 0 {
		return errors.New("pops an empty snapshot stack")
	}
	r.depth--
	r.work, r.frames[r.depth] = r.frames[r.depth], r.work
	return nil
}

// Restore re-enters the innermost branch point without removing it; an
// empty stack resets to |0...0>, from which the plan replays.
func (r *tableauRun) Restore() error {
	if r.depth == 0 {
		r.work.Reset()
		return nil
	}
	r.work.CopyFrom(r.frames[r.depth-1])
	r.res.Copies++
	return nil
}

func (r *tableauRun) Unwound() error {
	if r.depth != 0 {
		return fmt.Errorf("leaves %d branch frames open", r.depth)
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
	r := &tableauRun{c: c, layers: c.Layers(), work: stabilizer.New(c.NumQubits()), smp: newTableauSampler(c.NumQubits()), res: newResult(c, len(plan.Order), false)}
	if err := reorder.Walk(r, plan.Steps, plan.Order, len(plan.Order), nil); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
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
	smp := newTableauSampler(c.NumQubits())
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
		res.Outcomes = append(res.Outcomes, Outcome{TrialID: t.ID, Bits: smp.sample(tab, c, t) ^ t.MeasFlips})
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
	return newTableauSampler(tab.NumQubits()).sample(tab, c, t)
}

// tableauSampler is SampleTableau with its scratch kept across trials:
// one tableau to collapse and one generator, reseeded per trial (Seed
// restarts the stream exactly as a new source of that seed would).
type tableauSampler struct {
	collapsed *stabilizer.Tableau
	rng       *rand.Rand
}

func newTableauSampler(n int) *tableauSampler {
	return &tableauSampler{collapsed: stabilizer.New(n), rng: rand.New(rand.NewSource(0))}
}

func (s *tableauSampler) sample(tab *stabilizer.Tableau, c *circuit.Circuit, t *trial.Trial) uint64 {
	s.rng.Seed(int64(math.Float64bits(t.SampleU)) ^ int64(t.ID)<<1)
	s.collapsed.CopyFrom(tab)
	var bits uint64
	for _, m := range c.Measurements() {
		if s.collapsed.MeasureZ(m.Qubit, s.rng) {
			bits |= 1 << uint(m.Bit)
		}
	}
	return bits
}
