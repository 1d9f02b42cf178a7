// Package trial implements the static Monte Carlo trial generation at the
// heart of the paper's scheme: instead of injecting errors while the
// state-vector simulation runs, all error-injection trials are generated up
// front as compact records (Section IV, "we first generate all the
// simulation trials without actually running the simulation"), so they can
// be analyzed and reordered before any amplitude math happens.
//
// A trial is the ordered list of injected Pauli errors — each at a
// position (layer, qubit) with an operator in {X, Y, Z} — plus the
// pre-drawn measurement randomness (readout bit flips and the sampling
// uniform), so that executing the same trial in any simulator, in any
// order, yields the identical classical outcome.
package trial

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
)

// Injection is one injected Pauli error, applied at the end of gate layer
// Layer on qubit Qubit. Injections are stored packed (see Key) inside
// trials; this struct is the unpacked view.
type Injection struct {
	Layer int
	Qubit int
	Op    gate.Pauli
}

// String renders the injection as e.g. "X@L3.q1".
func (in Injection) String() string {
	return fmt.Sprintf("%s@L%d.q%d", in.Op, in.Layer, in.Qubit)
}

// Key is a packed injection: layer in the high bits, then qubit, then the
// Pauli operator in the low bits. The packing is order-preserving — sorting
// Keys sorts injections by (layer, qubit, operator), the canonical order
// Algorithm 1 groups by — and keeps million-trial runs compact (8 bytes
// per injection).
type Key uint64

const (
	keyPauliBits = 4
	keyQubitBits = 20
	keyQubitMax  = 1<<keyQubitBits - 1
	keyLayerMax  = 1<<(64-keyQubitBits-keyPauliBits) - 1
)

// Pack encodes an injection as a Key.
func Pack(layer, qubit int, op gate.Pauli) Key {
	if layer < 0 || layer > keyLayerMax {
		panic(fmt.Sprintf("trial: layer %d out of packable range", layer))
	}
	if qubit < 0 || qubit > keyQubitMax {
		panic(fmt.Sprintf("trial: qubit %d out of packable range", qubit))
	}
	return Key(uint64(layer)<<(keyQubitBits+keyPauliBits) |
		uint64(qubit)<<keyPauliBits |
		uint64(op))
}

// Unpack decodes a Key into its injection fields.
func (k Key) Unpack() Injection {
	return Injection{
		Layer: int(k >> (keyQubitBits + keyPauliBits)),
		Qubit: int(k>>keyPauliBits) & keyQubitMax,
		Op:    gate.Pauli(k & (1<<keyPauliBits - 1)),
	}
}

// Layer returns the injection's layer without a full unpack.
func (k Key) Layer() int { return int(k >> (keyQubitBits + keyPauliBits)) }

// Trial is one Monte Carlo error-injection trial.
type Trial struct {
	// ID is the trial's index in generation order; it survives
	// reordering so results can be matched across simulators.
	ID int
	// Inj is the packed injection list, sorted ascending (layer-major).
	Inj []Key
	// MeasFlips is the readout-error bitmask over classical bits: bit i
	// set means classical bit i is flipped after sampling.
	MeasFlips uint64
	// SampleU is the pre-drawn uniform in [0,1) used to sample the
	// terminal measurement outcome from the final state's distribution.
	SampleU float64
}

// NumErrors returns the number of injected errors.
func (t *Trial) NumErrors() int { return len(t.Inj) }

// Injections returns the unpacked injection list.
func (t *Trial) Injections() []Injection {
	out := make([]Injection, len(t.Inj))
	for i, k := range t.Inj {
		out[i] = k.Unpack()
	}
	return out
}

// String renders the trial compactly, e.g. "t42[X@L1.q0 Z@L3.q2]".
func (t *Trial) String() string {
	parts := make([]string, len(t.Inj))
	for i, k := range t.Inj {
		parts[i] = k.Unpack().String()
	}
	return fmt.Sprintf("t%d[%s]", t.ID, strings.Join(parts, " "))
}

// Compare orders two trials by their injection sequences: element-wise by
// packed key, with a trial that exhausts its list ordering AFTER one that
// has more injections at the point of divergence.
//
// The "exhausted sorts last" convention is load-bearing: at every level of
// Algorithm 1's recursion, the trials with no further errors are exactly
// the ones served by the error-free frontier state after all error groups
// have been spawned, so placing them last lets the frontier advance to the
// circuit end once, with no extra stored snapshot (Section IV-B's
// walkthrough of Figure 2 executes the error-free trial via the same
// frontier that produced S1 and S2).
func Compare(a, b *Trial) int {
	n := len(a.Inj)
	if len(b.Inj) < n {
		n = len(b.Inj)
	}
	for i := 0; i < n; i++ {
		switch {
		case a.Inj[i] < b.Inj[i]:
			return -1
		case a.Inj[i] > b.Inj[i]:
			return 1
		}
	}
	switch {
	case len(a.Inj) == len(b.Inj):
		return 0
	case len(a.Inj) < len(b.Inj):
		return 1 // shorter (exhausted) sorts last
	default:
		return -1
	}
}

// SharedLayers returns the number of leading gate layers whose computation
// two trials share: the layer of the first differing injection. Two trials
// share the state after layers 0..L-1 iff their injections at layers < L
// are identical. The second return reports whether the trials are fully
// identical (share everything including the final state).
func SharedLayers(a, b *Trial) (layers int, identical bool) {
	n := len(a.Inj)
	if len(b.Inj) < n {
		n = len(b.Inj)
	}
	for i := 0; i < n; i++ {
		if a.Inj[i] != b.Inj[i] {
			la := a.Inj[i].Layer()
			lb := b.Inj[i].Layer()
			if lb < la {
				return lb, false
			}
			return la, false
		}
	}
	if len(a.Inj) == len(b.Inj) {
		return math.MaxInt, true
	}
	if len(a.Inj) > len(b.Inj) {
		return a.Inj[n].Layer(), false
	}
	return b.Inj[n].Layer(), false
}

// ErrorMode selects how error-injection opportunities map onto gates.
type ErrorMode int

// Error-injection modes.
const (
	// PerGate follows the paper's Figure 3 literally: one error operator
	// E is injected after each gate with the gate's error probability.
	// For a single-qubit gate E is one of {X, Y, Z} (equal weight); for a
	// two-qubit gate E is drawn uniformly from the 15 non-identity
	// two-qubit Pauli pairs, yielding one or two injected single-qubit
	// Paulis at the same layer.
	PerGate ErrorMode = iota
	// PerQubit injects independently on each qubit a gate touches, each
	// with the gate's error probability — a slightly denser model some
	// simulators use; provided for ablation.
	PerQubit
)

// String names the mode.
func (m ErrorMode) String() string {
	switch m {
	case PerGate:
		return "per-gate"
	case PerQubit:
		return "per-qubit"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// slot is one error-injection opportunity at the end of a gate's layer.
// For single-qubit gates (and PerQubit mode) qubit1 is -1 and the slot
// injects one Pauli on qubit0; for PerGate two-qubit slots the injection
// is a two-qubit Pauli over (qubit0, qubit1).
type slot struct {
	layer  int
	qubit0 int
	qubit1 int // -1 for single-qubit slots
	prob   float64
}

// Generator samples trials for a fixed (circuit, noise model) pair. The
// slot table is precomputed once; each Sample call walks it with a
// thinning-accelerated geometric skip, so generation cost scales with the
// expected number of errors rather than the number of slots — the property
// that makes the paper's 10^6-trial scalability runs practical.
type Generator struct {
	circ    *circuit.Circuit
	model   *noise.Model
	mode    ErrorMode
	slots   []slot
	maxProb float64
	// lnq is math.Log1p(-maxProb), the geometric skip's denominator.
	lnq float64
	// measured qubits, their readout error rates, and the classical bit
	// each writes, ordered by classical bit
	measQubit []int
	measProb  []float64
	measBits  []int
}

// NewGenerator precomputes the slot table with the paper's per-gate error
// model (see PerGate). The model must cover at least the circuit's qubit
// count.
func NewGenerator(c *circuit.Circuit, m *noise.Model) (*Generator, error) {
	return NewGeneratorMode(c, m, PerGate)
}

// NewGeneratorMode is NewGenerator with an explicit error-injection mode.
func NewGeneratorMode(c *circuit.Circuit, m *noise.Model, mode ErrorMode) (*Generator, error) {
	if m.NumQubits() < c.NumQubits() {
		return nil, fmt.Errorf("trial: model covers %d qubits, circuit needs %d", m.NumQubits(), c.NumQubits())
	}
	if c.NumLayers() > keyLayerMax || c.NumQubits() > keyQubitMax {
		return nil, fmt.Errorf("trial: circuit too large to pack (%d layers, %d qubits)", c.NumLayers(), c.NumQubits())
	}
	// An op has at most one slot per qubit and a layer at most one idle
	// slot per qubit, which bounds the slot table.
	size := 0
	for _, op := range c.Ops() {
		size += len(op.Qubits)
	}
	var busy []bool
	if m.HasIdleErrors() {
		busy = make([]bool, c.NumQubits())
		size += c.NumLayers() * c.NumQubits()
	}
	g := &Generator{circ: c, model: m, mode: mode, slots: make([]slot, 0, size)}
	for l, idx := range c.Layers() {
		start := len(g.slots)
		for _, i := range idx {
			op := c.Op(i)
			switch {
			case len(op.Qubits) == 1:
				g.slots = append(g.slots, slot{layer: l, qubit0: op.Qubits[0], qubit1: -1, prob: m.Single(op.Qubits[0])})
			case len(op.Qubits) == 2 && mode == PerGate:
				p := m.Two(op.Qubits[0], op.Qubits[1])
				a, b := op.Qubits[0], op.Qubits[1]
				if a > b {
					a, b = b, a
				}
				g.slots = append(g.slots, slot{layer: l, qubit0: a, qubit1: b, prob: p})
			case len(op.Qubits) == 2:
				p := m.Two(op.Qubits[0], op.Qubits[1])
				g.slots = append(g.slots,
					slot{layer: l, qubit0: op.Qubits[0], qubit1: -1, prob: p},
					slot{layer: l, qubit0: op.Qubits[1], qubit1: -1, prob: p})
			default:
				// Multi-qubit gates should be decomposed before noisy
				// simulation; model them as independent per-qubit errors
				// so a direct run is still conservative.
				for _, q := range op.Qubits {
					g.slots = append(g.slots, slot{layer: l, qubit0: q, qubit1: -1, prob: m.GateQubitError(len(op.Qubits), q, op.Qubits[0])})
				}
			}
		}
		// Idle errors: a slot on every qubit no gate touched this layer
		// (position-independent noise, Section III-B1's "could appear at
		// any place across the quantum circuit").
		if busy != nil {
			clear(busy)
			for _, i := range idx {
				for _, q := range c.Op(i).Qubits {
					busy[q] = true
				}
			}
			for q, b := range busy {
				if !b && m.Idle(q) > 0 {
					g.slots = append(g.slots, slot{layer: l, qubit0: q, qubit1: -1, prob: m.Idle(q)})
				}
			}
		}
		// Canonical order within a layer is by first qubit; gates in one
		// layer never share a qubit, so this is a total order.
		slices.SortFunc(g.slots[start:], func(a, b slot) int { return a.qubit0 - b.qubit0 })
	}
	for _, s := range g.slots {
		if s.prob > g.maxProb {
			g.maxProb = s.prob
		}
	}
	g.lnq = math.Log1p(-g.maxProb)
	ms := slices.Clone(c.Measurements())
	slices.SortFunc(ms, func(a, b circuit.Measurement) int { return a.Bit - b.Bit })
	if len(ms) > 64 {
		return nil, fmt.Errorf("trial: %d measured bits exceed the 64-bit flip mask", len(ms))
	}
	g.measQubit = make([]int, len(ms))
	g.measProb = make([]float64, len(ms))
	g.measBits = make([]int, len(ms))
	for i, mm := range ms {
		g.measQubit[i] = mm.Qubit
		g.measProb[i] = m.Measure(mm.Qubit)
		g.measBits[i] = mm.Bit
	}
	return g, nil
}

// NumSlots returns the number of error-injection opportunities per trial.
func (g *Generator) NumSlots() int { return len(g.slots) }

// Mode returns the generator's error-injection mode.
func (g *Generator) Mode() ErrorMode { return g.mode }

// ExpectedErrors returns the expected number of injected Pauli operators
// per trial. A firing two-qubit slot contributes 1.6 operators on average
// (uniform over the 15 non-identity pairs: 6 single-sided + 9 double).
func (g *Generator) ExpectedErrors() float64 {
	var s float64
	for _, sl := range g.slots {
		if sl.qubit1 >= 0 {
			s += sl.prob * 24.0 / 15.0
		} else {
			s += sl.prob
		}
	}
	return s
}

// Sample draws one trial with the given ID from rng.
func (g *Generator) Sample(rng *rand.Rand, id int) *Trial {
	t := &Trial{}
	g.sample(rng, id, t, nil)
	return t
}

// sample draws trial id from rng into t. Its injections are appended to
// arena, and t.Inj is the cap-limited tail they occupy (nil when none
// fired), so an append to t.Inj copies rather than overwriting whatever
// the arena holds next. It returns the grown arena.
func (g *Generator) sample(rng *rand.Rand, id int, t *Trial, arena []Key) []Key {
	t.ID = id
	start := len(arena)
	// Single-qubit slots fire in slot order, which is key order; only a
	// pair slot's second injection can land out of order.
	paired := false
	if g.maxProb > 0 {
		if g.maxProb >= 1 {
			// Degenerate model: walk every slot directly.
			for i := range g.slots {
				sl := &g.slots[i]
				if rng.Float64() < sl.prob {
					arena = g.fire(rng, arena, sl)
					paired = paired || sl.qubit1 >= 0
				}
			}
		} else {
			// Thinning: jump geometrically with the maximal slot
			// probability, then accept each candidate with prob/maxProb.
			// Expected work is O(expected errors / min acceptance) rather
			// than O(slots).
			i := 0
			for {
				u := rng.Float64()
				if u == 0 {
					u = math.SmallestNonzeroFloat64
				}
				i += int(math.Log(u) / g.lnq)
				if i >= len(g.slots) {
					break
				}
				sl := &g.slots[i]
				if sl.prob == g.maxProb || rng.Float64()*g.maxProb < sl.prob {
					arena = g.fire(rng, arena, sl)
					paired = paired || sl.qubit1 >= 0
				}
				i++
			}
		}
	}
	if paired {
		// A pair slot's second-qubit injection can interleave with later
		// slots of the same layer; restore canonical order.
		slices.Sort(arena[start:])
	}
	if end := len(arena); end > start {
		t.Inj = arena[start:end:end]
	}
	for i, p := range g.measProb {
		if p > 0 && rng.Float64() < p {
			t.MeasFlips |= 1 << uint(g.measBits[i])
		}
	}
	t.SampleU = rng.Float64()
	return arena
}

// fire appends the Pauli operator(s) of a firing slot to inj.
func (g *Generator) fire(rng *rand.Rand, inj []Key, sl *slot) []Key {
	if sl.qubit1 < 0 {
		return append(inj, Pack(sl.layer, sl.qubit0, gate.Pauli(rng.Intn(3))))
	}
	// Uniform over the 15 non-identity two-qubit Paulis: v in 1..15,
	// high two bits for qubit0's operator, low two for qubit1's
	// (0 = identity, 1..3 = X, Y, Z).
	v := 1 + rng.Intn(15)
	if p0 := v >> 2; p0 != 0 {
		inj = append(inj, Pack(sl.layer, sl.qubit0, gate.Pauli(p0-1)))
	}
	if p1 := v & 3; p1 != 0 {
		inj = append(inj, Pack(sl.layer, sl.qubit1, gate.Pauli(p1-1)))
	}
	return inj
}

// Generate draws n trials with IDs 0..n-1, identical to n Sample calls
// on rng. The trials live in one slab and their injections in one shared
// arena, so generation allocates per run rather than per trial; each
// trial's Inj is cap-limited, so appending to it never disturbs another
// trial.
func (g *Generator) Generate(rng *rand.Rand, n int) []*Trial {
	slab := make([]Trial, n)
	out := make([]*Trial, n)
	// Size the arena for the expected injections plus headroom. A run
	// that outgrows it moves on to a larger copy; the trials drawn before
	// keep their keys in the old array.
	arena := make([]Key, 0, int(float64(n)*g.ExpectedErrors()*1.25)+64)
	for i := range slab {
		arena = g.sample(rng, i, &slab[i], arena)
		out[i] = &slab[i]
	}
	return out
}

// Circuit returns the generator's circuit.
func (g *Generator) Circuit() *circuit.Circuit { return g.circ }

// Model returns the generator's noise model.
func (g *Generator) Model() *noise.Model { return g.model }

// Stats summarizes a trial set: counts by number of injected errors and
// the share of exact-duplicate trials, the quantities that determine how
// much redundancy the reorder scheme can harvest.
type Stats struct {
	Trials        int
	TotalErrors   int
	MaxErrors     int
	ErrorFree     int
	MeanErrors    float64
	DistinctSeqs  int
	DuplicateRate float64 // fraction of trials sharing an injection sequence with an earlier one
}

// Summarize computes Stats for a trial set in any order.
func Summarize(trials []*Trial) Stats {
	sorted := slices.Clone(trials)
	slices.SortFunc(sorted, Compare)
	return SummarizeSorted(sorted)
}

// SummarizeSorted computes Stats for a trial set sorted by Compare (the
// reorder order), where equal injection sequences are adjacent, so it
// counts distinct sequences without hashing them.
func SummarizeSorted(sorted []*Trial) Stats {
	st := Stats{Trials: len(sorted)}
	for i, t := range sorted {
		st.TotalErrors += len(t.Inj)
		st.MaxErrors = max(st.MaxErrors, len(t.Inj))
		if len(t.Inj) == 0 {
			st.ErrorFree++
		}
		if i == 0 || !slices.Equal(sorted[i-1].Inj, t.Inj) {
			st.DistinctSeqs++
		}
	}
	if st.Trials > 0 {
		st.MeanErrors = float64(st.TotalErrors) / float64(st.Trials)
		st.DuplicateRate = float64(st.Trials-st.DistinctSeqs) / float64(st.Trials)
	}
	return st
}
