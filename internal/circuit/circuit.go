// Package circuit provides the quantum circuit intermediate representation
// shared by the whole simulator: operations applied to qubits, final
// measurements, the ASAP layering that the paper's error-injection model is
// defined over, and an OpenQASM 2.0 subset parser and printer.
//
// The paper (Section IV-B) divides the simulated circuit into layers "in
// which any two quantum operations are not applied to the same qubit" and
// injects error operators only at layer boundaries. Layering is therefore a
// first-class operation here: Circuit.Layers computes the ASAP schedule that
// both the noise model and the trial planner key off.
package circuit

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/gate"
)

// Op is a single gate application: a gate and the qubit indices it acts on,
// in gate order (e.g. control first for CX).
type Op struct {
	Gate   gate.Gate
	Qubits []int
}

// String renders the op as QASM-like text, e.g. "cx q[0],q[2]".
func (o Op) String() string {
	parts := make([]string, len(o.Qubits))
	for i, q := range o.Qubits {
		parts[i] = fmt.Sprintf("q[%d]", q)
	}
	return o.Gate.String() + " " + strings.Join(parts, ",")
}

// Measurement maps a qubit to the classical bit receiving its readout.
type Measurement struct {
	Qubit int
	Bit   int
}

// Layering selects the scheduling policy Layers uses to group operations.
type Layering int

// Layering policies.
const (
	// ASAP schedules each op in the earliest layer after its
	// dependencies — the default, matching the paper's layer definition.
	ASAP Layering = iota
	// ALAP schedules each op in the latest layer that still respects its
	// dependents, without increasing the circuit depth. Error-injection
	// positions sit at layer boundaries, so the policy shifts where
	// trials can diverge; the ablation benches quantify the effect.
	ALAP
)

// String names the policy.
func (l Layering) String() string {
	switch l {
	case ASAP:
		return "asap"
	case ALAP:
		return "alap"
	default:
		return fmt.Sprintf("layering(%d)", int(l))
	}
}

// Circuit is a straight-line quantum program: a fixed-width register of
// qubits, a sequence of gate applications, and a set of terminal
// measurements. Mid-circuit measurement is not modeled — none of the
// paper's benchmarks use it and the Monte Carlo scheme assumes terminal
// readout.
type Circuit struct {
	name     string
	nqubits  int
	nbits    int
	ops      []Op
	measures []Measurement
	// qarena is the free tail of the block Append carves each op's
	// Qubits from, as a capacity-limited slice.
	qarena []int

	layering    Layering
	layersDirty bool
	layers      [][]int // op indices per layer
	opLayer     []int   // layer index per op
}

// New returns an empty circuit over n qubits and n classical bits named
// name. It panics if n <= 0.
func New(name string, n int) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: invalid qubit count %d", n))
	}
	return &Circuit{name: name, nqubits: n, nbits: n, layersDirty: true}
}

// Name returns the circuit's name.
func (c *Circuit) Name() string { return c.name }

// SetName renames the circuit.
func (c *Circuit) SetName(name string) { c.name = name }

// NumQubits returns the register width.
func (c *Circuit) NumQubits() int { return c.nqubits }

// NumBits returns the classical register width.
func (c *Circuit) NumBits() int { return c.nbits }

// NumOps returns the number of gate applications.
func (c *Circuit) NumOps() int { return len(c.ops) }

// Ops returns the circuit's operations. The slice is shared; treat it as
// read-only.
func (c *Circuit) Ops() []Op { return c.ops }

// Op returns the i-th operation.
func (c *Circuit) Op(i int) Op { return c.ops[i] }

// Measurements returns the terminal measurements in program order. The
// slice is shared; treat it as read-only.
func (c *Circuit) Measurements() []Measurement { return c.measures }

// Append adds a gate application. Qubit indices must be distinct and in
// range, and their count must match the gate's arity. The op's Qubits is
// a capacity-limited slice of a block shared with other ops, so an append
// to it reallocates rather than overwriting a neighbour.
func (c *Circuit) Append(g gate.Gate, qubits ...int) *Circuit {
	if len(qubits) != g.Qubits() {
		panic(fmt.Sprintf("circuit: gate %q wants %d qubits, got %d", g.Name(), g.Qubits(), len(qubits)))
	}
	for i, q := range qubits {
		if q < 0 || q >= c.nqubits {
			panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.nqubits))
		}
		if slices.Contains(qubits[:i], q) {
			panic(fmt.Sprintf("circuit: duplicate qubit %d in %q application", q, g.Name()))
		}
	}
	if cap(c.qarena)-len(c.qarena) < len(qubits) {
		c.qarena = make([]int, 0, max(2*cap(c.qarena), len(qubits), minArena))
	}
	c.ops = append(c.ops, Op{Gate: g, Qubits: c.carve(qubits)})
	c.layersDirty = true
	return c
}

// minArena is the smallest qubit block an unsized Append allocates.
const minArena = 32

// carve copies qubits to the arena's free tail, which must have room, and
// returns the copy with its capacity cut to its length.
func (c *Circuit) carve(qubits []int) []int {
	n := len(c.qarena)
	c.qarena = append(c.qarena, qubits...)
	return c.qarena[n:len(c.qarena):len(c.qarena)]
}

// Grow makes room for ops more operations with qubits more qubit indices
// between them, so that Appends within those counts allocate nothing.
func (c *Circuit) Grow(ops, qubits int) {
	c.ops = slices.Grow(c.ops, ops)
	if cap(c.qarena)-len(c.qarena) < qubits {
		c.qarena = make([]int, 0, qubits)
	}
}

// Measure records a terminal measurement of qubit into classical bit.
// Measuring the same qubit or writing the same bit twice is an error.
func (c *Circuit) Measure(qubit, bit int) *Circuit {
	if qubit < 0 || qubit >= c.nqubits {
		panic(fmt.Sprintf("circuit: measured qubit %d out of range [0,%d)", qubit, c.nqubits))
	}
	if bit < 0 || bit >= c.nbits {
		panic(fmt.Sprintf("circuit: classical bit %d out of range [0,%d)", bit, c.nbits))
	}
	for _, m := range c.measures {
		if m.Qubit == qubit {
			panic(fmt.Sprintf("circuit: qubit %d measured twice", qubit))
		}
		if m.Bit == bit {
			panic(fmt.Sprintf("circuit: classical bit %d written twice", bit))
		}
	}
	c.measures = append(c.measures, Measurement{Qubit: qubit, Bit: bit})
	return c
}

// MeasureAll measures every qubit i into bit i.
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.nqubits; q++ {
		c.Measure(q, q)
	}
	return c
}

// CountGates returns (single-qubit, two-qubit, three-or-more-qubit) gate
// counts, the columns Table I of the paper reports.
func (c *Circuit) CountGates() (single, double, multi int) {
	for _, op := range c.ops {
		switch op.Gate.Qubits() {
		case 1:
			single++
		case 2:
			double++
		default:
			multi++
		}
	}
	return single, double, multi
}

// Layers returns the ASAP layering: a slice of layers, each a slice of op
// indices, such that no two ops in one layer touch the same qubit and each
// op is placed in the earliest layer after all earlier ops on its qubits.
// The result is cached and invalidated by Append.
func (c *Circuit) Layers() [][]int {
	c.ensureLayers()
	return c.layers
}

// NumLayers returns the circuit depth in layers.
func (c *Circuit) NumLayers() int {
	c.ensureLayers()
	return len(c.layers)
}

// OpLayer returns the layer index assigned to op i.
func (c *Circuit) OpLayer(i int) int {
	c.ensureLayers()
	return c.opLayer[i]
}

// LayerOps returns the operations scheduled in layer l.
func (c *Circuit) LayerOps(l int) []Op {
	c.ensureLayers()
	idx := c.layers[l]
	ops := make([]Op, len(idx))
	for i, j := range idx {
		ops[i] = c.ops[j]
	}
	return ops
}

// SetLayering selects the scheduling policy and invalidates the cached
// layering. The default is ASAP.
func (c *Circuit) SetLayering(l Layering) {
	if l != c.layering {
		c.layering = l
		c.layersDirty = true
	}
}

// LayeringPolicy returns the active scheduling policy.
func (c *Circuit) LayeringPolicy() Layering { return c.layering }

func (c *Circuit) ensureLayers() {
	if !c.layersDirty {
		return
	}
	c.opLayer = make([]int, len(c.ops))
	frontier := make([]int, c.nqubits) // earliest free layer per qubit
	depth := 0
	for i, op := range c.ops {
		l := 0
		for _, q := range op.Qubits {
			if frontier[q] > l {
				l = frontier[q]
			}
		}
		c.opLayer[i] = l
		for _, q := range op.Qubits {
			frontier[q] = l + 1
		}
		if l+1 > depth {
			depth = l + 1
		}
	}
	if c.layering == ALAP && len(c.ops) > 0 {
		// Reverse pass: push each op to the latest layer its dependents
		// allow, holding the ASAP depth fixed.
		deadline := make([]int, c.nqubits)
		for q := range deadline {
			deadline[q] = depth
		}
		for i := len(c.ops) - 1; i >= 0; i-- {
			l := depth
			for _, q := range c.ops[i].Qubits {
				if deadline[q] < l {
					l = deadline[q]
				}
			}
			l--
			c.opLayer[i] = l
			for _, q := range c.ops[i].Qubits {
				deadline[q] = l
			}
		}
	}
	// The op indices of every layer, in op order, share one slab: a
	// counting sort by layer, filled from the back. Each layer is a
	// cap-limited window of it, so layering allocates the same few
	// slices at any depth.
	start := make([]int, depth) // where each layer ends, then where it starts
	for _, l := range c.opLayer {
		start[l]++
	}
	for l := 1; l < depth; l++ {
		start[l] += start[l-1]
	}
	slab := make([]int, len(c.ops))
	for i := len(c.ops) - 1; i >= 0; i-- {
		l := c.opLayer[i]
		start[l]--
		slab[start[l]] = i
	}
	c.layers = make([][]int, depth)
	for l := range c.layers {
		end := len(slab)
		if l+1 < depth {
			end = start[l+1]
		}
		c.layers[l] = slab[start[l]:end:end]
	}
	c.layersDirty = false
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	cp := New(c.name, c.nqubits)
	cp.nbits = c.nbits
	cp.layering = c.layering
	cp.ops = make([]Op, len(c.ops))
	nq := 0
	for _, op := range c.ops {
		nq += len(op.Qubits)
	}
	cp.qarena = make([]int, 0, nq)
	for i, op := range c.ops {
		cp.ops[i] = Op{Gate: op.Gate, Qubits: cp.carve(op.Qubits)}
	}
	cp.measures = make([]Measurement, len(c.measures))
	copy(cp.measures, c.measures)
	return cp
}

// String renders a compact textual listing of the circuit.
func (c *Circuit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit %q: %d qubits, %d ops, %d layers\n", c.name, c.nqubits, len(c.ops), c.NumLayers())
	for l, idx := range c.Layers() {
		fmt.Fprintf(&sb, "  L%d:", l)
		for _, i := range idx {
			sb.WriteString(" " + c.ops[i].String() + ";")
		}
		sb.WriteString("\n")
	}
	for _, m := range c.measures {
		fmt.Fprintf(&sb, "  measure q[%d] -> c[%d];\n", m.Qubit, m.Bit)
	}
	return sb.String()
}

// Validate checks structural invariants and returns a descriptive error if
// any is violated. Construction already enforces these; Validate exists for
// circuits arriving from the QASM parser or external builders.
func (c *Circuit) Validate() error {
	if c.nqubits <= 0 {
		return fmt.Errorf("circuit %q: nonpositive qubit count %d", c.name, c.nqubits)
	}
	for i, op := range c.ops {
		if len(op.Qubits) != op.Gate.Qubits() {
			return fmt.Errorf("circuit %q: op %d (%s) arity mismatch", c.name, i, op.Gate.Name())
		}
		seen := make(map[int]bool)
		for _, q := range op.Qubits {
			if q < 0 || q >= c.nqubits {
				return fmt.Errorf("circuit %q: op %d qubit %d out of range", c.name, i, q)
			}
			if seen[q] {
				return fmt.Errorf("circuit %q: op %d duplicates qubit %d", c.name, i, q)
			}
			seen[q] = true
		}
	}
	qSeen := make(map[int]bool)
	bSeen := make(map[int]bool)
	for _, m := range c.measures {
		if m.Qubit < 0 || m.Qubit >= c.nqubits {
			return fmt.Errorf("circuit %q: measurement qubit %d out of range", c.name, m.Qubit)
		}
		if m.Bit < 0 || m.Bit >= c.nbits {
			return fmt.Errorf("circuit %q: measurement bit %d out of range", c.name, m.Bit)
		}
		if qSeen[m.Qubit] {
			return fmt.Errorf("circuit %q: qubit %d measured twice", c.name, m.Qubit)
		}
		if bSeen[m.Bit] {
			return fmt.Errorf("circuit %q: bit %d written twice", c.name, m.Bit)
		}
		qSeen[m.Qubit] = true
		bSeen[m.Bit] = true
	}
	return nil
}
