// Package transpile maps logical circuits onto a device: it decomposes
// gates outside the {single-qubit, CNOT} basis and inserts SWAP chains
// (each three CNOTs) so that every CNOT lands on a coupled qubit pair.
//
// It stands in for the Enfield compiler the paper uses to map the Table I
// benchmarks onto IBM's 5-qubit Yorktown chip ("All the benchmarks are
// compiled and mapped to this IBM's 5-qubit device with the Enfield
// compiler"). The routing heuristic is deliberately simple — BFS shortest
// path on the coupling graph, moving the control toward the target — since
// the paper's metrics depend only on the layered structure of the mapped
// circuit, not on which router produced it.
package transpile

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/gate"
)

// Result carries a mapped circuit and the bookkeeping a caller may want to
// report: how many SWAPs were inserted and the final logical-to-physical
// qubit assignment.
type Result struct {
	Circuit *circuit.Circuit
	// SwapsInserted counts routing SWAPs (3 CNOTs each).
	SwapsInserted int
	// FinalLayout maps logical qubit -> physical qubit at circuit end.
	FinalLayout []int
}

// ToDevice decomposes and routes c onto d. The device must have at least
// as many qubits as the circuit and a connected coupling graph over the
// qubits the circuit uses.
func ToDevice(c *circuit.Circuit, d *device.Device) (*Result, error) {
	if c.NumQubits() > d.NumQubits() {
		return nil, fmt.Errorf("transpile: circuit needs %d qubits, device %q has %d", c.NumQubits(), d.Name(), d.NumQubits())
	}
	dec, err := Decompose(c)
	if err != nil {
		return nil, err
	}
	return route(dec, d)
}

// Decompose rewrites c into the {single-qubit, CX} basis: CZ via H
// conjugation, SWAP as 3 CX, CCX via the standard 6-CX template. Gates
// already in the basis pass through unchanged. Custom multi-qubit
// unitaries are rejected — synthesizing arbitrary unitaries is outside
// this reproduction's scope.
func Decompose(c *circuit.Circuit) (*circuit.Circuit, error) {
	out := circuit.New(c.Name(), c.NumQubits())
	nops, nqubits := 0, 0
	for _, op := range c.Ops() {
		o, q := decomposedSize(op)
		nops, nqubits = nops+o, nqubits+q
	}
	out.Grow(nops, nqubits)
	for _, op := range c.Ops() {
		switch op.Gate.Kind() {
		case gate.KindCZ:
			t := op.Qubits[1]
			out.Append(gate.H(), t)
			out.Append(gate.CX(), op.Qubits[0], t)
			out.Append(gate.H(), t)
		case gate.KindSwap:
			a, b := op.Qubits[0], op.Qubits[1]
			out.Append(gate.CX(), a, b)
			out.Append(gate.CX(), b, a)
			out.Append(gate.CX(), a, b)
		case gate.KindCCX:
			appendCCX(out, op.Qubits[0], op.Qubits[1], op.Qubits[2])
		case gate.KindCustom:
			if op.Gate.Qubits() > 1 {
				return nil, fmt.Errorf("transpile: cannot decompose custom %d-qubit gate %q", op.Gate.Qubits(), op.Gate.Name())
			}
			out.Append(op.Gate, op.Qubits...)
		default:
			if op.Gate.Qubits() > 2 {
				return nil, fmt.Errorf("transpile: unsupported %d-qubit gate %q", op.Gate.Qubits(), op.Gate.Name())
			}
			out.Append(op.Gate, op.Qubits...)
		}
	}
	for _, m := range c.Measurements() {
		out.Measure(m.Qubit, m.Bit)
	}
	return out, nil
}

// decomposedSize returns how many ops Decompose emits for op, and how
// many qubit indices those ops hold between them.
func decomposedSize(op circuit.Op) (ops, qubits int) {
	switch op.Gate.Kind() {
	case gate.KindCZ:
		return 3, 4
	case gate.KindSwap:
		return 3, 6
	case gate.KindCCX:
		return 15, 21
	}
	return 1, len(op.Qubits)
}

// appendCCX emits the standard 6-CX Toffoli decomposition.
func appendCCX(c *circuit.Circuit, a, b, t int) {
	c.Append(gate.H(), t)
	c.Append(gate.CX(), b, t)
	c.Append(gate.Tdg(), t)
	c.Append(gate.CX(), a, t)
	c.Append(gate.T(), t)
	c.Append(gate.CX(), b, t)
	c.Append(gate.Tdg(), t)
	c.Append(gate.CX(), a, t)
	c.Append(gate.T(), b)
	c.Append(gate.T(), t)
	c.Append(gate.H(), t)
	c.Append(gate.CX(), a, b)
	c.Append(gate.T(), a)
	c.Append(gate.Tdg(), b)
	c.Append(gate.CX(), a, b)
}

// initialLayout chooses the starting logical-to-physical assignment by
// interaction-degree matching: the logical qubit that talks to the most
// partners lands on the physical qubit with the most coupling neighbors
// (e.g. Bernstein-Vazirani's ancilla onto Yorktown's center qubit), which
// is the placement heuristic that lets Enfield map the paper's benchmarks
// with few or no SWAPs.
func initialLayout(c *circuit.Circuit, d *device.Device) []int {
	nl := c.NumQubits()
	np := d.NumQubits()
	// Weighted interaction degree per logical qubit.
	weight := make([]int, nl)
	for _, op := range c.Ops() {
		if len(op.Qubits) == 2 {
			weight[op.Qubits[0]]++
			weight[op.Qubits[1]]++
		}
	}
	logical := make([]int, nl)
	for i := range logical {
		logical[i] = i
	}
	sort.SliceStable(logical, func(a, b int) bool { return weight[logical[a]] > weight[logical[b]] })

	physical := make([]int, np)
	for i := range physical {
		physical[i] = i
	}
	sort.SliceStable(physical, func(a, b int) bool {
		return len(d.Neighbors(physical[a])) > len(d.Neighbors(physical[b]))
	})

	l2p := make([]int, np)
	used := make([]bool, np)
	for i, lq := range logical {
		l2p[lq] = physical[i]
		used[physical[i]] = true
	}
	// Unused logical slots (beyond the circuit width) take the remaining
	// physical qubits in order.
	next := 0
	for lq := nl; lq < np; lq++ {
		for used[physical[next]] {
			next++
		}
		l2p[lq] = physical[next]
		used[physical[next]] = true
	}
	return l2p
}

// route inserts SWAPs so every CX lands on a coupling edge. It scores
// the identity and the degree-matched initial layouts by the SWAPs each
// would insert, without emitting ops, and builds the routed circuit once
// from the winner. The degree-matched layout wins only on strictly fewer
// SWAPs (different benchmarks favor different placements: interaction
// stars want the hub on the center qubit, swap chains want the line).
func route(c *circuit.Circuit, d *device.Device) (*Result, error) {
	r := newRouter(d)
	best := make([]int, d.NumQubits())
	for i := range best {
		best[i] = i
	}
	swaps, err := r.walk(c, best, nil)
	if err != nil {
		return nil, err
	}
	alt := initialLayout(c, d)
	altSwaps, err := r.walk(c, alt, nil)
	if err != nil {
		return nil, err
	}
	if altSwaps < swaps {
		best, swaps = alt, altSwaps
	}
	nqubits := 0
	for _, op := range c.Ops() {
		nqubits += len(op.Qubits)
	}
	out := circuit.New(c.Name(), d.NumQubits())
	out.Grow(c.NumOps()+3*swaps, nqubits+6*swaps)
	if _, err := r.walk(c, best, out); err != nil {
		return nil, err
	}
	for _, m := range c.Measurements() {
		out.Measure(r.l2p[m.Qubit], m.Bit)
	}
	return &Result{Circuit: out, SwapsInserted: swaps, FinalLayout: r.l2p}, nil
}

// router holds the layouts and the path-search scratch of routing onto
// one device, sized once for every walk.
type router struct {
	d        *device.Device
	l2p, p2l []int // logical -> physical and physical -> logical
	prev     []int // BFS predecessor per physical qubit
	queue    []int // BFS queue
	path     []int // the last path found
}

func newRouter(d *device.Device) *router {
	n := d.NumQubits()
	return &router{
		d:   d,
		l2p: make([]int, n), p2l: make([]int, n), prev: make([]int, n),
		queue: make([]int, 0, n), path: make([]int, 0, n),
	}
}

// walk routes c from the starting layout start (start[logical] =
// physical) and returns how many SWAPs it inserts. A nil out only
// counts; otherwise the routed ops are appended to out. Afterwards r.l2p
// is the final layout.
func (r *router) walk(c *circuit.Circuit, start []int, out *circuit.Circuit) (int, error) {
	copy(r.l2p, start)
	for lq, pq := range r.l2p {
		r.p2l[pq] = lq
	}
	swaps := 0
	for _, op := range c.Ops() {
		switch op.Gate.Qubits() {
		case 1:
			if out != nil {
				out.Append(op.Gate, r.l2p[op.Qubits[0]])
			}
		case 2:
			pa, pb := r.l2p[op.Qubits[0]], r.l2p[op.Qubits[1]]
			if !r.d.Coupled(pa, pb) {
				path, err := r.shortestPath(pa, pb)
				if err != nil {
					return 0, fmt.Errorf("transpile: routing %s: %v", op, err)
				}
				// Walk the control along the path until adjacent to the
				// target.
				for i := 0; i+2 < len(path); i++ {
					r.swap(path[i], path[i+1], out)
					swaps++
				}
				pa, pb = r.l2p[op.Qubits[0]], r.l2p[op.Qubits[1]]
				if !r.d.Coupled(pa, pb) {
					return 0, fmt.Errorf("transpile: internal routing error for %s", op)
				}
			}
			if out != nil {
				out.Append(op.Gate, pa, pb)
			}
		default:
			return 0, fmt.Errorf("transpile: gate %q survived decomposition with %d qubits", op.Gate.Name(), op.Gate.Qubits())
		}
	}
	return swaps, nil
}

// swap exchanges the logical qubits on physical qubits pa and pb,
// appending the SWAP's three CX to out unless out is nil.
func (r *router) swap(pa, pb int, out *circuit.Circuit) {
	if out != nil {
		out.Append(gate.CX(), pa, pb)
		out.Append(gate.CX(), pb, pa)
		out.Append(gate.CX(), pa, pb)
	}
	la, lb := r.p2l[pa], r.p2l[pb]
	r.l2p[la], r.l2p[lb] = pb, pa
	r.p2l[pa], r.p2l[pb] = lb, la
}

// shortestPath returns a BFS shortest path between physical qubits a and
// b on the coupling graph, inclusive of both endpoints. The path is the
// router's scratch, valid until the next call.
func (r *router) shortestPath(a, b int) ([]int, error) {
	path := r.path[:0]
	if a == b {
		return append(path, a), nil
	}
	for i := range r.prev {
		r.prev[i] = -1
	}
	r.prev[a] = a
	queue := append(r.queue[:0], a)
	for head := 0; head < len(queue); head++ {
		for _, nb := range r.d.Neighbors(queue[head]) {
			if r.prev[nb] != -1 {
				continue
			}
			r.prev[nb] = queue[head]
			if nb == b {
				for cur := b; cur != a; cur = r.prev[cur] {
					path = append(path, cur)
				}
				path = append(path, a)
				slices.Reverse(path)
				return path, nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("no path between physical qubits %d and %d", a, b)
}
