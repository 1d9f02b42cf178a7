// Package statevec implements the full state-vector quantum simulation
// engine: a 2^n-amplitude register with in-place gate application,
// measurement sampling, and the basic-operation accounting the paper's
// evaluation metric ("number of basic operations, matrix-vector
// multiplication") is defined over.
//
// Qubit 0 is the least-significant bit of the amplitude index, matching the
// little-endian convention of most state-vector simulators: amplitude index
// b_{n-1}...b_1 b_0 assigns b_q to qubit q.
package statevec

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gate"
	"repro/internal/qmath"
)

// State is a full state vector over n qubits. States are mutable and
// intended to be reused; Clone produces the snapshots the prefix cache
// stores.
type State struct {
	n   int
	amp []complex128
}

// MaxQubits is the widest register NewState and BufferPool.GetState
// allocate: a 2^30 complex128 vector is 16 GiB, the practical ceiling for
// a dynamic (amplitude-carrying) simulation on one machine; larger
// circuits go through the static analyzer which never allocates
// amplitudes.
const MaxQubits = 30

func checkWidth(n int) {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: qubit count %d outside supported range [1,%d]", n, MaxQubits))
	}
}

// NewState returns |0...0> over n qubits. It panics for n outside
// [1, MaxQubits].
func NewState(n int) *State {
	checkWidth(n)
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s
}

// FromAmplitudes builds a state from an explicit amplitude vector, which
// must have power-of-two length. The vector is copied.
func FromAmplitudes(amp []complex128) (*State, error) {
	n := qmath.Log2Dim(len(amp))
	if n < 1 {
		return nil, fmt.Errorf("statevec: amplitude vector length %d is not a power of two >= 2", len(amp))
	}
	s := &State{n: n, amp: make([]complex128, len(amp))}
	copy(s.amp, amp)
	return s, nil
}

// NumQubits returns the register width.
func (s *State) NumQubits() int { return s.n }

// Dim returns the amplitude-vector length 2^n.
func (s *State) Dim() int { return len(s.amp) }

// Amplitudes returns the underlying amplitude storage. Callers must not
// grow it; mutating amplitudes directly bypasses operation accounting and
// is reserved for tests.
func (s *State) Amplitudes() []complex128 { return s.amp }

// Amplitude returns the amplitude of basis state |index>.
func (s *State) Amplitude(index int) complex128 { return s.amp[index] }

// Clone returns a deep copy — the "stored intermediate state" of the paper.
func (s *State) Clone() *State {
	c := &State{n: s.n, amp: make([]complex128, len(s.amp))}
	copy(c.amp, s.amp)
	return c
}

// CopyFrom overwrites s with the contents of src, reusing s's storage.
// Both states must have the same width.
func (s *State) CopyFrom(src *State) {
	if s.n != src.n {
		panic(fmt.Sprintf("statevec: CopyFrom width mismatch %d vs %d", s.n, src.n))
	}
	copy(s.amp, src.amp)
}

// Reset returns s to |0...0>.
func (s *State) Reset() {
	for i := range s.amp {
		s.amp[i] = 0
	}
	s.amp[0] = 1
}

// Norm returns the L2 norm of the state (1 for a valid state).
func (s *State) Norm() float64 { return qmath.Norm(s.amp) }

// Probability returns |amp[index]|^2.
func (s *State) Probability(index int) float64 {
	a := s.amp[index]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full outcome distribution.
func (s *State) Probabilities() []float64 { return qmath.Probabilities(s.amp) }

// Fidelity returns |<s|o>|^2.
func (s *State) Fidelity(o *State) float64 { return qmath.Fidelity(s.amp, o.amp) }

// Equal reports whether the two states agree amplitude-wise within tol.
func (s *State) Equal(o *State, tol float64) bool { return qmath.VecEqual(s.amp, o.amp, tol) }

// ApplyOp applies a circuit operation to the state, dispatching to a
// specialized kernel where one exists.
func (s *State) ApplyOp(g gate.Gate, qubits ...int) {
	switch g.Qubits() {
	case 1:
		s.apply1(g, qubits[0])
	case 2:
		s.apply2(g, qubits[0], qubits[1])
	case 3:
		if g.Kind() == gate.KindCCX {
			s.applyCCXKernel(qubits[0], qubits[1], qubits[2])
			return
		}
		s.applyK(g.Matrix(), qubits)
	default:
		s.applyK(g.Matrix(), qubits)
	}
}

// diagKind reports whether a gate kind is diagonal in the computational
// basis, i.e. eligible for the phase-multiply kernel and for diagonal-run
// fusion. Z is diagonal too but keeps its dedicated negation kernel.
func diagKind(k gate.Kind) bool {
	switch k {
	case gate.KindS, gate.KindSdg, gate.KindT, gate.KindTdg,
		gate.KindRZ, gate.KindP, gate.KindU1:
		return true
	}
	return false
}

// apply1 applies a single-qubit gate to qubit q.
func (s *State) apply1(g gate.Gate, q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, s.n))
	}
	amp := s.amp
	bit := 1 << uint(q)
	units := len(amp) >> uint(q+1)
	switch k := g.Kind(); {
	case k == gate.KindI:
		return
	case k == gate.KindX:
		kernX(amp, bit, 0, units)
		return
	case k == gate.KindY:
		kernY(amp, bit, 0, units)
		return
	case k == gate.KindZ:
		kernZ(amp, bit, 0, units)
		return
	case k == gate.KindH:
		kernH(amp, bit, 0, units)
		return
	case diagKind(k):
		m := g.Matrix()
		kernDiag(amp, bit, 0, units, m.At(0, 0), m.At(1, 1))
		return
	}
	m := g.Matrix()
	kern1(amp, bit, 0, units, m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
}

func (s *State) applyXKernel(q int) {
	bit := 1 << uint(q)
	kernX(s.amp, bit, 0, len(s.amp)>>uint(q+1))
}

func (s *State) applyZKernel(q int) {
	bit := 1 << uint(q)
	kernZ(s.amp, bit, 0, len(s.amp)>>uint(q+1))
}

// apply2 applies a two-qubit gate with qubit order (q0, q1) matching the
// gate's matrix convention: the matrix index is (b0 << 1) | b1 where b0 is
// the value of q0. For CX that makes q0 the control and q1 the target.
func (s *State) apply2(g gate.Gate, q0, q1 int) {
	if q0 == q1 {
		panic(fmt.Sprintf("statevec: two-qubit gate on duplicate qubit %d", q0))
	}
	if q0 < 0 || q0 >= s.n || q1 < 0 || q1 >= s.n {
		panic(fmt.Sprintf("statevec: qubit pair (%d,%d) out of range [0,%d)", q0, q1, s.n))
	}
	amp := s.amp
	units := len(amp) >> 2
	switch g.Kind() {
	case gate.KindCX:
		kernCX(amp, 1<<uint(q0), 1<<uint(q1), 0, units)
		return
	case gate.KindCZ:
		kernCZ(amp, 1<<uint(q0), 1<<uint(q1), 0, units)
		return
	case gate.KindSwap:
		kernSwap(amp, 1<<uint(q0), 1<<uint(q1), 0, units)
		return
	}
	var m [16]complex128
	mat2Flat(g.Matrix(), &m)
	kern2(amp, 1<<uint(q0), 1<<uint(q1), 0, units, &m)
}

// mat2Flat copies a 4x4 qmath.Matrix into the flat row-major array kern2
// consumes.
func mat2Flat(m qmath.Matrix, out *[16]complex128) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			out[r*4+c] = m.At(r, c)
		}
	}
}

func (s *State) applyCXKernel(control, target int) {
	kernCX(s.amp, 1<<uint(control), 1<<uint(target), 0, len(s.amp)>>2)
}

// applyCCXKernel applies a Toffoli with controls c0, c1 and target t.
func (s *State) applyCCXKernel(c0, c1, t int) {
	if c0 == c1 || c0 == t || c1 == t {
		panic(fmt.Sprintf("statevec: CCX on duplicate qubits (%d,%d,%d)", c0, c1, t))
	}
	if c0 < 0 || c0 >= s.n || c1 < 0 || c1 >= s.n || t < 0 || t >= s.n {
		panic(fmt.Sprintf("statevec: CCX qubits (%d,%d,%d) out of range [0,%d)", c0, c1, t, s.n))
	}
	kernCCX(s.amp, 1<<uint(c0), 1<<uint(c1), 1<<uint(t), 0, len(s.amp)>>3)
}

// applyK applies an arbitrary k-qubit unitary given as a 2^k x 2^k matrix.
// qubits[0] corresponds to the most-significant bit of the matrix index,
// matching the (control, ..., target) ordering of the gate library.
func (s *State) applyK(m qmath.Matrix, qubits []int) {
	k := len(qubits)
	if m.Dim() != 1<<uint(k) {
		panic(fmt.Sprintf("statevec: matrix dim %d does not match %d qubits", m.Dim(), k))
	}
	for _, q := range qubits {
		if q < 0 || q >= s.n {
			panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, s.n))
		}
	}
	sub := 1 << uint(k)
	// bits[j] is the amplitude-index bit of the j-th matrix-index bit,
	// where matrix bit j (from LSB) corresponds to qubits[k-1-j].
	bits := make([]int, k)
	for j := 0; j < k; j++ {
		bits[j] = 1 << uint(qubits[k-1-j])
	}
	mask := 0
	for _, b := range bits {
		mask |= b
	}
	scratchIn := make([]complex128, sub)
	scratchOut := make([]complex128, sub)
	idx := make([]int, sub)
	for base := range s.amp {
		if base&mask != 0 {
			continue // visit each coset once, at its all-zeros representative
		}
		for v := 0; v < sub; v++ {
			j := base
			for b := 0; b < k; b++ {
				if v&(1<<uint(b)) != 0 {
					j |= bits[b]
				}
			}
			idx[v] = j
			scratchIn[v] = s.amp[j]
		}
		m.MulVec(scratchOut, scratchIn)
		for v := 0; v < sub; v++ {
			s.amp[idx[v]] = scratchOut[v]
		}
	}
}

// ApplyPauli applies a Pauli error operator to qubit q. This is the
// injected-error fast path used by the Monte Carlo engine.
func (s *State) ApplyPauli(p gate.Pauli, q int) {
	switch p {
	case gate.PauliX:
		s.applyXKernel(q)
	case gate.PauliY:
		kernY(s.amp, 1<<uint(q), 0, len(s.amp)>>uint(q+1))
	case gate.PauliZ:
		s.applyZKernel(q)
	default:
		panic(fmt.Sprintf("statevec: invalid Pauli %d", int(p)))
	}
}

// Sample draws one measurement outcome (a basis-state index over all n
// qubits) from the state's distribution using rng. The state is not
// collapsed; terminal measurement in the Monte Carlo scheme only needs the
// sampled classical outcome.
func (s *State) Sample(rng *rand.Rand) int {
	r := rng.Float64()
	var cum float64
	for i, a := range s.amp {
		cum += real(a)*real(a) + imag(a)*imag(a)
		if r < cum {
			return i
		}
	}
	// Floating-point round-off can leave cum slightly below 1; return the
	// last basis state with nonzero probability.
	for i := len(s.amp) - 1; i >= 0; i-- {
		if s.amp[i] != 0 {
			return i
		}
	}
	return len(s.amp) - 1
}

// MeasureQubitProbability returns P(qubit q reads 1).
func (s *State) MeasureQubitProbability(q int) float64 {
	bit := 1 << uint(q)
	var p float64
	for i, a := range s.amp {
		if i&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// ExpectationZ returns <Z_q>, the expectation of Pauli-Z on qubit q.
func (s *State) ExpectationZ(q int) float64 {
	return 1 - 2*s.MeasureQubitProbability(q)
}

// MemoryBytes returns the amplitude storage footprint of one state of this
// width, the unit behind the paper's MSV memory metric.
func (s *State) MemoryBytes() int { return len(s.amp) * 16 }

// StateMemoryBytes returns the amplitude storage of a width-n state without
// allocating one: 2^n amplitudes x 16 bytes.
func StateMemoryBytes(n int) float64 {
	return math.Exp2(float64(n)) * 16
}
