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
	"math/bits"
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

// Caps on the size of one run, beside MaxQubits: qsimd rejects a request
// above any of them before it generates a trial. MaxTrials bounds the
// trial set a run generates, sorts and plans in memory; MaxWorkers bounds
// the goroutines a run may ask for.
const (
	MaxTrials  = 1 << 20
	MaxWorkers = 64
)

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
// specialized kernel where one exists. It is ResolveOp followed by
// ApplyKernel, so a pre-resolved kernel table is bit-identical to
// dispatch by construction.
func (s *State) ApplyOp(g gate.Gate, qubits ...int) {
	var k OpKernel
	resolveOp(&k, s.n, &g, qubits)
	s.ApplyKernel(&k)
}

// opKernelKind names the sweep an OpKernel runs.
type opKernelKind uint8

const (
	okIdentity opKernelKind = iota // counted, never swept
	okPairs                        // single-qubit: routine r on b0 with entries u
	okUnits                        // CX or general 4x4: routine r on b0, b1 with matrix m
	okCZ
	okSwap
	okCCX // controls b0, b1, target b2
	okK   // dense 2^k matrix: kq
)

// OpKernel is one circuit op with its dispatch decided once: the kernel
// kind, the sweep routine (pairRoutine, unitRoutine), the amplitude-index
// bit masks of its qubits (in op order), the gate's matrix entries (a
// single-qubit gate's 2x2 inline, a general 4x4 shared with the gate, a
// dense 2^k matrix in a kq kernel) and the state size it was resolved
// for. Executors that run a circuit many times resolve each op once and
// replay the table instead of re-reading the gate on every application.
// An OpKernel is read-only once built and may be shared between
// goroutines.
type OpKernel struct {
	kind   opKernelKind
	r      routine
	b0, b1 int
	dim    int // amplitudes of the state the qubits were checked against
	u      [4]complex128
	m      *[16]complex128
	b2     int
	kq     *kqKernel
}

// ResolveOp decides the kernel for gate g on qubits of an n-qubit state,
// panicking on out-of-range or duplicate qubits exactly as dispatch does.
// It does not allocate, except for a dense gate on three or more qubits
// other than CCX, whose kq kernel (the one compiled programs run) it
// builds.
func ResolveOp(n int, g gate.Gate, qubits ...int) OpKernel {
	var k OpKernel
	resolveOp(&k, n, &g, qubits)
	return k
}

// resolveOp is ResolveOp filling a caller-owned kernel, so ApplyOp
// copies neither the gate nor the kernel. Dispatch is exact, so the
// routine is FuseOff's. The assembly needs at least two pairs (units) in
// a whole-state sweep: a 1-qubit state's pair sweeps and a 2-qubit
// state's unit sweeps take the Go bodies.
func resolveOp(k *OpKernel, n int, g *gate.Gate, qubits []int) {
	switch {
	case g.Qubits() == 1:
		q := qubits[0]
		if q < 0 || q >= n {
			panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, n))
		}
		k.b0 = 1 << uint(q)
		if g.Kind() == gate.KindI {
			k.kind = okIdentity
			break
		}
		st := gstepFor(g)
		k.kind, k.u = okPairs, st.u
		k.r = pairRoutine(st.op, k.b0, FuseOff, useAVX2 && n >= 2)
	case g.Qubits() == 2:
		q0, q1 := qubits[0], qubits[1]
		if q0 == q1 {
			panic(fmt.Sprintf("statevec: two-qubit gate on duplicate qubit %d", q0))
		}
		if q0 < 0 || q0 >= n || q1 < 0 || q1 >= n {
			panic(fmt.Sprintf("statevec: qubit pair (%d,%d) out of range [0,%d)", q0, q1, n))
		}
		k.b0, k.b1 = 1<<uint(q0), 1<<uint(q1)
		switch kind := g.Kind(); kind {
		case gate.KindCZ:
			k.kind = okCZ
		case gate.KindSwap:
			k.kind = okSwap
		default:
			if kind != gate.KindCX {
				k.m = (*[16]complex128)(g.Matrix().Data())
			}
			k.kind = okUnits
			k.r = unitRoutine(kind == gate.KindCX, k.b0, k.b1, FuseOff, useAVX2 && n >= 3)
		}
	case g.Qubits() == 3 && g.Kind() == gate.KindCCX:
		c0, c1, t := qubits[0], qubits[1], qubits[2]
		if c0 == c1 || c0 == t || c1 == t {
			panic(fmt.Sprintf("statevec: CCX on duplicate qubits (%d,%d,%d)", c0, c1, t))
		}
		if c0 < 0 || c0 >= n || c1 < 0 || c1 >= n || t < 0 || t >= n {
			panic(fmt.Sprintf("statevec: CCX qubits (%d,%d,%d) out of range [0,%d)", c0, c1, t, n))
		}
		k.kind, k.b0, k.b1, k.b2 = okCCX, 1<<uint(c0), 1<<uint(c1), 1<<uint(t)
	default:
		for _, q := range qubits {
			if q < 0 || q >= n {
				panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, n))
			}
		}
		k.kind, k.kq = okK, newKQKernel(g.Matrix(), qubits)
	}
	k.dim = 1 << uint(n)
}

// ApplyKernel runs a resolved op on the state, which must have the width
// the kernel was resolved for; it panics otherwise. That one length check
// stands in for the per-call range proofs of sweepPairs and sweepUnits:
// ResolveOp proved the qubits in range, so a whole-state sweep goes
// straight to the chunk loop, one assembly call for at most asmChunk
// pairs or units.
func (s *State) ApplyKernel(k *OpKernel) {
	amp := s.amp
	if len(amp) != k.dim {
		panic(fmt.Sprintf("statevec: kernel resolved for %d amplitudes applied to a state of %d", k.dim, len(amp)))
	}
	switch k.kind {
	case okPairs:
		if k.r < rXAVX2 {
			goPairs(amp, k.r, k.b0, 0, units1(amp, k.b0), &k.u)
		} else {
			pairsAsm(amp, k.r, k.b0, 0, len(amp)>>1, &k.u)
		}
	case okUnits:
		if k.r < rXAVX2 {
			goUnits(amp, k.r, k.b0, k.b1, 0, len(amp)>>2, k.m)
		} else {
			unitsAsm(amp, k.r, k.b0, k.b1, 0, len(amp)>>2, k.m)
		}
	case okIdentity:
	case okCZ:
		kernCZ(amp, k.b0, k.b1, 0, len(amp)>>2)
	case okSwap:
		kernSwap(amp, k.b0, k.b1, 0, len(amp)>>2)
	case okCCX:
		kernCCX(amp, k.b0, k.b1, k.b2, 0, len(amp)>>3)
	case okK:
		k.kq.run(amp)
	}
}

// ApplyKernels runs the kernels of ks in order on the state, as
// ApplyKernel on each would, bit for bit. On amd64 with AVX2 the kernels
// go through the tape, one assembly call (kernels_amd64.s) for as many
// kernels as fit in asmChunk pairs or units. The tape stops at the first
// kernel it does not take (a Go routine, CZ, Swap, CCX, a dense kernel,
// one too large for a call or one resolved for another width); that
// kernel goes through ApplyKernel, which panics on a width mismatch, and
// the tape resumes after it.
func (s *State) ApplyKernels(ks []OpKernel) {
	for {
		i := tape(s.amp, ks)
		if i == len(ks) {
			return
		}
		s.ApplyKernel(&ks[i])
		ks = ks[i+1:]
	}
}

// units1 is the base-block count of a single-qubit sweep on bit.
func units1(amp []complex128, bit int) int {
	return len(amp) >> uint(bits.TrailingZeros(uint(bit))+1)
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

// mat2Flat copies a 4x4 qmath.Matrix into the flat row-major array the
// unit routines consume.
func mat2Flat(m qmath.Matrix, out *[16]complex128) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			out[r*4+c] = m.At(r, c)
		}
	}
}

// ApplyPauli applies a Pauli error operator to qubit q. This is the
// injected-error fast path used by the Monte Carlo engine. It panics, as
// ApplyOp does, if q is outside [0, n).
func (s *State) ApplyPauli(p gate.Pauli, q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, s.n))
	}
	var op uint8
	switch p {
	case gate.PauliX:
		op = sX
	case gate.PauliY:
		op = sY
	case gate.PauliZ:
		op = sZ
	default:
		panic(fmt.Sprintf("statevec: invalid Pauli %d", int(p)))
	}
	bit := 1 << uint(q)
	sweepPairs(s.amp, pairRoutine(op, bit, FuseOff, useAVX2), bit, 0, len(s.amp)>>uint(q+1), nil)
}

// Sample draws one measurement outcome (a basis-state index over all n
// qubits) from the state's distribution using rng. The state is not
// collapsed; terminal measurement in the Monte Carlo scheme only needs the
// sampled classical outcome. It is SampleIndex with a uniform from rng:
// an outcome of zero probability is never returned unless every outcome
// has it.
func (s *State) Sample(rng *rand.Rand) int {
	return SampleIndex(s.amp, rng.Float64())
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
