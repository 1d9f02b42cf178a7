package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gate"
	"repro/internal/qmath"
)

// applyK applies an arbitrary k-qubit unitary given as a 2^k x 2^k matrix,
// the plain reference the specialized kernels and the kq kernel are
// tested against. qubits[0] corresponds to the most-significant bit of
// the matrix index, matching the (control, ..., target) ordering of the
// gate library.
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

// applyReference applies a gate to a state vector the slow, obviously
// correct way: build the full 2^n x 2^n operator by Kronecker products and
// index permutation, then multiply.
func applyReference(amp []complex128, g gate.Gate, qubits []int, n int) []complex128 {
	dim := 1 << uint(n)
	u := g.Matrix()
	k := len(qubits)
	out := make([]complex128, dim)
	for col := 0; col < dim; col++ {
		a := amp[col]
		if a == 0 {
			continue
		}
		// Extract the sub-index of col on the gate's qubits. qubits[0] is
		// the high matrix bit.
		sub := 0
		for j, q := range qubits {
			if col>>uint(q)&1 == 1 {
				sub |= 1 << uint(k-1-j)
			}
		}
		rest := col
		for _, q := range qubits {
			rest &^= 1 << uint(q)
		}
		for outSub := 0; outSub < 1<<uint(k); outSub++ {
			coef := u.At(outSub, sub)
			if coef == 0 {
				continue
			}
			row := rest
			for j, q := range qubits {
				if outSub>>uint(k-1-j)&1 == 1 {
					row |= 1 << uint(q)
				}
			}
			out[row] += coef * a
		}
	}
	return out
}

func randomState(rng *rand.Rand, n int) *State {
	amp := make([]complex128, 1<<uint(n))
	for i := range amp {
		amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	qmath.Normalize(amp)
	s, err := FromAmplitudes(amp)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewStateIsZeroKet(t *testing.T) {
	s := NewState(3)
	if s.Dim() != 8 || s.NumQubits() != 3 {
		t.Fatalf("dims wrong: %d, %d", s.Dim(), s.NumQubits())
	}
	if s.Amplitude(0) != 1 {
		t.Error("amp[0] != 1")
	}
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Error("norm != 1")
	}
}

func TestNewStatePanics(t *testing.T) {
	for _, n := range []int{0, -1, 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewState(%d) did not panic", n)
				}
			}()
			NewState(n)
		}()
	}
}

func TestFromAmplitudesRejectsBadLength(t *testing.T) {
	if _, err := FromAmplitudes(make([]complex128, 3)); err == nil {
		t.Error("length-3 amplitude vector accepted")
	}
	if _, err := FromAmplitudes(make([]complex128, 1)); err == nil {
		t.Error("length-1 amplitude vector accepted")
	}
}

// TestSingleQubitKernelsMatchReference checks every 1q gate against the
// reference Kronecker application on every qubit position of a random
// 4-qubit state.
func TestSingleQubitKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gates := []gate.Gate{
		gate.I(), gate.X(), gate.Y(), gate.Z(), gate.H(), gate.S(),
		gate.Sdg(), gate.T(), gate.Tdg(), gate.SX(),
		gate.RX(0.3), gate.RY(1.1), gate.RZ(2.4), gate.P(0.8),
		gate.U2(0.2, 1.7), gate.U3(0.9, 0.4, 2.1),
	}
	for _, g := range gates {
		for q := 0; q < 4; q++ {
			s := randomState(rng, 4)
			want := applyReference(s.Amplitudes(), g, []int{q}, 4)
			s.ApplyOp(g, q)
			if !qmath.VecEqual(s.Amplitudes(), want, 1e-10) {
				t.Errorf("gate %q on qubit %d: kernel disagrees with reference (max diff %g)",
					g.Name(), q, qmath.MaxAbsDiff(s.Amplitudes(), want))
			}
		}
	}
}

// TestTwoQubitKernelsMatchReference checks CX, CZ, SWAP and a controlled
// custom gate on all ordered qubit pairs of a 4-qubit register.
func TestTwoQubitKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gates := []gate.Gate{gate.CX(), gate.CZ(), gate.Swap(), gate.Controlled(gate.RY(0.7))}
	for _, g := range gates {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if a == b {
					continue
				}
				s := randomState(rng, 4)
				want := applyReference(s.Amplitudes(), g, []int{a, b}, 4)
				s.ApplyOp(g, a, b)
				if !qmath.VecEqual(s.Amplitudes(), want, 1e-10) {
					t.Errorf("gate %q on (%d,%d): kernel disagrees with reference", g.Name(), a, b)
				}
			}
		}
	}
}

func TestThreeQubitKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gate.CCX()
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 3, 0}, {3, 0, 2}}
	for _, p := range perms {
		s := randomState(rng, 4)
		want := applyReference(s.Amplitudes(), g, p, 4)
		s.ApplyOp(g, p...)
		if !qmath.VecEqual(s.Amplitudes(), want, 1e-10) {
			t.Errorf("CCX on %v: kernel disagrees with reference", p)
		}
	}
}

func TestCXTruthTable(t *testing.T) {
	// CX(control=1, target=0): |q1 q0> basis, amplitude index b1*2 + b0.
	for in := 0; in < 4; in++ {
		s := NewState(2)
		s.Amplitudes()[0] = 0
		s.Amplitudes()[in] = 1
		s.ApplyOp(gate.CX(), 1, 0)
		want := in
		if in&2 != 0 {
			want = in ^ 1
		}
		if s.Amplitude(want) != 1 {
			t.Errorf("CX|%02b> did not produce |%02b>", in, want)
		}
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.ApplyOp(gate.H(), 0)
	s.ApplyOp(gate.CX(), 0, 1)
	// Expect (|00> + |11>)/sqrt2.
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(3)-0.5) > 1e-12 {
		t.Errorf("Bell probabilities wrong: %v", s.Probabilities())
	}
	if s.Probability(1) > 1e-12 || s.Probability(2) > 1e-12 {
		t.Errorf("Bell has support on |01>/|10>: %v", s.Probabilities())
	}
}

func TestGHZState(t *testing.T) {
	s := NewState(3)
	s.ApplyOp(gate.H(), 0)
	s.ApplyOp(gate.CX(), 0, 1)
	s.ApplyOp(gate.CX(), 1, 2)
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(7)-0.5) > 1e-12 {
		t.Errorf("GHZ probabilities wrong: %v", s.Probabilities())
	}
}

func TestApplyPauliMatchesGate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, p := range []gate.Pauli{gate.PauliX, gate.PauliY, gate.PauliZ} {
		for q := 0; q < 3; q++ {
			s := randomState(rng, 3)
			ref := s.Clone()
			s.ApplyPauli(p, q)
			ref.ApplyOp(p.Gate(), q)
			if !s.Equal(ref, 1e-12) {
				t.Errorf("ApplyPauli(%v, %d) disagrees with gate application", p, q)
			}
		}
	}
}

// TestApplyPauliOutOfRange: a qubit outside [0, n) panics with ApplyOp's
// message instead of leaving the state silently unchanged.
func TestApplyPauliOutOfRange(t *testing.T) {
	for _, q := range []int{5, 6, 63, 64, -1} {
		for _, p := range []gate.Pauli{gate.PauliX, gate.PauliY, gate.PauliZ} {
			s := randomState(rand.New(rand.NewSource(int64(q))), 5)
			want := fmt.Sprintf("statevec: qubit %d out of range [0,5)", q)
			err := catchPanic(func() { s.ApplyPauli(p, q) })
			if err == nil || err.Error() != want {
				t.Errorf("ApplyPauli(%v, %d) on 5 qubits: panic %v, want %q", p, q, err, want)
			}
			if got := catchPanic(func() { s.ApplyOp(p.Gate(), q) }); got == nil || got.Error() != want {
				t.Errorf("ApplyOp(%v, %d) on 5 qubits: panic %v, want %q", p, q, got, want)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewState(2)
	c := s.Clone()
	s.ApplyOp(gate.X(), 0)
	if c.Amplitude(0) != 1 {
		t.Error("clone mutated by original")
	}
}

func TestCopyFromAndReset(t *testing.T) {
	s := NewState(2)
	s.ApplyOp(gate.H(), 0)
	d := NewState(2)
	d.CopyFrom(s)
	if !d.Equal(s, 0) {
		t.Error("CopyFrom did not copy")
	}
	d.Reset()
	if d.Amplitude(0) != 1 || d.Amplitude(1) != 0 {
		t.Error("Reset did not restore |00>")
	}
}

func TestUnitaryPreservesNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomState(rng, 5)
		gates := []gate.Gate{gate.H(), gate.T(), gate.RX(rng.Float64() * math.Pi), gate.SX()}
		for i := 0; i < 20; i++ {
			g := gates[rng.Intn(len(gates))]
			s.ApplyOp(g, rng.Intn(5))
			if rng.Intn(2) == 0 {
				a, b := rng.Intn(5), rng.Intn(5)
				if a != b {
					s.ApplyOp(gate.CX(), a, b)
				}
			}
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGateThenDaggerIsIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomState(rng, 4)
		orig := s.Clone()
		g := gate.U3(rng.Float64()*math.Pi, rng.Float64(), rng.Float64())
		q := rng.Intn(4)
		s.ApplyOp(g, q)
		s.ApplyOp(gate.Dagger(g), q)
		return s.Equal(orig, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSampleDistribution(t *testing.T) {
	// Sampling a Hadamard state many times should give ~50/50.
	s := NewState(1)
	s.ApplyOp(gate.H(), 0)
	rng := rand.New(rand.NewSource(14))
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[s.Sample(rng)]++
	}
	ratio := float64(counts[0]) / n
	if math.Abs(ratio-0.5) > 0.02 {
		t.Errorf("sample ratio = %g, want ~0.5", ratio)
	}
}

func TestSampleDeterministicState(t *testing.T) {
	s := NewState(3)
	s.ApplyOp(gate.X(), 1)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 10; i++ {
		if got := s.Sample(rng); got != 2 {
			t.Fatalf("sample of |010> = %d, want 2", got)
		}
	}
}

func TestMeasureQubitProbability(t *testing.T) {
	s := NewState(2)
	s.ApplyOp(gate.H(), 0)
	if got := s.MeasureQubitProbability(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(q0=1) = %g, want 0.5", got)
	}
	if got := s.MeasureQubitProbability(1); got > 1e-12 {
		t.Errorf("P(q1=1) = %g, want 0", got)
	}
}

func TestExpectationZ(t *testing.T) {
	s := NewState(1)
	if got := s.ExpectationZ(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("<Z> of |0> = %g, want 1", got)
	}
	s.ApplyOp(gate.X(), 0)
	if got := s.ExpectationZ(0); math.Abs(got+1) > 1e-12 {
		t.Errorf("<Z> of |1> = %g, want -1", got)
	}
}

func TestFidelitySelf(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	s := randomState(rng, 4)
	if got := s.Fidelity(s); math.Abs(got-1) > 1e-9 {
		t.Errorf("self fidelity = %g", got)
	}
}

func TestMemoryBytes(t *testing.T) {
	s := NewState(10)
	if got := s.MemoryBytes(); got != 1024*16 {
		t.Errorf("MemoryBytes = %d, want %d", got, 1024*16)
	}
	if got := StateMemoryBytes(30); got != math.Exp2(30)*16 {
		t.Errorf("StateMemoryBytes(30) = %g", got)
	}
}

// TestApplyKAgreesWithSpecializedKernels runs the generic dense kernel on
// gates that also have specialized kernels and checks agreement — the
// cross-check that the fast paths are right.
func TestApplyKAgreesWithSpecializedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if a == b {
				continue
			}
			for _, g := range []gate.Gate{gate.CX(), gate.CZ(), gate.Swap()} {
				fast := randomState(rng, 3)
				slow := fast.Clone()
				fast.ApplyOp(g, a, b)
				slow.applyK(g.Matrix(), []int{a, b})
				if !fast.Equal(slow, 1e-10) {
					t.Errorf("gate %q on (%d,%d): fast and generic kernels disagree", g.Name(), a, b)
				}
			}
		}
	}
}

// TestResolveOpDoesNotAllocate: resolving and applying an op through the
// dispatch table allocates nothing for any specialized kernel, so ApplyOp
// costs no more than the switch it replaced.
func TestResolveOpDoesNotAllocate(t *testing.T) {
	s := NewState(4)
	ops := []struct {
		g  gate.Gate
		qs []int
	}{
		{gate.I(), []int{0}}, {gate.X(), []int{1}}, {gate.Y(), []int{2}}, {gate.Z(), []int{3}},
		{gate.H(), []int{0}}, {gate.T(), []int{1}}, {gate.U3(0.1, 0.2, 0.3), []int{2}},
		{gate.CX(), []int{0, 1}}, {gate.CZ(), []int{1, 2}}, {gate.Swap(), []int{2, 3}},
		{gate.Controlled(gate.RY(0.4)), []int{3, 0}}, {gate.CCX(), []int{0, 1, 2}},
	}
	for _, op := range ops {
		if n := testing.AllocsPerRun(50, func() { s.ApplyOp(op.g, op.qs...) }); n != 0 {
			t.Errorf("ApplyOp(%s) allocates %.0f times per call", op.g.Name(), n)
		}
	}
}
