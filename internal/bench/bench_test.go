package bench

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/qmath"
	"repro/internal/statevec"
)

// run executes a circuit noiselessly and returns the final state.
func run(c *circuit.Circuit) *statevec.State {
	s := statevec.NewState(c.NumQubits())
	for _, op := range c.Ops() {
		s.ApplyOp(op.Gate, op.Qubits...)
	}
	return s
}

func TestBVMatchesTableI(t *testing.T) {
	for _, tc := range []struct {
		n                    int
		secret               uint64
		single, cnot, qubits int
	}{
		{4, 0b111, 8, 3, 4},
		{5, 0b1111, 10, 4, 5},
	} {
		c := BV(tc.n, tc.secret)
		s, d, _ := c.CountGates()
		if c.NumQubits() != tc.qubits || s != tc.single || d != tc.cnot {
			t.Errorf("bv%d: %d qubits, %d single, %d cnot; want %d/%d/%d",
				tc.n, c.NumQubits(), s, d, tc.qubits, tc.single, tc.cnot)
		}
		if len(c.Measurements()) != tc.n-1 {
			t.Errorf("bv%d measures %d bits, want %d", tc.n, len(c.Measurements()), tc.n-1)
		}
	}
}

func TestBVRecoversSecret(t *testing.T) {
	for _, secret := range []uint64{0b000, 0b101, 0b111, 0b010} {
		c := BV(4, secret)
		s := run(c)
		// Data qubits should be exactly |secret>; ancilla in |->.
		for idx := 0; idx < s.Dim(); idx++ {
			p := s.Probability(idx)
			if p < 1e-9 {
				continue
			}
			if uint64(idx)&0b111 != secret {
				t.Errorf("secret %03b: support on %04b (p=%g)", secret, idx, p)
			}
		}
	}
}

func TestQFTOnBasisState(t *testing.T) {
	// QFT|0...0> = uniform superposition with zero phases.
	for _, n := range []int{2, 3, 4} {
		c := QFT(n)
		s := run(c)
		want := 1.0 / math.Exp2(float64(n))
		for i := 0; i < s.Dim(); i++ {
			if math.Abs(s.Probability(i)-want) > 1e-9 {
				t.Errorf("qft%d |0>: P(%d) = %g, want %g", n, i, s.Probability(i), want)
			}
		}
	}
}

func TestQFTMatrixIsDFT(t *testing.T) {
	// Apply QFT (sans measurement) to each basis state of 3 qubits and
	// compare against the DFT matrix column.
	n := 3
	dim := 8
	c := QFT(n)
	omega := 2 * math.Pi / float64(dim)
	for col := 0; col < dim; col++ {
		s := statevec.NewState(n)
		s.Amplitudes()[0] = 0
		s.Amplitudes()[col] = 1
		for _, op := range c.Ops() {
			s.ApplyOp(op.Gate, op.Qubits...)
		}
		for row := 0; row < dim; row++ {
			want := qmath.Phase(omega*float64(row*col)) / complex(math.Sqrt(float64(dim)), 0)
			if !qmath.AlmostEqualTol(s.Amplitude(row), want, 1e-9) {
				t.Fatalf("QFT[%d][%d] = %v, want %v", row, col, s.Amplitude(row), want)
			}
		}
	}
}

func TestGrover3FindsMarkedState(t *testing.T) {
	c := Grover3()
	s := run(c)
	// After 2 iterations on 8 items, P(|111>) ~ 0.945.
	if p := s.Probability(7); p < 0.9 {
		t.Errorf("P(|111>) = %g, want > 0.9", p)
	}
}

func TestWState3(t *testing.T) {
	c := WState3()
	s := run(c)
	want := 1.0 / 3.0
	for _, idx := range []int{1, 2, 4} {
		if math.Abs(s.Probability(idx)-want) > 1e-9 {
			t.Errorf("P(|%03b>) = %g, want 1/3", idx, s.Probability(idx))
		}
	}
	for _, idx := range []int{0, 3, 5, 6, 7} {
		if s.Probability(idx) > 1e-9 {
			t.Errorf("W state has support on |%03b>", idx)
		}
	}
}

func TestMod15Mul7Permutation(t *testing.T) {
	// Strip the initial Hadamards and verify the core permutes
	// |x> -> |7x mod 15> for x in 0..14.
	c := circuit.New("perm", 4)
	full := Mod15Mul7()
	for _, op := range full.Ops() {
		if op.Gate.Kind() == gate.KindH {
			continue
		}
		c.Append(op.Gate, op.Qubits...)
	}
	// Exact on the multiplier's domain 1..14; |0> and |15> exchange as in
	// the textbook circuit (documented on Mod15Mul7).
	for x := 1; x < 15; x++ {
		s := statevec.NewState(4)
		s.Amplitudes()[0] = 0
		s.Amplitudes()[x] = 1
		for _, op := range c.Ops() {
			s.ApplyOp(op.Gate, op.Qubits...)
		}
		want := (7 * x) % 15
		if p := s.Probability(want); math.Abs(p-1) > 1e-9 {
			t.Errorf("7*%d mod 15: P(|%d>) = %g, want 1", x, want, p)
		}
	}
}

func TestMod15CountsMatchTableI(t *testing.T) {
	c := Mod15Mul7()
	s, d, _ := c.CountGates()
	// Table I: 17 single / 9 CNOT post-compilation; logical circuit is
	// 8 single (4 H + 4 X) and 9 CX (3 SWAPs).
	if d != 9 {
		t.Errorf("cnot = %d, want 9", d)
	}
	if s != 8 {
		t.Errorf("single = %d, want 8 (logical)", s)
	}
}

func TestRB2ReturnsToZero(t *testing.T) {
	c := RB2()
	s := run(c)
	if p := s.Probability(0); math.Abs(p-1) > 1e-9 {
		t.Errorf("RB sequence P(|00>) = %g, want 1", p)
	}
	sc, dc, _ := c.CountGates()
	if sc != 9 || dc != 2 {
		t.Errorf("rb counts = %d single/%d cnot, want 9/2", sc, dc)
	}
}

func TestQVShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := QV(5, 3, rng)
	s, d, _ := c.CountGates()
	// floor(5/2)=2 blocks per layer x 3 layers: 6 blocks, 3 CX + 8 u3 each.
	if d != 18 {
		t.Errorf("qv cnot = %d, want 18", d)
	}
	if s != 48 {
		t.Errorf("qv single = %d, want 48", s)
	}
	if len(c.Measurements()) != 5 {
		t.Errorf("qv measures = %d, want 5", len(c.Measurements()))
	}
}

func TestQVDeterministicBySeed(t *testing.T) {
	a := QV(4, 2, rand.New(rand.NewSource(7)))
	b := QV(4, 2, rand.New(rand.NewSource(7)))
	if a.NumOps() != b.NumOps() {
		t.Fatal("op counts differ")
	}
	for i := 0; i < a.NumOps(); i++ {
		if a.Op(i).String() != b.Op(i).String() {
			t.Fatalf("op %d differs: %s vs %s", i, a.Op(i), b.Op(i))
		}
	}
}

func TestQVUnitaryNormPreserved(t *testing.T) {
	c := QV(4, 3, rand.New(rand.NewSource(2)))
	s := run(c)
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Errorf("QV state norm = %g", s.Norm())
	}
}

func TestSuiteComplete(t *testing.T) {
	s := Suite(1)
	if len(s) != len(TableI) {
		t.Fatalf("suite has %d circuits, Table I has %d", len(s), len(TableI))
	}
	for _, ref := range TableI {
		c, ok := s[ref.Name]
		if !ok {
			t.Errorf("suite missing %q", ref.Name)
			continue
		}
		if c.NumQubits() != ref.Qubits {
			t.Errorf("%s: %d qubits, Table I says %d", ref.Name, c.NumQubits(), ref.Qubits)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", ref.Name, err)
		}
		if len(c.Measurements()) == 0 {
			t.Errorf("%s: no measurements", ref.Name)
		}
	}
}

func TestBuild(t *testing.T) {
	c, err := Build("grover", 1)
	if err != nil || c.Name() != "grover" {
		t.Errorf("Build(grover) = %v, %v", c, err)
	}
	if _, err := Build("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestBuildMatchesSuite: Build builds one circuit alone, yet yields exactly
// the circuit Suite builds under that name, so the QV circuits draw from
// the shared rng in Suite's order whatever depth is asked for.
func TestBuildMatchesSuite(t *testing.T) {
	seeds := []int64{1 << 40, 1<<40 + 12345}
	for s := int64(1); s <= 20; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		suite := Suite(seed)
		for _, ref := range TableI {
			got, err := Build(ref.Name, seed)
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", ref.Name, seed, err)
			}
			want := suite[ref.Name]
			if got.Name() != want.Name() || got.NumQubits() != want.NumQubits() || got.NumOps() != want.NumOps() {
				t.Fatalf("Build(%s, %d): %s on %d qubits with %d ops, Suite has %s on %d with %d",
					ref.Name, seed, got.Name(), got.NumQubits(), got.NumOps(), want.Name(), want.NumQubits(), want.NumOps())
			}
			for i, g := range got.Ops() {
				w := want.Op(i)
				if g.Gate.Name() != w.Gate.Name() || !slices.Equal(g.Qubits, w.Qubits) {
					t.Fatalf("Build(%s, %d) op %d: %v, Suite has %v", ref.Name, seed, i, g, w)
				}
				gp, wp := g.Gate.Params(), w.Gate.Params()
				if len(gp) != len(wp) {
					t.Fatalf("Build(%s, %d) op %d: %d params, Suite has %d", ref.Name, seed, i, len(gp), len(wp))
				}
				for k := range gp {
					if math.Float64bits(gp[k]) != math.Float64bits(wp[k]) {
						t.Fatalf("Build(%s, %d) op %d param %d: %v, Suite has %v", ref.Name, seed, i, k, gp[k], wp[k])
					}
				}
			}
			if !slices.Equal(got.Measurements(), want.Measurements()) {
				t.Fatalf("Build(%s, %d): measurements %v, Suite has %v", ref.Name, seed, got.Measurements(), want.Measurements())
			}
		}
	}
	_, err := Build("nope", 1)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, ref := range TableI {
		if !strings.Contains(err.Error(), ref.Name) {
			t.Errorf("unknown-name error %q does not list %s", err, ref.Name)
		}
	}
}

func TestBVPanicsOnTooFewQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BV(1) did not panic")
		}
	}()
	BV(1, 0)
}

func TestQVPanicsOnOneQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("QV(1) did not panic")
		}
	}()
	QV(1, 1, rand.New(rand.NewSource(1)))
}
