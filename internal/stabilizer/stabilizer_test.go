package stabilizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/statevec"
)

func TestNewStabilizesZero(t *testing.T) {
	tab := New(3)
	s := tab.String()
	want := "+ZII\n+IZI\n+IIZ\n"
	if s != want {
		t.Errorf("initial stabilizers:\n%s\nwant:\n%s", s, want)
	}
	for q := 0; q < 3; q++ {
		if got := tab.ExpectationZ(q); got != 1 {
			t.Errorf("<Z%d> = %d, want 1", q, got)
		}
	}
}

func TestNewPanicsOnZeroQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestXFlipsOutcome(t *testing.T) {
	tab := New(2)
	tab.X(1)
	rng := rand.New(rand.NewSource(1))
	if got := tab.Clone().Sample(rng); got != 0b10 {
		t.Errorf("X|00> sampled %02b, want 10", got)
	}
	if tab.ExpectationZ(1) != -1 {
		t.Error("<Z1> after X != -1")
	}
}

func TestBellStateCorrelations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	counts := map[uint64]int{}
	for i := 0; i < 4000; i++ {
		tab := New(2)
		tab.H(0)
		tab.CX(0, 1)
		counts[tab.Sample(rng)]++
	}
	if counts[0b01] != 0 || counts[0b10] != 0 {
		t.Errorf("Bell produced odd parity: %v", counts)
	}
	ratio := float64(counts[0b00]) / 4000
	if math.Abs(ratio-0.5) > 0.03 {
		t.Errorf("Bell P(00) = %g", ratio)
	}
}

func TestGHZLargeWidth(t *testing.T) {
	// 200 qubits: far beyond any state-vector simulator; tableau handles
	// it instantly. All-zero or all-one outcomes only.
	const n = 200
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		tab := New(n)
		tab.H(0)
		for q := 0; q+1 < n; q++ {
			tab.CX(q, q+1)
		}
		first := tab.MeasureZ(0, rng)
		for q := 1; q < n; q++ {
			if tab.MeasureZ(q, rng) != first {
				t.Fatalf("GHZ qubit %d decorrelated", q)
			}
		}
	}
}

func TestMeasurementCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := New(1)
	tab.H(0)
	first := tab.MeasureZ(0, rng)
	for i := 0; i < 20; i++ {
		if tab.MeasureZ(0, rng) != first {
			t.Fatal("repeated measurement changed outcome")
		}
	}
}

func TestSMakesYBasis(t *testing.T) {
	// S H |0> stabilized by +Y.
	tab := New(1)
	tab.H(0)
	tab.S(0)
	if got := tab.String(); got != "+Y\n" {
		t.Errorf("stabilizer = %q, want +Y", got)
	}
}

func TestSdgInvertsS(t *testing.T) {
	tab := New(1)
	tab.H(0)
	tab.S(0)
	tab.Sdg(0)
	if got := tab.String(); got != "+X\n" {
		t.Errorf("stabilizer = %q, want +X", got)
	}
}

func TestApplyOpRejectsNonClifford(t *testing.T) {
	tab := New(1)
	if err := tab.ApplyOp(circuit.Op{Gate: gate.T(), Qubits: []int{0}}); err == nil {
		t.Error("T gate accepted")
	}
	if err := tab.ApplyOp(circuit.Op{Gate: gate.RX(0.3), Qubits: []int{0}}); err == nil {
		t.Error("RX gate accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	tab := New(2)
	tab.H(0)
	c := tab.Clone()
	tab.X(1)
	if c.String() == tab.String() {
		t.Error("clone tracks original")
	}
	d := New(2)
	d.CopyFrom(tab)
	if d.String() != tab.String() {
		t.Error("CopyFrom mismatch")
	}
}

// cliffordGates lists tableau ops paired with the equivalent state-vector
// ops, for randomized cross-validation.
func randomCliffordCircuit(rng *rand.Rand, n, depth int) *circuit.Circuit {
	c := circuit.New("clifford", n)
	gates := []gate.Gate{gate.H(), gate.S(), gate.Sdg(), gate.X(), gate.Y(), gate.Z(), gate.SX()}
	for i := 0; i < depth; i++ {
		if rng.Intn(3) == 0 && n > 1 {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			switch rng.Intn(3) {
			case 0:
				c.Append(gate.CX(), a, b)
			case 1:
				c.Append(gate.CZ(), a, b)
			default:
				c.Append(gate.Swap(), a, b)
			}
		} else {
			c.Append(gates[rng.Intn(len(gates))], rng.Intn(n))
		}
	}
	return c
}

// TestTableauMatchesStateVector cross-validates the tableau against the
// state-vector engine on random Clifford circuits: the sampled outcome
// distributions must agree in total variation.
func TestTableauMatchesStateVector(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		c := randomCliffordCircuit(rng, n, 15)

		sv := statevec.NewState(n)
		tab := New(n)
		for _, op := range c.Ops() {
			sv.ApplyOp(op.Gate, op.Qubits...)
			if err := tab.ApplyOp(op); err != nil {
				return false
			}
		}
		want := sv.Probabilities()

		const samples = 6000
		counts := make([]int, 1<<uint(n))
		for i := 0; i < samples; i++ {
			counts[tab.Clone().Sample(rng)]++
		}
		var tv float64
		for i := range want {
			tv += math.Abs(want[i] - float64(counts[i])/samples)
		}
		return tv/2 < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestExpectationZMatchesStateVector compares deterministic expectations.
func TestExpectationZMatchesStateVector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		c := randomCliffordCircuit(rng, n, 12)
		sv := statevec.NewState(n)
		tab := New(n)
		for _, op := range c.Ops() {
			sv.ApplyOp(op.Gate, op.Qubits...)
			if err := tab.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < n; q++ {
			want := sv.ExpectationZ(q)
			got := tab.ExpectationZ(q)
			switch got {
			case 1:
				if math.Abs(want-1) > 1e-9 {
					t.Fatalf("qubit %d: tableau says +1, statevec %g", q, want)
				}
			case -1:
				if math.Abs(want+1) > 1e-9 {
					t.Fatalf("qubit %d: tableau says -1, statevec %g", q, want)
				}
			case 0:
				if math.Abs(want) > 1e-9 {
					t.Fatalf("qubit %d: tableau says random, statevec %g", q, want)
				}
			}
		}
	}
}

// TestPauliErrorsMatchGates: ApplyPauli must act like the corresponding
// gate on the stabilizer description.
func TestPauliErrorsMatchGates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 3
		c := randomCliffordCircuit(rng, n, 10)
		a := New(n)
		b := New(n)
		for _, op := range c.Ops() {
			if err := a.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
			if err := b.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
		}
		p := gate.Pauli(rng.Intn(3))
		q := rng.Intn(n)
		a.ApplyPauli(p, q)
		if err := b.ApplyOp(circuit.Op{Gate: p.Gate(), Qubits: []int{q}}); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("Pauli %v on q%d: tableau mismatch\n%s\nvs\n%s", p, q, a.String(), b.String())
		}
	}
}

func TestWideRegisterWordBoundaries(t *testing.T) {
	// Exercise qubits straddling the 64-bit word boundary.
	tab := New(130)
	tab.H(63)
	tab.CX(63, 64)
	tab.CX(64, 129)
	rng := rand.New(rand.NewSource(9))
	a := tab.MeasureZ(63, rng)
	if tab.MeasureZ(64, rng) != a || tab.MeasureZ(129, rng) != a {
		t.Error("GHZ across word boundaries decorrelated")
	}
}

// TestExpectationZLeavesTableauUntouched: the deterministic probe behind
// ExpectationZ must not modify the logical state (only scratch), so
// repeated probes and subsequent measurements see the original tableau.
func TestExpectationZLeavesTableauUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := New(4)
	// A state mixing deterministic and random qubits: GHZ on 0-2, X on 3.
	tab.H(0)
	tab.CX(0, 1)
	tab.CX(1, 2)
	tab.X(3)
	before := tab.String()
	for q := 0; q < 4; q++ {
		tab.ExpectationZ(q)
		tab.ExpectationZ(q) // twice: scratch reuse must not accumulate
	}
	if after := tab.String(); after != before {
		t.Fatalf("ExpectationZ modified the tableau:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// The state still behaves: GHZ qubits remain perfectly correlated.
	bits := tab.Sample(rng)
	ghz := bits & 0b111
	if ghz != 0 && ghz != 0b111 {
		t.Errorf("GHZ correlation broken after probes: sampled %04b", bits)
	}
	if bits&0b1000 == 0 {
		t.Errorf("X qubit lost its flip after probes: sampled %04b", bits)
	}
}

// TestExpectationZMatchesMeasureZ: on deterministic qubits the probe must
// agree with a real collapsing measurement, independent of the RNG handed
// to MeasureZ.
func TestExpectationZMatchesMeasureZ(t *testing.T) {
	prep := []func(tab *Tableau){
		func(tab *Tableau) {},                               // |000>
		func(tab *Tableau) { tab.X(0); tab.X(2) },           // |101>
		func(tab *Tableau) { tab.X(1); tab.Z(1) },           // phases ignored
		func(tab *Tableau) { tab.H(0); tab.CX(0, 1) },       // Bell: q2 det
		func(tab *Tableau) { tab.H(2); tab.S(2); tab.X(0) }, // q2 random
	}
	for pi, p := range prep {
		tab := New(3)
		p(tab)
		for q := 0; q < 3; q++ {
			e := tab.ExpectationZ(q)
			if e == 0 {
				continue // random qubit: MeasureZ would collapse, not comparable
			}
			for seed := int64(0); seed < 3; seed++ {
				got := tab.Clone().MeasureZ(q, rand.New(rand.NewSource(seed)))
				want := e == -1
				if got != want {
					t.Errorf("prep %d qubit %d: ExpectationZ %d but MeasureZ(seed %d) %v",
						pi, q, e, seed, got)
				}
			}
		}
	}
}
