package transpile

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/qmath"
	"repro/internal/statevec"
)

// runOn executes a circuit noiselessly on n qubits.
func runOn(c *circuit.Circuit, n int) *statevec.State {
	s := statevec.NewState(n)
	for _, op := range c.Ops() {
		s.ApplyOp(op.Gate, op.Qubits...)
	}
	return s
}

func TestDecomposeBasisGatesPassThrough(t *testing.T) {
	c := circuit.New("t", 2)
	c.Append(gate.H(), 0)
	c.Append(gate.RZ(0.3), 1)
	c.Append(gate.CX(), 0, 1)
	out, err := Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumOps() != 3 {
		t.Errorf("ops = %d, want 3", out.NumOps())
	}
}

func TestDecomposePreservesSemantics(t *testing.T) {
	// CZ, SWAP, CCX must decompose into circuits with identical action.
	builders := []struct {
		name string
		mk   func() *circuit.Circuit
	}{
		{"cz", func() *circuit.Circuit {
			c := circuit.New("cz", 3)
			c.Append(gate.H(), 0)
			c.Append(gate.H(), 1)
			c.Append(gate.CZ(), 0, 1)
			return c
		}},
		{"swap", func() *circuit.Circuit {
			c := circuit.New("swap", 3)
			c.Append(gate.H(), 0)
			c.Append(gate.T(), 0)
			c.Append(gate.Swap(), 0, 2)
			return c
		}},
		{"ccx", func() *circuit.Circuit {
			c := circuit.New("ccx", 3)
			c.Append(gate.H(), 0)
			c.Append(gate.H(), 1)
			c.Append(gate.CCX(), 0, 1, 2)
			return c
		}},
	}
	for _, b := range builders {
		orig := b.mk()
		dec, err := Decompose(orig)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for _, op := range dec.Ops() {
			if op.Gate.Qubits() > 2 || op.Gate.Kind() == gate.KindCZ ||
				op.Gate.Kind() == gate.KindSwap || op.Gate.Kind() == gate.KindCCX {
				t.Fatalf("%s: %q survived decomposition", b.name, op.Gate.Name())
			}
		}
		a := runOn(orig, 3)
		d := runOn(dec, 3)
		if got := a.Fidelity(d); got < 1-1e-9 {
			t.Errorf("%s: decomposition changed semantics (fidelity %g)", b.name, got)
		}
	}
}

func TestDecomposeRejectsCustomMultiQubit(t *testing.T) {
	c := circuit.New("t", 2)
	c.Append(gate.Controlled(gate.RY(0.3)), 0, 1)
	if _, err := Decompose(c); err == nil {
		t.Error("custom 2q gate accepted")
	}
}

func TestRouteRejectsTooWide(t *testing.T) {
	c := circuit.New("wide", 8)
	c.Append(gate.H(), 7)
	if _, err := ToDevice(c, device.Yorktown()); err == nil {
		t.Error("8-qubit circuit accepted on 5-qubit device")
	}
}

func TestRouteCoupledGatesUntouched(t *testing.T) {
	d := device.Yorktown()
	c := circuit.New("t", 3)
	c.Append(gate.CX(), 0, 1) // coupled on Yorktown
	c.Append(gate.CX(), 1, 2) // coupled
	res, err := ToDevice(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted != 0 {
		t.Errorf("swaps = %d, want 0", res.SwapsInserted)
	}
	s, dd, _ := res.Circuit.CountGates()
	if s != 0 || dd != 2 {
		t.Errorf("counts %d/%d, want 0/2", s, dd)
	}
}

func TestRouteInsertsSwaps(t *testing.T) {
	// On a 3-qubit line, a CX triangle cannot be satisfied by any
	// placement: at least one pair needs routing.
	d := device.Linear(3, 0)
	c := circuit.New("t", 3)
	c.Append(gate.CX(), 0, 1)
	c.Append(gate.CX(), 1, 2)
	c.Append(gate.CX(), 0, 2)
	res, err := ToDevice(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted == 0 {
		t.Error("expected at least one swap for the CX triangle on a line")
	}
	for _, op := range res.Circuit.Ops() {
		if op.Gate.Qubits() == 2 && !d.Coupled(op.Qubits[0], op.Qubits[1]) {
			t.Errorf("uncoupled CX survived routing: %s", op)
		}
	}
}

// TestDegreeMatchedLayoutAvoidsSwaps: a star of CNOTs into one ancilla
// (Bernstein-Vazirani's shape) routes swap-free on Yorktown because the
// hub lands on the center qubit.
func TestDegreeMatchedLayoutAvoidsSwaps(t *testing.T) {
	res, err := ToDevice(bench.BV(5, 0b1111), device.Yorktown())
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted != 0 {
		t.Errorf("BV-5 needed %d swaps; the hub should sit on Q2", res.SwapsInserted)
	}
	_, d, _ := res.Circuit.CountGates()
	if d != 4 {
		t.Errorf("BV-5 CNOTs = %d, want 4 (Table I)", d)
	}
}

// TestRoutingPreservesSemantics: the routed circuit, with its final layout
// applied to relabel outputs, must act identically to the logical circuit.
func TestRoutingPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := device.Linear(4, 0) // line forces routing
		c := circuit.New("fuzz", 4)
		for i := 0; i < 8; i++ {
			switch rng.Intn(3) {
			case 0:
				c.Append(gate.H(), rng.Intn(4))
			case 1:
				c.Append(gate.T(), rng.Intn(4))
			default:
				a := rng.Intn(4)
				b := (a + 1 + rng.Intn(3)) % 4
				c.Append(gate.CX(), a, b)
			}
		}
		res, err := ToDevice(c, d)
		if err != nil {
			return false
		}
		logical := runOn(c, 4)
		physical := runOn(res.Circuit, 4)
		// Permute logical amplitudes into physical positions per layout.
		perm := make([]complex128, physical.Dim())
		for idx := 0; idx < logical.Dim(); idx++ {
			pidx := 0
			for q := 0; q < 4; q++ {
				if idx>>uint(q)&1 == 1 {
					pidx |= 1 << uint(res.FinalLayout[q])
				}
			}
			perm[pidx] = logical.Amplitude(idx)
		}
		return qmath.VecEqual(perm, physical.Amplitudes(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRoutingMeasurementsFollowLayout(t *testing.T) {
	d := device.Linear(3, 0)
	c := circuit.New("t", 3)
	c.Append(gate.X(), 0)
	c.Append(gate.CX(), 0, 2) // forces a swap on the line
	c.MeasureAll()
	res, err := ToDevice(c, d)
	if err != nil {
		t.Fatal(err)
	}
	// Classical bit 0 must still read logical qubit 0 wherever it ended up.
	found := false
	for _, m := range res.Circuit.Measurements() {
		if m.Bit == 0 {
			found = true
			if m.Qubit != res.FinalLayout[0] {
				t.Errorf("bit 0 reads physical %d, layout says %d", m.Qubit, res.FinalLayout[0])
			}
		}
	}
	if !found {
		t.Error("bit 0 measurement missing")
	}
}

func TestTableISuiteTranspilesToYorktown(t *testing.T) {
	d := device.Yorktown()
	for name, c := range bench.Suite(1) {
		res, err := ToDevice(c, d)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := res.Circuit.Validate(); err != nil {
			t.Errorf("%s: routed circuit invalid: %v", name, err)
		}
		for _, op := range res.Circuit.Ops() {
			if op.Gate.Qubits() == 2 && !d.Coupled(op.Qubits[0], op.Qubits[1]) {
				t.Errorf("%s: uncoupled 2q op %s", name, op)
			}
			if op.Gate.Qubits() > 2 {
				t.Errorf("%s: multi-qubit op %s survived", name, op)
			}
		}
	}
}

func TestShortestPath(t *testing.T) {
	d := device.Linear(5, 0)
	p, err := newRouter(d).shortestPath(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if p, _ := newRouter(d).shortestPath(2, 2); len(p) != 1 {
		t.Errorf("self path = %v", p)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	// Build a 3-qubit device with no edges at all.
	dd, err := device.New("island", 3, nil, noise.NewModel("island", 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newRouter(dd).shortestPath(0, 2); err == nil {
		t.Error("disconnected path found")
	}
}

// twoBuildRoute routes c onto d by building the routed circuit for both
// initial layouts and keeping the degree-matched one only on strictly
// fewer SWAPs: what route did before it scored the layouts first. tie
// reports that both layouts inserted the same nonzero number of SWAPs
// but built different circuits, so only the tie-break picked the result.
func twoBuildRoute(t *testing.T, c *circuit.Circuit, d *device.Device) (res *Result, tie bool) {
	t.Helper()
	build := func(start []int) *Result {
		r := newRouter(d)
		out := circuit.New(c.Name(), d.NumQubits())
		swaps, err := r.walk(c, start, out)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range c.Measurements() {
			out.Measure(r.l2p[m.Qubit], m.Bit)
		}
		return &Result{Circuit: out, SwapsInserted: swaps, FinalLayout: slices.Clone(r.l2p)}
	}
	identity := make([]int, d.NumQubits())
	for i := range identity {
		identity[i] = i
	}
	best := build(identity)
	alt := build(initialLayout(c, d))
	if alt.SwapsInserted < best.SwapsInserted {
		return alt, false
	}
	tie = alt.SwapsInserted == best.SwapsInserted && best.SwapsInserted > 0 &&
		!reflect.DeepEqual(alt.Circuit.Ops(), best.Circuit.Ops())
	return best, tie
}

// randomLogical draws a circuit of n ops over q qubits mixing the basis
// gates with CZ, SWAP and CCX, all measured.
func randomLogical(rng *rand.Rand, q, n int) *circuit.Circuit {
	c := circuit.New("rand", q)
	for i := 0; i < n; i++ {
		p := rng.Perm(q)
		switch rng.Intn(7) {
		case 0:
			c.Append(gate.H(), p[0])
		case 1:
			c.Append(gate.RZ(rng.Float64()), p[0])
		case 2:
			c.Append(gate.CZ(), p[0], p[1])
		case 3:
			c.Append(gate.Swap(), p[0], p[1])
		case 4:
			c.Append(gate.CCX(), p[0], p[1], p[2])
		default:
			c.Append(gate.CX(), p[0], p[1])
		}
	}
	return c.MeasureAll()
}

// TestToDeviceMatchesTwoBuildRoute: scoring the layouts before building
// gives the same ops, measurements, SWAP count and final layout as
// building both and picking, on the Table I circuits and on random
// circuits, ties between the two layouts included.
func TestToDeviceMatchesTwoBuildRoute(t *testing.T) {
	check := func(name string, c *circuit.Circuit, d *device.Device) (tie bool) {
		t.Helper()
		got, err := ToDevice(c, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := Decompose(c)
		if err != nil {
			t.Fatal(err)
		}
		want, tie := twoBuildRoute(t, dec, d)
		if !reflect.DeepEqual(got.Circuit.Ops(), want.Circuit.Ops()) {
			t.Errorf("%s: routed ops differ from the two-build route", name)
		}
		if !slices.Equal(got.Circuit.Measurements(), want.Circuit.Measurements()) {
			t.Errorf("%s: measurements %v, want %v", name, got.Circuit.Measurements(), want.Circuit.Measurements())
		}
		if got.SwapsInserted != want.SwapsInserted || !slices.Equal(got.FinalLayout, want.FinalLayout) {
			t.Errorf("%s: %d swaps, layout %v; want %d, %v", name, got.SwapsInserted, got.FinalLayout, want.SwapsInserted, want.FinalLayout)
		}
		return tie
	}
	yorktown := device.Yorktown()
	for name, c := range bench.Suite(1) {
		check(name, c, yorktown)
	}
	rng := rand.New(rand.NewSource(17))
	ties := 0
	for i := 0; i < 300; i++ {
		d := yorktown
		if i%2 == 1 {
			d = device.Linear(5, 0)
		}
		if check(fmt.Sprintf("random %d", i), randomLogical(rng, 3+rng.Intn(3), 1+rng.Intn(12)), d) {
			ties++
		}
	}
	t.Logf("%d of 300 random circuits tie the layouts on a nonzero SWAP count with different ops", ties)
	if ties < 10 {
		t.Errorf("only %d random circuits tie the layouts", ties)
	}
}

// TestToDeviceAllocsFlatInOps: transpiling allocates per call, not per
// op; the count is the same for a circuit and for its ops repeated four
// times.
func TestToDeviceAllocsFlatInOps(t *testing.T) {
	d := device.Linear(5, 0)
	base := randomLogical(rand.New(rand.NewSource(3)), 5, 40)
	long := circuit.New("long", 5)
	for range 4 {
		for _, op := range base.Ops() {
			long.Append(op.Gate, op.Qubits...)
		}
	}
	long.MeasureAll()
	count := func(c *circuit.Circuit) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := ToDevice(c, d); err != nil {
				t.Fatal(err)
			}
		})
	}
	res, err := ToDevice(long, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted == 0 {
		t.Fatal("test circuit needs no SWAPs; it should exercise routing")
	}
	a, b := count(base), count(long)
	t.Logf("%.0f allocations for %d ops and for %d ops (%d SWAPs)", a, base.NumOps(), long.NumOps(), res.SwapsInserted)
	if a != b {
		t.Errorf("ToDevice allocations: %.0f for %d ops, %.0f for %d ops", a, base.NumOps(), b, long.NumOps())
	}
}

// TestDecomposedSizeMatchesDecompose: the counts Decompose presizes from
// are the ops and qubit indices it then emits, gate kind by gate kind.
func TestDecomposedSizeMatchesDecompose(t *testing.T) {
	c := circuit.New("kinds", 3)
	c.Append(gate.H(), 0)
	c.Append(gate.CX(), 0, 1)
	c.Append(gate.CZ(), 1, 2)
	c.Append(gate.Swap(), 2, 0)
	c.Append(gate.CCX(), 0, 1, 2)
	for _, op := range c.Ops() {
		one := circuit.New("one", 3)
		one.Append(op.Gate, op.Qubits...)
		dec, err := Decompose(one)
		if err != nil {
			t.Fatal(err)
		}
		qubits := 0
		for _, d := range dec.Ops() {
			qubits += len(d.Qubits)
		}
		if ops, q := decomposedSize(op); ops != dec.NumOps() || q != qubits {
			t.Errorf("%s: decomposedSize (%d ops, %d qubits), Decompose emits (%d, %d)", op.Gate.Name(), ops, q, dec.NumOps(), qubits)
		}
	}
}
