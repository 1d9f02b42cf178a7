package circuit

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gate"
)

func TestNewCircuit(t *testing.T) {
	c := New("test", 3)
	if c.Name() != "test" || c.NumQubits() != 3 || c.NumBits() != 3 {
		t.Fatalf("metadata wrong: %q %d %d", c.Name(), c.NumQubits(), c.NumBits())
	}
	if c.NumOps() != 0 || c.NumLayers() != 0 {
		t.Errorf("empty circuit has ops/layers: %d/%d", c.NumOps(), c.NumLayers())
	}
}

func TestNewPanicsOnZeroQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New("bad", 0)
}

func TestAppendValidation(t *testing.T) {
	c := New("t", 2)
	cases := []struct {
		name string
		fn   func()
	}{
		{"arity", func() { c.Append(gate.CX(), 0) }},
		{"range", func() { c.Append(gate.H(), 2) }},
		{"negative", func() { c.Append(gate.H(), -1) }},
		{"duplicate", func() { c.Append(gate.CX(), 1, 1) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestMeasureValidation(t *testing.T) {
	c := New("t", 2)
	c.Measure(0, 0)
	for _, fn := range []func(){
		func() { c.Measure(0, 1) }, // qubit twice
		func() { c.Measure(1, 0) }, // bit twice
		func() { c.Measure(5, 1) }, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Measure did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestLayeringSerialChain(t *testing.T) {
	c := New("t", 1)
	c.Append(gate.H(), 0)
	c.Append(gate.T(), 0)
	c.Append(gate.H(), 0)
	if c.NumLayers() != 3 {
		t.Errorf("serial chain layers = %d, want 3", c.NumLayers())
	}
}

func TestLayeringParallelGates(t *testing.T) {
	c := New("t", 3)
	c.Append(gate.H(), 0)
	c.Append(gate.H(), 1)
	c.Append(gate.H(), 2)
	if c.NumLayers() != 1 {
		t.Errorf("parallel gates layers = %d, want 1", c.NumLayers())
	}
	if len(c.Layers()[0]) != 3 {
		t.Errorf("layer 0 has %d ops, want 3", len(c.Layers()[0]))
	}
}

func TestLayeringMixed(t *testing.T) {
	// h q0; h q1; cx q0,q1; h q2 — cx must wait for both Hs; h q2 fits in
	// layer 0.
	c := New("t", 3)
	c.Append(gate.H(), 0)
	c.Append(gate.H(), 1)
	c.Append(gate.CX(), 0, 1)
	c.Append(gate.H(), 2)
	if c.NumLayers() != 2 {
		t.Fatalf("layers = %d, want 2", c.NumLayers())
	}
	if c.OpLayer(2) != 1 {
		t.Errorf("cx layer = %d, want 1", c.OpLayer(2))
	}
	if c.OpLayer(3) != 0 {
		t.Errorf("h q2 layer = %d, want 0 (ASAP)", c.OpLayer(3))
	}
}

func TestLayersInvalidatedByAppend(t *testing.T) {
	c := New("t", 2)
	c.Append(gate.H(), 0)
	if c.NumLayers() != 1 {
		t.Fatal("precondition")
	}
	c.Append(gate.T(), 0)
	if c.NumLayers() != 2 {
		t.Errorf("layers after append = %d, want 2", c.NumLayers())
	}
}

func TestLayersNoQubitCollision(t *testing.T) {
	// Property-style check over a deterministic pseudo-random circuit.
	c := New("t", 5)
	seq := []int{0, 1, 2, 3, 4, 0, 2, 4, 1, 3}
	for i, q := range seq {
		if i%3 == 2 {
			c.Append(gate.CX(), q, (q+1)%5)
		} else {
			c.Append(gate.H(), q)
		}
	}
	for l, idx := range c.Layers() {
		used := map[int]bool{}
		for _, oi := range idx {
			for _, q := range c.Op(oi).Qubits {
				if used[q] {
					t.Fatalf("layer %d reuses qubit %d", l, q)
				}
				used[q] = true
			}
		}
	}
}

func TestCountGates(t *testing.T) {
	c := New("t", 3)
	c.Append(gate.H(), 0)
	c.Append(gate.X(), 1)
	c.Append(gate.CX(), 0, 1)
	c.Append(gate.CCX(), 0, 1, 2)
	s, d, m := c.CountGates()
	if s != 2 || d != 1 || m != 1 {
		t.Errorf("counts = %d/%d/%d, want 2/1/1", s, d, m)
	}
}

func TestCloneDeep(t *testing.T) {
	c := New("t", 2)
	c.Append(gate.H(), 0)
	c.Measure(0, 0)
	cp := c.Clone()
	cp.Append(gate.X(), 1)
	cp.Measure(1, 1)
	if c.NumOps() != 1 || len(c.Measurements()) != 1 {
		t.Error("clone mutation leaked into original")
	}
}

// TestAppendQubitsDoNotAlias: ops carve their qubit lists from one shared
// block, each capacity-limited, so an append to one op's Qubits copies
// instead of overwriting the next op's.
func TestAppendQubitsDoNotAlias(t *testing.T) {
	for _, grow := range []bool{false, true} {
		c := New("t", 4)
		if grow {
			c.Grow(3, 5)
		}
		c.Append(gate.CX(), 0, 1)
		c.Append(gate.H(), 2)
		c.Append(gate.CX(), 3, 2)
		ops := c.Ops()
		for i := range ops {
			if cap(ops[i].Qubits) != len(ops[i].Qubits) {
				t.Fatalf("grow %v: op %d qubits len %d cap %d", grow, i, len(ops[i].Qubits), cap(ops[i].Qubits))
			}
			_ = append(ops[i].Qubits, 3, 3, 3)
		}
		want := [][]int{{0, 1}, {2}, {3, 2}}
		for i, w := range want {
			if got := c.Op(i).Qubits; !slices.Equal(got, w) {
				t.Errorf("grow %v: op %d qubits %v after appends, want %v", grow, i, got, w)
			}
		}
		if err := c.Validate(); err != nil {
			t.Errorf("grow %v: %v", grow, err)
		}
	}
}

// TestCloneDoesNotShareQubits: a clone's ops own their qubit lists; a
// write through either circuit leaves the other unchanged.
func TestCloneDoesNotShareQubits(t *testing.T) {
	c := New("t", 3)
	c.Append(gate.CX(), 0, 1)
	c.Append(gate.CCX(), 0, 1, 2)
	cp := c.Clone()
	cp.Ops()[0].Qubits[0] = 2
	c.Ops()[1].Qubits[2] = 0
	if got := c.Op(0).Qubits; !slices.Equal(got, []int{0, 1}) {
		t.Errorf("write to the clone reached the original: %v", got)
	}
	if got := cp.Op(1).Qubits; !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("write to the original reached the clone: %v", got)
	}
	for i, op := range cp.Ops() {
		if cap(op.Qubits) != len(op.Qubits) {
			t.Errorf("clone op %d qubits len %d cap %d", i, len(op.Qubits), cap(op.Qubits))
		}
	}
}

// TestGrowThenAppendAllocatesNothing: after Grow(n, q), n Appends holding
// q qubit indices between them allocate nothing beyond what New and Grow
// did.
func TestGrowThenAppendAllocatesNothing(t *testing.T) {
	const n = 64
	build := func(appends int) func() {
		return func() {
			c := New("t", 3)
			c.Grow(n, 3*n/2)
			for i := 0; i < appends/2; i++ {
				c.Append(gate.H(), i%3)
				c.Append(gate.CX(), i%3, (i+1)%3)
			}
		}
	}
	grown := testing.AllocsPerRun(20, build(0))
	if filled := testing.AllocsPerRun(20, build(n)); filled != grown {
		t.Errorf("Grow then %d Appends: %.0f allocations, Grow alone %.0f", n, filled, grown)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := New("t", 2)
	c.Append(gate.H(), 0)
	if err := c.Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
	// Corrupt an op directly (bypassing Append's checks).
	c.ops[0].Qubits[0] = 9
	if err := c.Validate(); err == nil {
		t.Error("corrupted circuit accepted")
	}
}

func TestMeasureAll(t *testing.T) {
	c := New("t", 3)
	c.MeasureAll()
	if len(c.Measurements()) != 3 {
		t.Errorf("MeasureAll gave %d measurements", len(c.Measurements()))
	}
}

func TestStringRendering(t *testing.T) {
	c := New("demo", 2)
	c.Append(gate.H(), 0)
	c.Append(gate.CX(), 0, 1)
	c.Measure(0, 0)
	s := c.String()
	for _, want := range []string{"demo", "h q[0]", "cx q[0],q[1]", "measure q[0] -> c[0]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestOpString(t *testing.T) {
	op := Op{Gate: gate.CX(), Qubits: []int{1, 2}}
	if got := op.String(); got != "cx q[1],q[2]" {
		t.Errorf("Op.String = %q", got)
	}
}

func TestLayerOps(t *testing.T) {
	c := New("t", 2)
	c.Append(gate.H(), 0)
	c.Append(gate.H(), 1)
	ops := c.LayerOps(0)
	if len(ops) != 2 {
		t.Fatalf("LayerOps(0) = %d ops", len(ops))
	}
}

func TestALAPPushesGatesLater(t *testing.T) {
	// h q1 alone; q0 has a 3-gate chain. ASAP puts h q1 in layer 0; ALAP
	// in the last layer.
	c := New("t", 2)
	c.Append(gate.H(), 0)
	c.Append(gate.T(), 0)
	c.Append(gate.H(), 0)
	c.Append(gate.H(), 1)
	if got := c.OpLayer(3); got != 0 {
		t.Errorf("ASAP layer of lone h = %d, want 0", got)
	}
	c.SetLayering(ALAP)
	if got := c.OpLayer(3); got != 2 {
		t.Errorf("ALAP layer of lone h = %d, want 2", got)
	}
	if c.NumLayers() != 3 {
		t.Errorf("ALAP depth = %d, want 3 (same as ASAP)", c.NumLayers())
	}
	// Switching back restores ASAP.
	c.SetLayering(ASAP)
	if got := c.OpLayer(3); got != 0 {
		t.Errorf("ASAP restore failed: layer %d", got)
	}
}

func TestALAPPreservesDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 30; trial++ {
		c := New("t", 4)
		for i := 0; i < 20; i++ {
			if rng.Intn(2) == 0 {
				c.Append(gate.H(), rng.Intn(4))
			} else {
				a := rng.Intn(4)
				c.Append(gate.CX(), a, (a+1+rng.Intn(3))%4)
			}
		}
		c.SetLayering(ALAP)
		// Dependencies: op order on each qubit must match layer order.
		last := make(map[int]int) // qubit -> layer of last op seen
		for i := 0; i < c.NumOps(); i++ {
			l := c.OpLayer(i)
			for _, q := range c.Op(i).Qubits {
				if prev, ok := last[q]; ok && l <= prev {
					t.Fatalf("ALAP violated dependency on q%d: layer %d after %d", q, l, prev)
				}
				last[q] = l
			}
		}
		// No qubit collisions within a layer.
		for l, idx := range c.Layers() {
			used := map[int]bool{}
			for _, oi := range idx {
				for _, q := range c.Op(oi).Qubits {
					if used[q] {
						t.Fatalf("ALAP layer %d reuses qubit %d", l, q)
					}
					used[q] = true
				}
			}
		}
	}
}

func TestLayeringString(t *testing.T) {
	if ASAP.String() != "asap" || ALAP.String() != "alap" {
		t.Error("Layering strings wrong")
	}
}

func TestCloneKeepsLayering(t *testing.T) {
	c := New("t", 2)
	c.Append(gate.H(), 0)
	c.SetLayering(ALAP)
	if c.Clone().LayeringPolicy() != ALAP {
		t.Error("clone lost layering policy")
	}
}
