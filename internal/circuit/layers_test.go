package circuit_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/gate"
	"repro/internal/transpile"
)

// checkLayers fails unless c.Layers() is, under both layering policies,
// the op indices grouped by OpLayer in op order, every layer nonempty and
// none able to grow into its neighbour.
func checkLayers(t *testing.T, label string, c *circuit.Circuit) {
	t.Helper()
	for _, policy := range []circuit.Layering{circuit.ASAP, circuit.ALAP} {
		c.SetLayering(policy)
		want := make([][]int, c.NumLayers())
		for i := range c.Ops() {
			want[c.OpLayer(i)] = append(want[c.OpLayer(i)], i)
		}
		got := c.Layers()
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("%s %v: Layers() = %v, want %v", label, policy, got, want)
		}
		for l, idx := range got {
			if len(idx) == 0 || len(idx) != cap(idx) {
				t.Fatalf("%s %v: layer %d has %d ops in a window of capacity %d", label, policy, l, len(idx), cap(idx))
			}
		}
	}
	c.SetLayering(circuit.ASAP)
}

// randomCircuit draws ops ops of one- and two-qubit gates over n qubits.
func randomCircuit(rng *rand.Rand, n, ops int) *circuit.Circuit {
	c := circuit.New("random", n)
	for range ops {
		if a, b := rng.Intn(n), rng.Intn(n); a != b && rng.Intn(3) == 0 {
			c.Append(gate.CX(), a, b)
		} else {
			c.Append(gate.H(), a)
		}
	}
	return c
}

// TestLayersMatchOpLayers: layering into one slab groups exactly the ops
// OpLayer assigns, in op order, on the Table I circuits as built and as
// transpiled onto Yorktown, and on random circuits.
func TestLayersMatchOpLayers(t *testing.T) {
	dev := device.Yorktown()
	suite := bench.Suite(1)
	for _, ref := range bench.TableI {
		c := suite[ref.Name]
		checkLayers(t, ref.Name, c)
		tr, err := transpile.ToDevice(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		checkLayers(t, ref.Name+" on Yorktown", tr.Circuit)
	}
	rng := rand.New(rand.NewSource(5))
	for round := range 100 {
		checkLayers(t, fmt.Sprintf("random circuit %d", round), randomCircuit(rng, 1+rng.Intn(6), 1+rng.Intn(80)))
	}
}

// TestLayeringAllocsFlatInDepth: layering a circuit allocates as often at
// depth 400 as at depth 10.
func TestLayeringAllocsFlatInDepth(t *testing.T) {
	allocs := func(depth int) float64 {
		c := circuit.New("chain", 2)
		for range depth {
			c.Append(gate.H(), 0)
			c.Append(gate.CX(), 0, 1)
		}
		return testing.AllocsPerRun(10, func() {
			c.SetLayering(circuit.ALAP)
			c.Layers()
			c.SetLayering(circuit.ASAP)
			c.Layers()
		})
	}
	if shallow, deep := allocs(10), allocs(400); shallow != deep {
		t.Errorf("layering allocates %.0f times at depth 10, %.0f at depth 400", shallow, deep)
	}
}
