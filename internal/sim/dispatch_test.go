package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/qmath"
	"repro/internal/statevec"
)

// everyKindCircuit draws a circuit that cycles through every dispatch
// kernel family — identity, X, Y, Z, H, diagonal, generic 1q, CX, CZ,
// SWAP, generic 2q, CCX and a dense 3q unitary — on random qubits.
func everyKindCircuit(rng *rand.Rand, n, nops int) *circuit.Circuit {
	c := circuit.New("every-kind", n)
	angle := func() float64 { return rng.Float64() * 2 * math.Pi }
	distinct := func(k int) []int { return rng.Perm(n)[:k] }
	for i := 0; i < nops; i++ {
		switch i % 13 {
		case 0:
			c.Append(gate.I(), rng.Intn(n))
		case 1:
			c.Append(gate.X(), rng.Intn(n))
		case 2:
			c.Append(gate.Y(), rng.Intn(n))
		case 3:
			c.Append(gate.Z(), rng.Intn(n))
		case 4:
			c.Append(gate.H(), rng.Intn(n))
		case 5:
			diag := []gate.Gate{gate.S(), gate.Sdg(), gate.T(), gate.Tdg(), gate.RZ(angle()), gate.P(angle()), gate.U1(angle())}
			c.Append(diag[rng.Intn(len(diag))], rng.Intn(n))
		case 6:
			oneQ := []gate.Gate{gate.U3(angle(), angle(), angle()), gate.U2(angle(), angle()), gate.SX(), gate.RX(angle()), gate.RY(angle())}
			c.Append(oneQ[rng.Intn(len(oneQ))], rng.Intn(n))
		case 7:
			c.Append(gate.CX(), distinct(2)...)
		case 8:
			c.Append(gate.CZ(), distinct(2)...)
		case 9:
			c.Append(gate.Swap(), distinct(2)...)
		case 10:
			c.Append(gate.Controlled(gate.U3(angle(), angle(), angle())), distinct(2)...)
		case 11:
			c.Append(gate.CCX(), distinct(3)...)
		case 12:
			m := qmath.KronAll(gate.H().Matrix(), gate.T().Matrix(), gate.RY(angle()).Matrix())
			c.Append(gate.Custom("k3", m), distinct(3)...)
		}
	}
	return c
}

func randomState(rng *rand.Rand, n int) *statevec.State {
	amp := make([]complex128, 1<<uint(n))
	for i := range amp {
		amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	st, err := statevec.FromAmplitudes(amp)
	if err != nil {
		panic(err)
	}
	return st
}

// TestDispatchTableBitIdentical: a nil-program branchState advancing
// through the resolved dispatch table, gate-by-gate ApplyOp, and FuseOff
// and FuseExact programs leave Float64bits-identical states and count the
// same ops, over random layer ranges of circuits using every gate kind.
func TestDispatchTableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 40; iter++ {
		n := 3 + iter%4
		c := everyKindCircuit(rng, n, 13+rng.Intn(40))
		layers := c.Layers()
		from := rng.Intn(len(layers))
		to := from + 1 + rng.Intn(len(layers)-from)
		if iter%5 == 0 {
			from, to = 0, len(layers)
		}
		init := randomState(rng, n)

		ref := init.Clone()
		refOps := 0
		for l := from; l < to; l++ {
			for _, oi := range layers[l] {
				op := c.Op(oi)
				ref.ApplyOp(op.Gate, op.Qubits...)
				refOps++
			}
		}

		res := newResult(nil, 0, false)
		bs := newBranchState(c, Options{}, newAdvancer(c, nil, 0), res, &msvTracker{}, nil, true)
		if bs.tab == nil {
			t.Fatal("nil program did not build a dispatch table")
		}
		bs.work = init.Clone()
		bs.Advance(from, to)
		if !bitIdenticalStates(ref, bs.work) || res.Ops != int64(refOps) {
			t.Fatalf("iter %d: table path over [%d,%d) differs from ApplyOp (ops %d vs %d)", iter, from, to, res.Ops, refOps)
		}

		for _, mode := range []statevec.FuseMode{statevec.FuseOff, statevec.FuseExact} {
			st := init.Clone()
			ops := statevec.CompileWith(c, statevec.CompileOptions{Fuse: mode}).RunSerial(st, from, to)
			if !bitIdenticalStates(ref, st) || ops != refOps {
				t.Fatalf("iter %d: %v program over [%d,%d) differs from ApplyOp (ops %d vs %d)", iter, mode, from, to, ops, refOps)
			}
		}
	}
}
