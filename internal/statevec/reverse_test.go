package statevec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/qmath"
)

// randPermCircuit builds a random circuit using only the exactly
// invertible signed-permutation gates (I, X, Z, CX, CZ, Swap, CCX).
func randPermCircuit(rng *rand.Rand, n, nops int) *circuit.Circuit {
	c := circuit.New("perm-rand", n)
	for i := 0; i < nops; i++ {
		switch pick := rng.Intn(6); {
		case pick < 3: // single-qubit
			gates := []gate.Gate{gate.I(), gate.X(), gate.Z()}
			c.Append(gates[rng.Intn(len(gates))], rng.Intn(n))
		case pick < 5 && n >= 2: // two-qubit
			q0 := rng.Intn(n)
			q1 := rng.Intn(n)
			for q1 == q0 {
				q1 = rng.Intn(n)
			}
			gates := []gate.Gate{gate.CX(), gate.CZ(), gate.Swap()}
			c.Append(gates[rng.Intn(len(gates))], q0, q1)
		case n >= 3:
			q0, q1, q2 := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			for q1 == q0 {
				q1 = rng.Intn(n)
			}
			for q2 == q0 || q2 == q1 {
				q2 = rng.Intn(n)
			}
			c.Append(gate.CCX(), q0, q1, q2)
		default:
			c.Append(gate.X(), rng.Intn(n))
		}
	}
	return c
}

// TestRunReverseExactRoundTrip is the core uncompute property: on a
// circuit of exactly invertible gates, RunReverse undoes Run bit-for-bit
// — every amplitude, including zero signs — under FuseOff.
func TestRunReverseExactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(5)
		c := randPermCircuit(rng, n, 3+rng.Intn(20))
		init := randState(rng, n)
		p := CompileWith(c, CompileOptions{Fuse: FuseOff})
		if !p.SegmentExactlyInvertible(0, p.NumLayers()) {
			t.Fatal("permutation circuit reported not exactly invertible")
		}
		s := init.Clone()
		fwd := p.Run(s, 0, p.NumLayers())
		rev := p.RunReverse(s, 0, p.NumLayers())
		if fwd != rev {
			t.Fatalf("reverse ops %d != forward ops %d", rev, fwd)
		}
		if i, ok := statesBitEqual(init, s); !ok {
			t.Fatalf("trial %d: amplitude %d differs after reverse round trip", trial, i)
		}
	}
}

// TestRunReverseNumericTolerance: on arbitrary circuits (rotations,
// custom unitaries, the full gate set) reverse execution is the adjoint
// within rounding — each fold and multiply is ~1 ulp, so the round trip
// error stays within a conservative multiple of machine epsilon per
// amplitude.
func TestRunReverseNumericTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	modes := []FuseMode{FuseOff, FuseNumeric}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5)
		c := randCompileCircuit(rng, n, 3+rng.Intn(15))
		init := randState(rng, n)
		for _, mode := range modes {
			p := CompileWith(c, CompileOptions{Fuse: mode})
			s := init.Clone()
			p.Run(s, 0, p.NumLayers())
			p.RunReverse(s, 0, p.NumLayers())
			for i := range init.amp {
				if d := cmplxAbs(s.amp[i] - init.amp[i]); d > 1e-10 {
					t.Fatalf("mode %v trial %d: amplitude %d off by %g after reverse", mode, trial, i, d)
				}
			}
		}
	}
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// TestReverseSegmentOps: the reverse lowering of any range reports
// exactly the forward logical-op count — uncompute cost accounting
// depends on this symmetry.
func TestReverseSegmentOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randCompileCircuit(rng, 4, 30)
	for _, mode := range []FuseMode{FuseOff, FuseNumeric} {
		p := CompileWith(c, CompileOptions{Fuse: mode})
		L := p.NumLayers()
		for from := 0; from <= L; from++ {
			for to := from; to <= L; to++ {
				if got, want := p.CompileReverse(from, to), p.SegmentOps(from, to); got != want {
					t.Fatalf("mode %v: reverse ops[%d,%d) = %d, forward = %d", mode, from, to, got, want)
				}
			}
		}
	}
}

// TestSegmentExactlyInvertible: the per-range predicate is the AND of
// per-layer invertibility.
func TestSegmentExactlyInvertible(t *testing.T) {
	c := circuit.New("mixed", 2)
	c.Append(gate.X(), 0) // layer 0: exact
	c.Append(gate.CX(), 0, 1)
	c.Append(gate.H(), 0) // some later layer: not exact
	c.Append(gate.Z(), 1)
	p := CompileWith(c, CompileOptions{})
	if !p.SegmentExactlyInvertible(0, 0) {
		t.Error("empty range must be exactly invertible")
	}
	if !p.SegmentExactlyInvertible(0, 1) {
		t.Error("X layer must be exactly invertible")
	}
	if p.SegmentExactlyInvertible(0, p.NumLayers()) {
		t.Error("range containing H must not be exactly invertible")
	}
}

// TestExactlyInvertiblePredicates pins the exact/approximate split: only
// pure signed-permutation gates (and the X/Z Paulis) round-trip
// bit-exactly; everything that multiplies is excluded.
func TestExactlyInvertiblePredicates(t *testing.T) {
	exact := []gate.Gate{gate.I(), gate.X(), gate.Z(), gate.CX(), gate.CZ(), gate.Swap(), gate.CCX()}
	for _, g := range exact {
		if !ExactlyInvertible(g) {
			t.Errorf("%s must be exactly invertible", g.Name())
		}
	}
	approx := []gate.Gate{
		gate.Y(), gate.H(), gate.S(), gate.Sdg(), gate.T(), gate.Tdg(), gate.SX(),
		gate.RX(0.3), gate.RY(0.3), gate.RZ(0.3), gate.P(0.3), gate.U1(0.3),
		gate.Custom("c1", gate.H().Matrix()),
	}
	for _, g := range approx {
		if ExactlyInvertible(g) {
			t.Errorf("%s must not be exactly invertible", g.Name())
		}
	}
	if !ExactlyInvertiblePauli(gate.PauliX) || !ExactlyInvertiblePauli(gate.PauliZ) {
		t.Error("Pauli X and Z must be exactly invertible")
	}
	if ExactlyInvertiblePauli(gate.PauliY) {
		t.Error("Pauli Y must not be exactly invertible (multiplies by ±i)")
	}
}

// TestReverseSegmentCacheSharing: reverse segments go through the
// content-addressed cache with a direction bit — a second program of the
// same circuit reuses the compiled reverse, and the reverse entry never
// collides with the forward one.
func TestReverseSegmentCacheSharing(t *testing.T) {
	ResetSegmentCache()
	defer ResetSegmentCache()
	rng := rand.New(rand.NewSource(5))
	c := randCompileCircuit(rng, 3, 12)

	p1 := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
	p1.Run(NewState(3), 0, p1.NumLayers())
	_, missFwd := SegmentCacheStats()
	p1.CompileReverse(0, p1.NumLayers())
	hits0, missRev := SegmentCacheStats()
	if missRev != missFwd+1 {
		t.Fatalf("reverse lowering must miss the cache once: misses %d -> %d", missFwd, missRev)
	}

	p2 := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
	p2.CompileReverse(0, p2.NumLayers())
	hits1, miss1 := SegmentCacheStats()
	if miss1 != missRev || hits1 != hits0+1 {
		t.Fatalf("second program must share the reverse segment: hits %d->%d misses %d->%d",
			hits0, hits1, missRev, miss1)
	}

	// Distinct direction, same content: both survive in the cache.
	s1 := NewState(3)
	p2.Run(s1, 0, p2.NumLayers())
	p2.RunReverse(s1, 0, p2.NumLayers())
}

// FuzzDaggerRoundTrip: applying g then gate.Dagger(g) on a random
// normalized state returns the original amplitudes bit-exactly for the
// signed-permutation gates (the ExactlyInvertible set) and within a
// conservative ulp-bounded tolerance (1e-12 absolute per amplitude, far
// above the ~1 ulp per multiply the round trip actually accrues) for
// everything else — rotations, phases, customs included. This is the
// documented exact/approx split the uncompute executor relies on.
func FuzzDaggerRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(7))
	f.Add(int64(3), uint8(13))
	f.Add(int64(4), uint8(19))
	f.Fuzz(func(t *testing.T, seed int64, pick uint8) {
		rng := rand.New(rand.NewSource(seed))
		gates := []gate.Gate{
			gate.I(), gate.X(), gate.Y(), gate.Z(), gate.H(),
			gate.S(), gate.Sdg(), gate.T(), gate.Tdg(), gate.SX(),
			gate.RX(rng.Float64() * 2 * math.Pi),
			gate.RY(rng.Float64() * 2 * math.Pi),
			gate.RZ(rng.Float64() * 2 * math.Pi),
			gate.P(rng.Float64() * 2 * math.Pi),
			gate.U1(rng.Float64() * 2 * math.Pi),
			gate.U2(rng.Float64(), rng.Float64()),
			gate.U3(rng.Float64(), rng.Float64(), rng.Float64()),
			gate.CX(), gate.CZ(), gate.Swap(), gate.CCX(),
			gate.Controlled(gate.RY(rng.Float64() * 2 * math.Pi)),
			gate.Custom("k2", qmath.KronAll(gate.H().Matrix(), gate.T().Matrix())),
		}
		g := gates[int(pick)%len(gates)]
		n := g.Qubits() + rng.Intn(2)
		qubits := rng.Perm(n)[:g.Qubits()]

		init := randState(rng, n)
		s := init.Clone()
		s.ApplyOp(g, qubits...)
		s.ApplyOp(gate.Dagger(g), qubits...)

		if ExactlyInvertible(g) {
			if i, ok := statesBitEqual(init, s); !ok {
				t.Fatalf("%s: amplitude %d not bit-identical after dagger round trip", g.Name(), i)
			}
			return
		}
		for i := range init.amp {
			if d := cmplxAbs(s.amp[i] - init.amp[i]); d > 1e-12 {
				t.Fatalf("%s: amplitude %d off by %g after dagger round trip", g.Name(), i, d)
			}
		}
	})
}
