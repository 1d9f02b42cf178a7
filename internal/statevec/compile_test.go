package statevec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/qmath"
)

// randCompileCircuit builds a random circuit over the full gate set the
// compiler must handle: every specialized kind, parameterized rotations,
// custom 1q/2q/3q unitaries, and identity gates (counted but compiled
// away).
func randCompileCircuit(rng *rand.Rand, n, nops int) *circuit.Circuit {
	c := circuit.New("compile-rand", n)
	for i := 0; i < nops; i++ {
		switch pick := rng.Intn(10); {
		case pick < 5: // single-qubit
			q := rng.Intn(n)
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
			}
			c.Append(gates[rng.Intn(len(gates))], q)
		case pick < 8 && n >= 2: // two-qubit
			q0 := rng.Intn(n)
			q1 := rng.Intn(n)
			for q1 == q0 {
				q1 = rng.Intn(n)
			}
			switch rng.Intn(4) {
			case 0:
				c.Append(gate.CX(), q0, q1)
			case 1:
				c.Append(gate.CZ(), q0, q1)
			case 2:
				c.Append(gate.Swap(), q0, q1)
			default:
				c.Append(gate.Controlled(gate.RY(rng.Float64()*2*math.Pi)), q0, q1)
			}
		case pick < 9 && n >= 3: // three-qubit
			q0, q1, q2 := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			for q1 == q0 {
				q1 = rng.Intn(n)
			}
			for q2 == q0 || q2 == q1 {
				q2 = rng.Intn(n)
			}
			if rng.Intn(2) == 0 {
				c.Append(gate.CCX(), q0, q1, q2)
			} else {
				// A separable 8x8 custom forces the generic kq path.
				m := qmath.KronAll(gate.H().Matrix(), gate.T().Matrix(), gate.RX(rng.Float64()).Matrix())
				c.Append(gate.Custom("k3", m), q0, q1, q2)
			}
		default:
			c.Append(gate.H(), rng.Intn(n))
		}
	}
	return c
}

// randState returns a normalized random state.
func randState(rng *rand.Rand, n int) *State {
	amp := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range amp {
		amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amp[i])*real(amp[i]) + imag(amp[i])*imag(amp[i])
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range amp {
		amp[i] *= inv
	}
	s, err := FromAmplitudes(amp)
	if err != nil {
		panic(err)
	}
	return s
}

func statesBitEqual(a, b *State) (int, bool) {
	for i := range a.amp {
		if math.Float64bits(real(a.amp[i])) != math.Float64bits(real(b.amp[i])) ||
			math.Float64bits(imag(a.amp[i])) != math.Float64bits(imag(b.amp[i])) {
			return i, false
		}
	}
	return 0, true
}

// applyDispatch replays the circuit gate-by-gate in layer order, the
// reference the compiled programs are compared against (plan executors
// also apply ops in layer order).
func applyDispatch(c *circuit.Circuit, s *State) int {
	ops := 0
	for _, layer := range c.Layers() {
		for _, oi := range layer {
			op := c.Op(oi)
			s.ApplyOp(op.Gate, op.Qubits...)
			ops++
		}
	}
	return ops
}

// TestCompileBitIdentical is the core exactness property: FuseOff and
// FuseExact programs — serial and striped — must reproduce gate-by-gate
// dispatch bit-for-bit, on every amplitude, including zero signs.
func TestCompileBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	variants := []struct {
		name string
		opt  CompileOptions
	}{
		{"off", CompileOptions{Fuse: FuseOff}},
		{"exact", CompileOptions{Fuse: FuseExact}},
		{"off-striped", CompileOptions{Fuse: FuseOff, Stripes: 3, StripeMin: 1}},
		{"exact-striped", CompileOptions{Fuse: FuseExact, Stripes: 4, StripeMin: 1}},
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		c := randCompileCircuit(rng, n, 3+rng.Intn(25))
		init := randState(rng, n)

		want := init.Clone()
		wantOps := applyDispatch(c, want)

		for _, v := range variants {
			p := CompileWith(c, v.opt)
			got := init.Clone()
			gotOps := p.RunAll(got)
			if gotOps != wantOps {
				t.Fatalf("trial %d %s: ops %d, dispatch applied %d", trial, v.name, gotOps, wantOps)
			}
			if i, ok := statesBitEqual(want, got); !ok {
				t.Fatalf("trial %d %s (n=%d): amplitude %d differs: %v vs %v",
					trial, v.name, n, i, want.amp[i], got.amp[i])
			}
			// RunSerial must agree with Run.
			got2 := init.Clone()
			for l := 0; l < p.NumLayers(); l++ {
				p.RunSerial(got2, l, l+1)
			}
			if i, ok := statesBitEqual(want, got2); !ok {
				t.Fatalf("trial %d %s RunSerial per-layer: amplitude %d differs", trial, v.name, i)
			}
		}
	}
}

// TestCompileNumericEquivalent checks FuseNumeric against dispatch within
// floating-point tolerance: algebraic folding reassociates products, so
// bit-identity is out of scope by design.
func TestCompileNumericEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		c := randCompileCircuit(rng, n, 3+rng.Intn(25))
		init := randState(rng, n)

		want := init.Clone()
		wantOps := applyDispatch(c, want)

		p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
		got := init.Clone()
		if gotOps := p.RunAll(got); gotOps != wantOps {
			t.Fatalf("trial %d: numeric ops %d, dispatch %d", trial, gotOps, wantOps)
		}
		if !want.Equal(got, 1e-9) {
			t.Fatalf("trial %d (n=%d): numeric state deviates beyond 1e-9", trial, n)
		}
	}
}

// embedK lifts a k-qubit matrix to the full 2^n space using the applyK /
// KernelInfo convention: qubits[0] is the most-significant bit of the
// matrix index.
func embedK(n int, qubits []int, m qmath.Matrix) qmath.Matrix {
	k := len(qubits)
	dim := 1 << uint(n)
	bits := make([]int, k)
	mask := 0
	for j := 0; j < k; j++ {
		bits[j] = 1 << uint(qubits[k-1-j])
		mask |= bits[j]
	}
	out := qmath.New(dim)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			if r&^mask != c&^mask {
				continue
			}
			mr, mc := 0, 0
			for j := 0; j < k; j++ {
				if r&bits[j] != 0 {
					mr |= 1 << uint(j)
				}
				if c&bits[j] != 0 {
					mc |= 1 << uint(j)
				}
			}
			out.Set(r, c, m.At(mr, mc))
		}
	}
	return out
}

// TestCompileKernelMatrixProduct is the brute-force fusion check: for
// every mode, the product of the compiled kernels' matrices (Kronecker-
// embedded into the full space) must equal the product of the folded
// gates themselves.
func TestCompileKernelMatrixProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		c := randCompileCircuit(rng, n, 2+rng.Intn(14))
		dim := 1 << uint(n)

		want := qmath.Identity(dim)
		for _, layer := range c.Layers() {
			for _, oi := range layer {
				op := c.Op(oi)
				want = embedK(n, op.Qubits, op.Gate.Matrix()).Mul(want)
			}
		}

		for _, mode := range []FuseMode{FuseOff, FuseExact, FuseNumeric} {
			p := CompileWith(c, CompileOptions{Fuse: mode})
			got := qmath.Identity(dim)
			for _, ki := range p.SegmentKernels(0, p.NumLayers()) {
				if ki.Kind == "nop" {
					continue
				}
				got = embedK(n, ki.Qubits, ki.Matrix).Mul(got)
			}
			if !want.Equal(got, 1e-9) {
				t.Fatalf("trial %d mode %v (n=%d): kernel matrix product deviates from gate product",
					trial, mode, n)
			}
		}
	}
}

// TestCompileOpsAccounting pins the logical-op metric: every layer range
// reports exactly the number of circuit ops it covers, identity gates
// included, independent of how many kernels fusion produced.
func TestCompileOpsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		c := randCompileCircuit(rng, n, 5+rng.Intn(30))
		layers := c.Layers()
		for _, mode := range []FuseMode{FuseOff, FuseExact, FuseNumeric} {
			p := CompileWith(c, CompileOptions{Fuse: mode})
			if got := p.SegmentOps(0, p.NumLayers()); got != c.NumOps() {
				t.Fatalf("mode %v: full-range ops %d, circuit has %d", mode, got, c.NumOps())
			}
			for sub := 0; sub < 5; sub++ {
				from := rng.Intn(len(layers) + 1)
				to := from + rng.Intn(len(layers)+1-from)
				want := 0
				for l := from; l < to; l++ {
					want += len(layers[l])
				}
				if got := p.SegmentOps(from, to); got != want {
					t.Fatalf("mode %v: range [%d,%d) ops %d, want %d", mode, from, to, got, want)
				}
			}
		}
	}
}

// TestCompileFusesChains pins that fusion actually happens: a run of
// same-qubit gates compiles to one chain kernel, a run of diagonal gates
// to one diagonal sweep, and numeric mode folds an overlapping-pair
// sandwich into a single 4x4.
func TestCompileFusesChains(t *testing.T) {
	c := circuit.New("chain", 2)
	c.Append(gate.H(), 0).Append(gate.T(), 0).Append(gate.X(), 0).Append(gate.RZ(0.3), 0)
	p := Compile(c)
	ks := p.SegmentKernels(0, p.NumLayers())
	if len(ks) != 1 || ks[0].Kind != "chain" || ks[0].Ops != 4 {
		t.Fatalf("4-gate same-qubit run compiled to %+v, want one chain of 4", ks)
	}

	d := circuit.New("diag", 3)
	d.Append(gate.S(), 0).Append(gate.CZ(), 0, 1).Append(gate.T(), 2).Append(gate.Z(), 1)
	p = Compile(d)
	ks = p.SegmentKernels(0, p.NumLayers())
	if len(ks) != 1 || ks[0].Kind != "diag" || ks[0].Ops != 4 {
		t.Fatalf("diagonal run compiled to %+v, want one diag sweep of 4", ks)
	}

	s := circuit.New("sandwich", 2)
	s.Append(gate.H(), 0).Append(gate.CX(), 0, 1).Append(gate.RY(0.7), 1)
	p = CompileWith(s, CompileOptions{Fuse: FuseNumeric})
	ks = p.SegmentKernels(0, p.NumLayers())
	if len(ks) != 1 || ks[0].Kind != "2q" || ks[0].Ops != 3 {
		t.Fatalf("overlapping sandwich compiled to %+v, want one fused 4x4 of 3 ops", ks)
	}

	// Exact mode must NOT fold the sandwich (that would change rounding).
	p = Compile(s)
	if ks = p.SegmentKernels(0, p.NumLayers()); len(ks) != 3 {
		t.Fatalf("exact mode folded across a CX: %+v", ks)
	}
}

// TestCompileNumericFoldsLeadingChains pins the forward chain fold: in
// the 3-CX QV template every u3 — including the first on each qubit of a
// block — lands inside a 4x4, so a whole QV14 d3 circuit lowers to one
// dense sweep per two-qubit block.
func TestCompileNumericFoldsLeadingChains(t *testing.T) {
	c := bench.QV(14, 3, rand.New(rand.NewSource(1)))
	p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
	ks := p.SegmentKernels(0, p.NumLayers())
	if len(ks) != 19 {
		t.Fatalf("QV14 d3 numeric lowering: %d kernels, want 19", len(ks))
	}
	for i, k := range ks {
		if k.Kind != "2q" {
			t.Fatalf("kernel %d is %q on %v, want every kernel 2q", i, k.Kind, k.Qubits)
		}
	}
}

// is4x4Kind reports whether a kernel kind is a 4x4 the forward fold may
// absorb a chain into.
func is4x4Kind(kind string) bool {
	return kind == "2q" || kind == "cx" || kind == "cz" || kind == "swap"
}

// unfoldedChain returns the index of a chain whose next kernel on its
// qubit, within fuseScanDepth kernels, is a 4x4 — a fold the numeric
// lowering missed — or -1.
func unfoldedChain(ks []KernelInfo) int {
	for i, k := range ks {
		if k.Kind != "chain" {
			continue
		}
		q := k.Qubits[0]
	scan:
		for j := i + 1; j < len(ks) && j-i <= fuseScanDepth; j++ {
			for _, x := range ks[j].Qubits {
				if x == q {
					if is4x4Kind(ks[j].Kind) {
						return i
					}
					break scan
				}
			}
		}
	}
	return -1
}

// randCuts splits [0, L) at random layer boundaries.
func randCuts(rng *rand.Rand, L int) [][2]int {
	var segs [][2]int
	for from := 0; from < L; {
		to := from + 1 + rng.Intn(L-from)
		segs = append(segs, [2]int{from, to})
		from = to
	}
	return segs
}

// TestCompileNumericNoChainBeforePair: on random cuts of QV and random
// circuits, no numeric segment — forward or reverse — keeps a chain whose
// next kernel on its qubit is a 4x4.
func TestCompileNumericNoChainBeforePair(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		var c *circuit.Circuit
		if trial%2 == 0 {
			c = bench.QV(4+rng.Intn(8), 2+rng.Intn(4), rng)
		} else {
			c = randCompileCircuit(rng, 2+rng.Intn(4), 5+rng.Intn(30))
		}
		p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
		for _, seg := range randCuts(rng, p.NumLayers()) {
			for dir, ks := range [][]KernelInfo{
				p.SegmentKernels(seg[0], seg[1]),
				p.ReverseSegmentKernels(seg[0], seg[1]),
			} {
				if i := unfoldedChain(ks); i >= 0 {
					t.Fatalf("trial %d %s segment %v (dir %d): chain %d on %v precedes a 4x4 on its qubit: %+v",
						trial, c.Name(), seg, dir, i, ks[i].Qubits, ks)
				}
			}
		}
	}
}

// TestCompileNumericChainBlocked: the forward fold crosses only kernels on
// disjoint qubits. A ccx, a 3-qubit kq or a diagonal run on the chain's
// qubit sits between it and the later 2q, so the chain must survive.
func TestCompileNumericChainBlocked(t *testing.T) {
	k3 := gate.Custom("k3", qmath.KronAll(gate.H().Matrix(), gate.T().Matrix(), gate.RX(0.4).Matrix()))
	cases := []struct {
		name    string
		blocker func(c *circuit.Circuit)
		kind    string
	}{
		{"ccx", func(c *circuit.Circuit) { c.Append(gate.CCX(), 0, 1, 2) }, "ccx"},
		{"kq", func(c *circuit.Circuit) { c.Append(k3, 0, 1, 2) }, "kq"},
		{"diag", func(c *circuit.Circuit) { c.Append(gate.CZ(), 0, 1).Append(gate.CZ(), 1, 2) }, "diag"},
	}
	for _, tc := range cases {
		c := circuit.New("blocked-"+tc.name, 3)
		c.Append(gate.U3(0.3, 0.2, 0.1), 0)
		tc.blocker(c)
		c.Append(gate.Controlled(gate.RY(0.7)), 0, 1)
		p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
		ks := p.SegmentKernels(0, p.NumLayers())
		if len(ks) != 3 || ks[0].Kind != "chain" || ks[1].Kind != tc.kind || ks[2].Kind != "2q" {
			t.Fatalf("%s: compiled to %+v, want chain, %s, 2q", tc.name, ks, tc.kind)
		}
	}
}

// applyDispatchRange replays layers [from, to) gate by gate; reverse
// replays their adjoint (layers and ops in reverse order, daggered).
func applyDispatchRange(c *circuit.Circuit, s *State, from, to int, reverse bool) int {
	layers := c.Layers()
	ops := 0
	if !reverse {
		for l := from; l < to; l++ {
			for _, oi := range layers[l] {
				op := c.Op(oi)
				s.ApplyOp(op.Gate, op.Qubits...)
				ops++
			}
		}
		return ops
	}
	for l := to - 1; l >= from; l-- {
		for j := len(layers[l]) - 1; j >= 0; j-- {
			op := c.Op(layers[l][j])
			s.ApplyOp(gate.Dagger(op.Gate), op.Qubits...)
			ops++
		}
	}
	return ops
}

// TestCompileNumericSegmentsMatchDispatch: with the forward fold, every
// numeric segment of a random cut — forward and reverse — still matches
// gate-by-gate dispatch within 1e-9 and reports the same op count.
func TestCompileNumericSegmentsMatchDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		var c *circuit.Circuit
		if trial%2 == 0 {
			c = bench.QV(3+rng.Intn(5), 2+rng.Intn(3), rng)
		} else {
			c = randCompileCircuit(rng, 1+rng.Intn(5), 3+rng.Intn(30))
		}
		p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
		n := c.NumQubits()
		for _, seg := range randCuts(rng, p.NumLayers()) {
			for _, reverse := range []bool{false, true} {
				init := randState(rng, n)
				want := init.Clone()
				wantOps := applyDispatchRange(c, want, seg[0], seg[1], reverse)
				got := init.Clone()
				var gotOps int
				if reverse {
					gotOps = p.RunReverse(got, seg[0], seg[1])
				} else {
					gotOps = p.Run(got, seg[0], seg[1])
				}
				if gotOps != wantOps {
					t.Fatalf("trial %d segment %v reverse=%v: ops %d, dispatch %d", trial, seg, reverse, gotOps, wantOps)
				}
				if !want.Equal(got, 1e-9) {
					t.Fatalf("trial %d segment %v reverse=%v: numeric state deviates beyond 1e-9", trial, seg, reverse)
				}
			}
		}
	}
}

// TestCompileSegmentCaching checks that repeated Run calls over the same
// range reuse one compiled segment (pointer identity through the cache).
func TestCompileSegmentCaching(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randCompileCircuit(rng, 3, 20)
	p := Compile(c)
	a := p.segment(0, p.NumLayers())
	b := p.segment(0, p.NumLayers())
	if a != b {
		t.Fatal("segment cache returned distinct compilations for the same range")
	}
}

// TestKernelSubspaceAgainstGeneric cross-checks the subspace-iterating
// CX/CZ/Swap/CCX kernels against the generic matrix path on random
// states.
func TestKernelSubspaceAgainstGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3)
		q0, q1, q2 := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		for q1 == q0 {
			q1 = rng.Intn(n)
		}
		for q2 == q0 || q2 == q1 {
			q2 = rng.Intn(n)
		}
		cases := []struct {
			g  gate.Gate
			qs []int
		}{
			{gate.CX(), []int{q0, q1}},
			{gate.CZ(), []int{q0, q1}},
			{gate.Swap(), []int{q0, q1}},
			{gate.CCX(), []int{q0, q1, q2}},
		}
		for _, tc := range cases {
			init := randState(rng, n)
			fast := init.Clone()
			fast.ApplyOp(tc.g, tc.qs...)
			slow := init.Clone()
			slow.applyK(tc.g.Matrix(), tc.qs)
			if !fast.Equal(slow, 1e-12) {
				t.Fatalf("%s on %v deviates from generic applyK", tc.g.String(), tc.qs)
			}
		}
	}
}

func TestSpreadBit(t *testing.T) {
	for _, tc := range []struct{ u, bit, want int }{
		{0, 1, 0}, {1, 1, 2}, {2, 1, 4}, {3, 1, 6},
		{0b1011, 0b100, 0b10011}, {0b111, 0b1000, 0b111},
	} {
		if got := spreadBit(tc.u, tc.bit); got != tc.want {
			t.Errorf("spreadBit(%b, %b) = %b, want %b", tc.u, tc.bit, got, tc.want)
		}
	}
}

func TestParseFuseMode(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want FuseMode
	}{{"off", FuseOff}, {"exact", FuseExact}, {"numeric", FuseNumeric}} {
		got, err := ParseFuseMode(tc.s)
		if err != nil || got != tc.want {
			t.Errorf("ParseFuseMode(%q) = %v, %v", tc.s, got, err)
		}
		if got.String() != tc.s {
			t.Errorf("FuseMode(%v).String() = %q, want %q", got, got.String(), tc.s)
		}
	}
	if _, err := ParseFuseMode("bogus"); err == nil {
		t.Error("ParseFuseMode accepted bogus mode")
	}
}

// FuzzCompileParity fuzzes the exactness property: any seed-derived
// circuit must execute bit-identically through FuseOff, FuseExact, and
// striped programs.
func FuzzCompileParity(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(12))
	f.Add(int64(20200720), uint8(3), uint8(30))
	f.Add(int64(-9), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, opsRaw uint8) {
		n := 1 + int(nRaw)%5
		nops := 1 + int(opsRaw)%40
		rng := rand.New(rand.NewSource(seed))
		c := randCompileCircuit(rng, n, nops)
		init := randState(rng, n)

		want := init.Clone()
		applyDispatch(c, want)

		for _, opt := range []CompileOptions{
			{Fuse: FuseOff},
			{Fuse: FuseExact},
			{Fuse: FuseExact, Stripes: 4, StripeMin: 1},
		} {
			got := init.Clone()
			CompileWith(c, opt).RunAll(got)
			if i, ok := statesBitEqual(want, got); !ok {
				t.Fatalf("opt %+v: amplitude %d differs (seed %d n %d ops %d)",
					opt, i, seed, n, nops)
			}
		}
	})
}

func TestCompileWidthMismatchPanics(t *testing.T) {
	c := circuit.New("w", 3)
	c.Append(gate.H(), 0)
	p := Compile(c)
	defer func() {
		if recover() == nil {
			t.Fatal("Run on mismatched width did not panic")
		}
	}()
	p.RunAll(NewState(2))
}
