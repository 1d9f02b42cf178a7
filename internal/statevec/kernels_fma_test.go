package statevec

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/qmath"
)

// The numeric general 2x2 and 4x4 routines round once per multiply-add
// where the CPU has FMA, so they are held to an error bound against
// kern1Go and kern2Go instead of to their bits. Each output component is
// a sum of products m_j*a_j. kern2Go rounds each product's real and
// imaginary term at most five times on its way to the output (a multiply,
// the complex subtraction or addition, and up to three accumulating
// adds), and so does the FMA row form (a multiply or FMA per term, up to
// three further FMAs, and the closing VADDSUBPD). To first order the two
// differ by at most 10 units of roundoff of S = sum_j |m_j||a_j|, since
// |re m||re a| + |im m||im a| <= |m||a|; fmaRel leaves room for the
// second-order terms, and fmaAbs covers the absolute error of results
// that round into the subnormal range.
const (
	fmaRel = 11 * 0x1p-53
	fmaAbs = 16 * 0x1p-1074
)

// requireFMA skips when FuseNumeric kernels resolve to the exact routines:
// there is no FMA sweep to compare.
func requireFMA(t testing.TB) {
	t.Helper()
	if !useFMA {
		t.Skip("no FMA kernels in this build (CPU without AVX2+FMA, non-amd64 or purego tag): numeric sweeps are the exact ones")
	}
}

// requireAVX512 skips when FuseNumeric kernels cannot resolve to the ZMM
// routines.
func requireAVX512(t testing.TB) {
	t.Helper()
	if !useAVX512 {
		t.Skip("no ZMM kernels in this build (CPU without AVX-512F, non-amd64 or purego tag)")
	}
}

// checkClose fails on the first amplitude where got and want differ by
// more than tol (per component) inside the sweep, or differ at all in
// bits outside it (touched false).
func checkClose(t testing.TB, what string, orig, got, want []complex128, tol []float64, touched []bool) {
	t.Helper()
	for i := range got {
		if !touched[i] {
			if bitsDiffer(orig[i:i+1], got[i:i+1]) >= 0 {
				t.Fatalf("%s: amplitude %d outside the range changed: %v -> %v", what, i, orig[i], got[i])
			}
			continue
		}
		if math.Abs(real(got[i])-real(want[i])) > tol[i] || math.Abs(imag(got[i])-imag(want[i])) > tol[i] {
			t.Fatalf("%s: amplitude %d: FMA %v, Go %v, bound %g", what, i, got[i], want[i], tol[i])
		}
	}
}

// checkKern1FMA runs the numeric 2x2 sweep and kern1Go on copies of amp
// and holds them to the bound. It reports whether the sweep reached the
// FMA assembly.
func checkKern1FMA(t testing.TB, amp []complex128, q, lo, hi int, u [4]complex128) bool {
	t.Helper()
	bit := 1 << q
	want := append([]complex128(nil), amp...)
	got := append([]complex128(nil), amp...)
	kern1Go(want, bit, lo, hi, u[0], u[1], u[2], u[3])
	run1(got, sGeneric, FuseNumeric, bit, lo, hi, u)
	tol := make([]float64, len(amp))
	touched := make([]bool, len(amp))
	for b := lo; b < hi; b++ {
		for i := b * 2 * bit; i < b*2*bit+bit; i++ {
			j := i | bit
			a0, a1 := cmplx.Abs(amp[i]), cmplx.Abs(amp[j])
			tol[i] = fmaRel*(cmplx.Abs(u[0])*a0+cmplx.Abs(u[1])*a1) + fmaAbs
			tol[j] = fmaRel*(cmplx.Abs(u[2])*a0+cmplx.Abs(u[3])*a1) + fmaAbs
			touched[i], touched[j] = true, true
		}
	}
	checkClose(t, "numeric 2x2", amp, got, want, tol, touched)
	return useFMA && asmTakes1(bit, lo, hi)
}

// checkKern2FMA is checkKern1FMA for the numeric 4x4 sweep on the
// ordered pair (q0, q1).
func checkKern2FMA(t testing.TB, amp []complex128, q0, q1, lo, hi int, m *[16]complex128) bool {
	t.Helper()
	b0, b1 := 1<<q0, 1<<q1
	want := append([]complex128(nil), amp...)
	got := append([]complex128(nil), amp...)
	kern2Go(want, b0, b1, lo, hi, m)
	run2(got, false, FuseNumeric, b0, b1, lo, hi, m)
	tol := make([]float64, len(amp))
	touched := make([]bool, len(amp))
	lowb, highb := sort2(b0, b1)
	for u := lo; u < hi; u++ {
		i0 := spreadBit(spreadBit(u, lowb), highb)
		idx := [4]int{i0, i0 | b1, i0 | b0, i0 | b0 | b1}
		for r, i := range idx {
			var s float64
			for c, j := range idx {
				s += cmplx.Abs(m[r*4+c]) * cmplx.Abs(amp[j])
			}
			tol[i] = fmaRel*s + fmaAbs
			touched[i] = true
		}
	}
	checkClose(t, "numeric 4x4", amp, got, want, tol, touched)
	return useFMA && asmTakes2(b0, b1, lo, hi)
}

// TestKernelFMAClose holds the FMA sweeps to the bound on every qubit and
// every ordered pair (qubit 0 in either slot) for n = 1..12, over the
// ranges and the ±0, subnormal and sparse states of TestKernelAsmParity.
func TestKernelFMAClose(t *testing.T) {
	requireFMA(t)
	r := rand.New(rand.NewSource(20200721))
	var cases, asm int
	for n := 1; n <= 12; n++ {
		dim := 1 << n
		for q := 0; q < n; q++ {
			for _, rg := range parityRanges(r, dim>>(q+1)) {
				u := [4]complex128{parityComplex(r), parityComplex(r), parityComplex(r), parityComplex(r)}
				cases++
				if checkKern1FMA(t, parityAmps(r, dim), q, rg[0], rg[1], u) {
					asm++
				}
			}
		}
		for q0 := 0; q0 < n; q0++ {
			for q1 := 0; q1 < n; q1++ {
				if q0 == q1 {
					continue
				}
				for _, rg := range parityRanges(r, dim>>2) {
					cases++
					if checkKern2FMA(t, parityAmps(r, dim), q0, q1, rg[0], rg[1], parityMat(r)) {
						asm++
					}
				}
			}
		}
	}
	if asm < cases/2 {
		t.Fatalf("only %d of %d cases reached the FMA assembly", asm, cases)
	}
	t.Logf("%d cases, %d through the FMA assembly", cases, asm)
}

func FuzzKernelFMAParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(1), uint16(0), uint16(8))
	f.Add(int64(2), uint8(12), uint8(11), uint8(0), uint16(3), uint16(1000))
	f.Add(int64(3), uint8(3), uint8(2), uint8(2), uint16(1), uint16(2))
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, q0Raw, q1Raw uint8, loRaw, hiRaw uint16) {
		requireFMA(t)
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%12
		dim := 1 << n
		span := func(units int) (int, int) {
			lo, hi := int(loRaw)%(units+1), int(hiRaw)%(units+1)
			if lo > hi {
				lo, hi = hi, lo
			}
			return lo, hi
		}
		q0 := int(q0Raw) % n
		lo, hi := span(dim >> (q0 + 1))
		u := [4]complex128{parityComplex(r), parityComplex(r), parityComplex(r), parityComplex(r)}
		checkKern1FMA(t, parityAmps(r, dim), q0, lo, hi, u)
		if n < 2 {
			return
		}
		q1 := int(q1Raw) % n
		if q1 == q0 {
			q1 = (q0 + 1) % n
		}
		lo, hi = span(dim >> 2)
		checkKern2FMA(t, parityAmps(r, dim), q0, q1, lo, hi, parityMat(r))
	})
}

// TestFMAOnlyInNumericPrograms fences the FMA sweeps into FuseNumeric
// programs. On a random circuit of generic single-qubit gates and
// generic two-qubit unitaries (qubit 0 in either slot), gate-by-gate
// dispatch and FuseOff and FuseExact programs must equal a replay through
// kern1Go and kern2Go bit for bit; the FuseNumeric program must stay
// within 1e-9 of it and differ in bits from the same numeric kernels run
// without FMA, which shows the FMA sweeps were reached.
func TestFMAOnlyInNumericPrograms(t *testing.T) {
	requireFMA(t)
	const n = 8
	dim := 1 << n
	r := rand.New(rand.NewSource(22))
	c := circuit.New("fma-fence", n)
	for i := 0; i < 60; i++ {
		if r.Intn(3) == 0 {
			c.Append(gate.U3(r.Float64()*math.Pi, r.Float64()*2*math.Pi, r.Float64()*2*math.Pi), r.Intn(n))
			continue
		}
		q0, q1 := r.Intn(n), r.Intn(n-1)
		if q1 >= q0 {
			q1++
		}
		m := randUnitary4(r)
		u := qmath.New(4)
		for k, v := range m {
			u.Set(k/4, k%4, v)
		}
		c.Append(gate.Custom("u4", u), q0, q1)
	}
	init := randState(r, n)

	want := init.Clone()
	for _, layer := range c.Layers() {
		for _, oi := range layer {
			op := c.Op(oi)
			m := op.Gate.Matrix()
			if op.Gate.Qubits() == 1 {
				bit := 1 << op.Qubits[0]
				kern1Go(want.amp, bit, 0, dim/(2*bit), m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
				continue
			}
			var flat [16]complex128
			mat2Flat(m, &flat)
			kern2Go(want.amp, 1<<op.Qubits[0], 1<<op.Qubits[1], 0, dim>>2, &flat)
		}
	}

	dispatch := init.Clone()
	applyDispatch(c, dispatch)
	if i, ok := statesBitEqual(want, dispatch); !ok {
		t.Fatalf("dispatch: amplitude %d differs from kern1Go/kern2Go", i)
	}
	for _, mode := range []FuseMode{FuseOff, FuseExact} {
		got := init.Clone()
		CompileWith(c, CompileOptions{Fuse: mode}).RunAll(got)
		if i, ok := statesBitEqual(want, got); !ok {
			t.Fatalf("fuse %s: amplitude %d differs from kern1Go/kern2Go", mode, i)
		}
	}

	p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
	got := init.Clone()
	p.RunAll(got)
	plain := init.Clone()
	marked := 0
	for _, k := range p.segment(0, p.NumLayers()).kernels {
		switch t := k.(type) {
		case *twoQKernel:
			if fmaRoutine(t.r) {
				marked++
			}
			kern2Go(plain.amp, 1<<t.q0, 1<<t.q1, 0, dim>>2, &t.m)
		case *chainKernel:
			if st := t.steps[0]; len(t.steps) == 1 && st.op == sGeneric {
				if fmaRoutine(t.r) {
					marked++
				}
				kern1Go(plain.amp, t.bit, 0, t.units(dim), st.u[0], st.u[1], st.u[2], st.u[3])
				continue
			}
			t.run(plain.amp, 0, t.units(dim))
		default:
			k.run(plain.amp, 0, k.units(dim))
		}
	}
	if marked == 0 {
		t.Fatal("the numeric program has no kernel resolved to the FMA routines")
	}
	if _, ok := statesBitEqual(plain, got); ok {
		t.Fatal("the numeric program matches its kernels run without FMA bit for bit: the FMA sweeps were not reached")
	}
	for i := range want.amp {
		if cmplx.Abs(got.amp[i]-want.amp[i]) > 1e-9 {
			t.Fatalf("numeric amplitude %d: %v, want %v within 1e-9", i, got.amp[i], want.amp[i])
		}
	}
}

// fmaRoutine reports whether r is one of the FMA routines.
func fmaRoutine(r routine) bool {
	switch r {
	case r1FMA, r1FMA512, r2FMA, r2FMAQ0, r2FMA512, r2FMAQ0512:
		return true
	}
	return false
}
