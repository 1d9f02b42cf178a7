package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gate"
)

// The exact AVX2 general 2x2 and 4x4 routines must match kern1Go and
// kern2Go bit for bit. These tests drive the chunk loops, on the routines
// FuseOff resolves, against the Go bodies on every qubit, every ordered
// qubit pair and arbitrary unit ranges, and compare each amplitude by
// math.Float64bits.

// run1 sweeps a single-qubit kernel with chain opcode op and entries u
// over base blocks [lo, hi) of bit, on the routine pairRoutine resolves
// in mode under the current flags: tests that switch a flag switch it
// before they call run1.
func run1(amp []complex128, op uint8, mode FuseMode, bit, lo, hi int, u [4]complex128) {
	sweepPairs(amp, pairRoutine(op, bit, mode, useAVX2), bit, lo, hi, &u)
}

// run2 is run1 for a two-qubit kernel on bits b0 and b1: a CX (control
// b0) when cx is set, the general 4x4 m otherwise.
func run2(amp []complex128, cx bool, mode FuseMode, b0, b1, lo, hi int, m *[16]complex128) {
	sweepUnits(amp, unitRoutine(cx, b0, b1, mode, useAVX2), b0, b1, lo, hi, m)
}

// requireAsm skips when this build resolves every kernel to its Go body:
// comparing the Go bodies with themselves would pass vacuously.
func requireAsm(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 kernels in this build (CPU without AVX2, non-amd64 or purego tag): asm-vs-Go parity has nothing to compare")
	}
}

// parityFloat draws a finite float64 from a mix that stresses exact
// rounding: signed zeros, subnormals, wide exponents and ordinary
// values. Magnitudes stay below 2^500, so no product or four-term sum
// overflows and no NaN can arise.
func parityFloat(r *rand.Rand) float64 {
	sign := 1.0
	if r.Intn(2) == 0 {
		sign = -1
	}
	switch r.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(1+uint64(r.Int63n(1<<52-1))) // subnormal
	case 2:
		return sign * math.Ldexp(0.5+r.Float64()/2, r.Intn(1000)-500)
	case 3:
		return sign // exact ±1: products that cancel to signed zeros
	default:
		return r.NormFloat64()
	}
}

func parityComplex(r *rand.Rand) complex128 {
	return complex(parityFloat(r), parityFloat(r))
}

// parityAmps draws a dense, a sparse or a basis-like state. Units whose
// amplitudes are all signed zeros are where a row sum's +0 start shows:
// simulated states such as |0...0> are full of them.
func parityAmps(r *rand.Rand, dim int) []complex128 {
	zero := func() complex128 {
		return complex(math.Copysign(0, float64(r.Intn(2))-0.5), math.Copysign(0, float64(r.Intn(2))-0.5))
	}
	amp := make([]complex128, dim)
	mode := r.Intn(3)
	for i := range amp {
		switch {
		case mode == 0 || mode == 1 && r.Intn(5) == 0:
			amp[i] = parityComplex(r)
		default:
			amp[i] = zero()
		}
	}
	if mode == 2 {
		amp[r.Intn(dim)] = parityComplex(r)
	}
	return amp
}

func parityMat(r *rand.Rand) *[16]complex128 {
	var m [16]complex128
	for i := range m {
		m[i] = parityComplex(r)
	}
	return &m
}

// bitsDiffer returns the first amplitude whose real or imaginary bits
// differ, or -1.
func bitsDiffer(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// asmTakes1 and asmTakes2 report whether the chunk loop hands at least one
// unit of [lo, hi) to the assembly, so the tests can count real
// comparisons instead of trusting that some happened.
func asmTakes1(bit, lo, hi int) bool {
	return useAVX2 && hi-lo >= 1 && (bit > 1 || hi-lo >= 2)
}

func asmTakes2(b0, b1, lo, hi int) bool {
	if !useAVX2 || hi-lo < 2 {
		return false
	}
	if b0 == 1 || b1 == 1 {
		return true
	}
	return (hi&^1)-((lo+1)&^1) >= 2
}

// checkKern1 runs the FuseOff general 2x2 routine and kern1Go on copies
// of amp and fails on the first bit difference. It reports whether the
// sweep reached the assembly and whether it changed the state.
func checkKern1(t testing.TB, amp []complex128, q, lo, hi int, u [4]complex128) (asm, changed bool) {
	t.Helper()
	bit := 1 << q
	want := append([]complex128(nil), amp...)
	got := append([]complex128(nil), amp...)
	kern1Go(want, bit, lo, hi, u[0], u[1], u[2], u[3])
	run1(got, sGeneric, FuseOff, bit, lo, hi, u)
	if i := bitsDiffer(want, got); i >= 0 {
		t.Fatalf("kern1 n=%d q=%d [%d,%d): amplitude %d: asm %v, Go %v (bits %x %x vs %x %x)",
			len(amp), q, lo, hi, i, got[i], want[i],
			math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
			math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
	}
	return asmTakes1(bit, lo, hi), bitsDiffer(amp, want) >= 0
}

// checkKern2 is checkKern1 for the general 4x4 routine on the ordered
// pair (q0, q1).
func checkKern2(t testing.TB, amp []complex128, q0, q1, lo, hi int, m *[16]complex128) (asm, changed bool) {
	t.Helper()
	b0, b1 := 1<<q0, 1<<q1
	want := append([]complex128(nil), amp...)
	got := append([]complex128(nil), amp...)
	kern2Go(want, b0, b1, lo, hi, m)
	run2(got, false, FuseOff, b0, b1, lo, hi, m)
	if i := bitsDiffer(want, got); i >= 0 {
		t.Fatalf("kern2 n=%d q=(%d,%d) [%d,%d): amplitude %d: asm %v, Go %v",
			len(amp), q0, q1, lo, hi, i, got[i], want[i])
	}
	return asmTakes2(b0, b1, lo, hi), bitsDiffer(amp, want) >= 0
}

// parityRanges lists the unit ranges every qubit (pair) is checked on:
// the full sweep, empty and one-unit ranges, odd edges, and random ones.
func parityRanges(r *rand.Rand, units int) [][2]int {
	rs := [][2]int{{0, units}, {0, 0}, {units, units}, {0, 1}, {units - 1, units}}
	if units >= 3 {
		rs = append(rs, [2]int{1, units}, [2]int{0, units - 1}, [2]int{1, units - 1})
	}
	for i := 0; i < 3; i++ {
		lo := r.Intn(units + 1)
		rs = append(rs, [2]int{lo, lo + r.Intn(units-lo+1)})
	}
	return rs
}

func TestKernelAsmParity(t *testing.T) {
	requireAsm(t)
	r := rand.New(rand.NewSource(20200720))
	var cases, asm, changed int
	tally := func(a, c bool) {
		cases++
		if a {
			asm++
		}
		if c {
			changed++
		}
	}
	for n := 1; n <= 12; n++ {
		dim := 1 << n
		for q := 0; q < n; q++ {
			for _, rg := range parityRanges(r, dim>>(q+1)) {
				u := [4]complex128{parityComplex(r), parityComplex(r), parityComplex(r), parityComplex(r)}
				tally(checkKern1(t, parityAmps(r, dim), q, rg[0], rg[1], u))
			}
		}
		for q0 := 0; q0 < n; q0++ {
			for q1 := 0; q1 < n; q1++ {
				if q0 == q1 {
					continue
				}
				for _, rg := range parityRanges(r, dim>>2) {
					tally(checkKern2(t, parityAmps(r, dim), q0, q1, rg[0], rg[1], parityMat(r)))
				}
			}
		}
	}
	// Guard against a vacuous pass: most cases must reach the assembly
	// and change the state.
	if asm < cases/2 || changed < cases/2 {
		t.Fatalf("only %d of %d cases reached the assembly and %d changed the state", asm, cases, changed)
	}
	t.Logf("%d cases, %d through the assembly, %d changed the state", cases, asm, changed)
}

// randU3 is a random single-qubit unitary's entries u00, u01, u10, u11;
// with randUnitary4 it keeps the benchmark states normalised.
func randU3(r *rand.Rand) [4]complex128 {
	m := gate.U3(r.Float64()*math.Pi, r.Float64()*2*math.Pi, r.Float64()*2*math.Pi).Matrix().Data()
	return [4]complex128{m[0], m[1], m[2], m[3]}
}

// randUnitary4 is CX times a product of two random U3s: an entangling
// 4x4 unitary with no zero entries forced.
func randUnitary4(r *rand.Rand) *[16]complex128 {
	u := func() gate.Gate {
		return gate.U3(r.Float64()*math.Pi, r.Float64()*2*math.Pi, r.Float64()*2*math.Pi)
	}
	var m [16]complex128
	mat2Flat(gate.CX().Matrix().Mul(u().Matrix().Kron(u().Matrix())), &m)
	return &m
}

func FuzzKernelAsmParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(1), uint16(0), uint16(8))
	f.Add(int64(2), uint8(12), uint8(11), uint8(0), uint16(3), uint16(1000))
	f.Add(int64(3), uint8(3), uint8(2), uint8(2), uint16(1), uint16(2))
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, q0Raw, q1Raw uint8, loRaw, hiRaw uint16) {
		requireAsm(t)
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
		checkKern1(t, parityAmps(r, dim), q0, lo, hi, u)
		if n < 2 {
			return
		}
		q1 := int(q1Raw) % n
		if q1 == q0 {
			q1 = (q0 + 1) % n
		}
		lo, hi = span(dim >> 2)
		checkKern2(t, parityAmps(r, dim), q0, q1, lo, hi, parityMat(r))
	})
}

// TestKernelBoundsPanic: the assembly does no bounds checks, so an
// out-of-range unit range or bit must panic with an index error, on the
// Go path and through the chunk loops on the dispatch (FuseOff) and
// numeric (FMA) routines alike, without touching memory past the slice.
// The /zmm cases have the shapes that resolve to the ZMM routines (bit
// and lowb >= 4, and qubit 0). The Pauli, CX, H and diagonal sweeps have
// no numeric form.
func TestKernelBoundsPanic(t *testing.T) {
	const n = 6
	const dim = 1 << n
	u := [4]complex128{1, 2, 3, 4}
	m := parityMat(rand.New(rand.NewSource(1)))
	type call func(amp []complex128)
	paths := []struct {
		name string
		k1   func([]complex128, int, int, int)
		k2   func([]complex128, int, int, int, int)
		x    func([]complex128, int, int, int)
		y    func([]complex128, int, int, int)
		z    func([]complex128, int, int, int)
		cx   func([]complex128, int, int, int, int)
		h    func([]complex128, int, int, int)
		diag func([]complex128, int, int, int, complex128, complex128)
	}{
		{"go",
			func(a []complex128, bit, lo, hi int) { kern1Go(a, bit, lo, hi, u[0], u[1], u[2], u[3]) },
			func(a []complex128, b0, b1, lo, hi int) { kern2Go(a, b0, b1, lo, hi, m) },
			kernXGo, kernYGo, kernZGo, kernCXGo, kernHGo, kernDiagGo},
		{"dispatch",
			func(a []complex128, bit, lo, hi int) { run1(a, sGeneric, FuseOff, bit, lo, hi, u) },
			func(a []complex128, b0, b1, lo, hi int) { run2(a, false, FuseOff, b0, b1, lo, hi, m) },
			func(a []complex128, bit, lo, hi int) { run1(a, sX, FuseOff, bit, lo, hi, u) },
			func(a []complex128, bit, lo, hi int) { run1(a, sY, FuseOff, bit, lo, hi, u) },
			func(a []complex128, bit, lo, hi int) { run1(a, sZ, FuseOff, bit, lo, hi, u) },
			func(a []complex128, cb, tb, lo, hi int) { run2(a, true, FuseOff, cb, tb, lo, hi, nil) },
			func(a []complex128, bit, lo, hi int) { run1(a, sH, FuseOff, bit, lo, hi, u) },
			runDiag},
		{"numeric",
			func(a []complex128, bit, lo, hi int) { run1(a, sGeneric, FuseNumeric, bit, lo, hi, u) },
			func(a []complex128, b0, b1, lo, hi int) { run2(a, false, FuseNumeric, b0, b1, lo, hi, m) },
			nil, nil, nil, nil, nil, nil},
	}
	for _, p := range paths {
		p := p
		cases := map[string]call{
			"kern1/hi":  func(a []complex128) { p.k1(a, 4, 0, dim/8+1) },
			"kern1/lo":  func(a []complex128) { p.k1(a, 1, -1, 4) },
			"kern1/bit": func(a []complex128) { p.k1(a, dim, 0, 2) },
			"kern2/hi":  func(a []complex128) { p.k2(a, 1, 8, 0, dim/4+2) },
			"kern2/lo":  func(a []complex128) { p.k2(a, 2, 4, -2, 4) },
			"kern2/bit": func(a []complex128) { p.k2(a, 1, dim, 0, dim/4) },
			"kern2/b0":  func(a []complex128) { p.k2(a, dim, 4, 0, 6) },
			"kern1/zmm": func(a []complex128) { p.k1(a, 16, 0, dim/32+1) },
			"kern2/zmm": func(a []complex128) { p.k2(a, 16, 4, 0, dim/4+4) },
			"kern2/zlo": func(a []complex128) { p.k2(a, 4, 8, -4, 8) },
			"kern2/q0z": func(a []complex128) { p.k2(a, 1, 16, 0, dim/4+4) },
			"kern2/q0l": func(a []complex128) { p.k2(a, 8, 1, -4, 8) },
		}
		if p.x != nil {
			cases["x/hi"] = func(a []complex128) { p.x(a, 4, 0, dim/8+1) }
			cases["x/bit"] = func(a []complex128) { p.x(a, dim, 0, 2) }
			cases["y/hi"] = func(a []complex128) { p.y(a, 1, 0, dim/2+2) }
			cases["y/lo"] = func(a []complex128) { p.y(a, 2, -1, 4) }
			cases["z/hi"] = func(a []complex128) { p.z(a, 16, 0, dim/32+1) }
			cases["z/lo"] = func(a []complex128) { p.z(a, 1, -1, 4) }
			cases["cx/hi"] = func(a []complex128) { p.cx(a, 1, 8, 0, dim/4+2) }
			cases["cx/hi2"] = func(a []complex128) { p.cx(a, 4, 2, 0, dim/4+2) }
			cases["cx/lo"] = func(a []complex128) { p.cx(a, 2, 4, -2, 4) }
			cases["cx/bit"] = func(a []complex128) { p.cx(a, 1, dim, 0, dim/4) }
			cases["h/hi"] = func(a []complex128) { p.h(a, 4, 0, dim/8+1) }
			cases["h/lo"] = func(a []complex128) { p.h(a, 1, -1, 4) }
			cases["h/bit"] = func(a []complex128) { p.h(a, dim, 0, 2) }
			cases["diag/hi"] = func(a []complex128) { p.diag(a, 2, 0, dim/4+2, u[1], u[2]) }
			cases["diag/lo"] = func(a []complex128) { p.diag(a, 1, -1, 4, u[1], u[2]) }
			cases["diag1/hi"] = func(a []complex128) { p.diag(a, 8, 0, dim/16+1, 1, u[1]) }
			cases["diag1/bit"] = func(a []complex128) { p.diag(a, dim, 0, 2, 1, u[1]) }
		}
		for name, c := range cases {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				backing := make([]complex128, 2*dim)
				for i := range backing {
					backing[i] = complex(float64(i), -1)
				}
				err := catchPanic(func() { c(backing[:dim:dim]) })
				if err == nil || !strings.Contains(err.Error(), "index out of range") {
					t.Fatalf("want an index-out-of-range panic, got %v", err)
				}
				for i := dim; i < 2*dim; i++ {
					if backing[i] != complex(float64(i), -1) {
						t.Fatalf("amplitude %d past the slice was overwritten", i)
					}
				}
			})
		}
	}
}

// catchPanic runs f and returns its panic value as an error, or nil.
func catchPanic(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f()
	return nil
}

// BenchmarkKern1 and BenchmarkKern2 time one full sweep, the Go body
// against the AVX2 assembly and its FMA form (the numeric routines) in YMM
// (fma) and, where the CPU has AVX-512F, ZMM registers (zmm), at n = 5, 10
// and 14 on qubit 0 and on the high qubits. The kern2 qubit-0 rows cover
// the two load patterns of kern2FMAQ0512, highb = 2 and highb >= 4.
func BenchmarkKern1(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	u := randU3(r)
	for _, n := range []int{5, 10, 14} {
		amp := randState(r, n).amp
		for _, q := range []int{0, n - 1} {
			bit := 1 << q
			units := units1(amp, bit)
			b.Run(fmt.Sprintf("n=%d/q=%d/go", n, q), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kern1Go(amp, bit, 0, units, u[0], u[1], u[2], u[3])
				}
			})
			sweep := func(b *testing.B, mode FuseMode) {
				r := pairRoutine(sGeneric, bit, mode, useAVX2)
				for i := 0; i < b.N; i++ {
					sweepPairs(amp, r, bit, 0, units, &u)
				}
			}
			b.Run(fmt.Sprintf("n=%d/q=%d/asm", n, q), func(b *testing.B) {
				requireAsm(b)
				sweep(b, FuseOff)
			})
			b.Run(fmt.Sprintf("n=%d/q=%d/fma", n, q), func(b *testing.B) {
				requireFMA(b)
				setISA(b, "avx2+fma")
				sweep(b, FuseNumeric)
			})
			b.Run(fmt.Sprintf("n=%d/q=%d/zmm", n, q), func(b *testing.B) {
				requireAVX512(b)
				sweep(b, FuseNumeric)
			})
		}
	}
}

func BenchmarkKern2(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	m := randUnitary4(r)
	for _, n := range []int{5, 10, 14} {
		amp := randState(r, n).amp
		units := len(amp) >> 2
		for _, qs := range [][2]int{{0, n - 1}, {n - 1, 0}, {1, 0}, {2, n - 1}, {n - 2, n - 1}} {
			b0, b1 := 1<<qs[0], 1<<qs[1]
			b.Run(fmt.Sprintf("n=%d/q=%d,%d/go", n, qs[0], qs[1]), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kern2Go(amp, b0, b1, 0, units, m)
				}
			})
			sweep := func(b *testing.B, mode FuseMode) {
				r := unitRoutine(false, b0, b1, mode, useAVX2)
				for i := 0; i < b.N; i++ {
					sweepUnits(amp, r, b0, b1, 0, units, m)
				}
			}
			b.Run(fmt.Sprintf("n=%d/q=%d,%d/asm", n, qs[0], qs[1]), func(b *testing.B) {
				requireAsm(b)
				sweep(b, FuseOff)
			})
			b.Run(fmt.Sprintf("n=%d/q=%d,%d/fma", n, qs[0], qs[1]), func(b *testing.B) {
				requireFMA(b)
				setISA(b, "avx2+fma")
				sweep(b, FuseNumeric)
			})
			b.Run(fmt.Sprintf("n=%d/q=%d,%d/zmm", n, qs[0], qs[1]), func(b *testing.B) {
				requireAVX512(b)
				sweep(b, FuseNumeric)
			})
		}
	}
}
