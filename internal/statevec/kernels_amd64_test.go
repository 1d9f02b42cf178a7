//go:build amd64 && !purego

package statevec

import (
	"math/rand"
	"strings"
	"testing"
)

// setISA switches useAVX2, useFMA and useAVX512 to the KernelISA level
// isa for the rest of the test and reports whether the host can run it;
// it changes nothing when the host cannot. Kernels resolved before the
// switch keep their routines, so a test resolves (or lowers, in a
// Program that shares no cached segment) after it.
func setISA(tb testing.TB, isa string) bool {
	want := KernelFeatures{AVX2: isa != "go", FMA: strings.Contains(isa, "fma"), AVX512: strings.Contains(isa, "avx512")}
	if want.AVX2 && !hostFeatures.AVX2 || want.FMA && !hostFeatures.FMA || want.AVX512 && !hostFeatures.AVX512 {
		return false
	}
	saved := Kernels()
	useAVX2, useFMA, useAVX512 = want.AVX2, want.FMA, want.AVX512
	tb.Cleanup(func() { useAVX2, useFMA, useAVX512 = saved.AVX2, saved.FMA, saved.AVX512 })
	return true
}

// zmmTakes1 and zmmTakes2 report whether the numeric general 2x2 and 4x4
// sweeps hand at least one vector of [lo, hi) to the ZMM routines.
func zmmTakes1(bit, lo, hi int) bool {
	return useAVX512 && bit >= 4 && hi > lo
}

func zmmTakes2(b0, b1, lo, hi int) bool {
	if min(b0, b1) == 1 {
		hi -= (hi - lo) & 1
		return useAVX512 && lo&1 == 0 && hi&^3 > (lo+3)&^3
	}
	return useAVX512 && min(b0, b1) >= 4 && hi&^3 > (lo+3)&^3
}

// checkKern1ZMM runs the numeric general 2x2 sweep, resolved with and
// without the ZMM routines, on copies of amp and fails on the first bit
// difference: without them the sweep runs kern1FMA throughout. It
// reports whether the sweep reached the ZMM assembly. The caller has
// checked useAVX512.
func checkKern1ZMM(t testing.TB, amp []complex128, q, lo, hi int, u [4]complex128) bool {
	t.Helper()
	bit := 1 << q
	want := append([]complex128(nil), amp...)
	got := append([]complex128(nil), amp...)
	useAVX512 = false
	run1(want, sGeneric, FuseNumeric, bit, lo, hi, u)
	useAVX512 = true
	run1(got, sGeneric, FuseNumeric, bit, lo, hi, u)
	if i := bitsDiffer(want, got); i >= 0 {
		t.Fatalf("kern1 ZMM n=%d q=%d [%d,%d): amplitude %d: ZMM %v, YMM %v",
			len(amp), q, lo, hi, i, got[i], want[i])
	}
	return zmmTakes1(bit, lo, hi)
}

// checkKern2ZMM is checkKern1ZMM for the numeric general 4x4 sweep on the
// ordered pair (q0, q1), against kern2FMA and kern2FMAQ0.
func checkKern2ZMM(t testing.TB, amp []complex128, q0, q1, lo, hi int, m *[16]complex128) bool {
	t.Helper()
	b0, b1 := 1<<q0, 1<<q1
	want := append([]complex128(nil), amp...)
	got := append([]complex128(nil), amp...)
	useAVX512 = false
	run2(want, false, FuseNumeric, b0, b1, lo, hi, m)
	useAVX512 = true
	run2(got, false, FuseNumeric, b0, b1, lo, hi, m)
	if i := bitsDiffer(want, got); i >= 0 {
		t.Fatalf("kern2 ZMM n=%d q=(%d,%d) [%d,%d): amplitude %d: ZMM %v, YMM %v",
			len(amp), q0, q1, lo, hi, i, got[i], want[i])
	}
	return zmmTakes2(b0, b1, lo, hi)
}

// TestKernelZMMParity holds the ZMM sweeps to the bits of the YMM FMA
// sweeps on every qubit and every ordered pair for n = 1..13, qubit-0
// pairs included, over the ranges and the ±0, subnormal and sparse
// states of TestKernelAsmParity.
func TestKernelZMMParity(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(20200722))
	var cases, zmm, q0zmm int
	for n := 1; n <= 13; n++ {
		dim := 1 << n
		for q := 0; q < n; q++ {
			for _, rg := range parityRanges(r, dim>>(q+1)) {
				u := [4]complex128{parityComplex(r), parityComplex(r), parityComplex(r), parityComplex(r)}
				cases++
				if checkKern1ZMM(t, parityAmps(r, dim), q, rg[0], rg[1], u) {
					zmm++
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
					if checkKern2ZMM(t, parityAmps(r, dim), q0, q1, rg[0], rg[1], parityMat(r)) {
						zmm++
						if q0 == 0 || q1 == 0 {
							q0zmm++
						}
					}
				}
			}
		}
	}
	if zmm < cases/4 || q0zmm < zmm/16 {
		t.Fatalf("only %d of %d cases reached the ZMM assembly, %d of them qubit-0 pairs", zmm, cases, q0zmm)
	}
	t.Logf("%d cases, %d through the ZMM assembly, %d of them qubit-0 pairs", cases, zmm, q0zmm)
}

func FuzzKernelZMMParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(2), uint8(3), uint16(0), uint16(8))
	f.Add(int64(2), uint8(12), uint8(11), uint8(2), uint16(3), uint16(1000))
	f.Add(int64(3), uint8(6), uint8(5), uint8(4), uint16(2), uint16(14))
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), uint16(0), uint16(1))
	f.Add(int64(5), uint8(8), uint8(0), uint8(5), uint16(4), uint16(62))
	f.Add(int64(6), uint8(9), uint8(2), uint8(0), uint16(2), uint16(126))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, q0Raw, q1Raw uint8, loRaw, hiRaw uint16) {
		requireAVX512(t)
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
		checkKern1ZMM(t, parityAmps(r, dim), q0, lo, hi, u)
		if n < 2 {
			return
		}
		q1 := int(q1Raw) % n
		if q1 == q0 {
			q1 = (q0 + 1) % n
		}
		lo, hi = span(dim >> 2)
		checkKern2ZMM(t, parityAmps(r, dim), q0, q1, lo, hi, parityMat(r))
	})
}

// TestKernelAsmParityChunked covers sweeps longer than asmChunk, which
// the chunk loops split into several assembly calls: at n = 16 a pair chunk
// edge on a high qubit falls inside a block's lower half, and the ranges
// put odd edges next to chunk edges. A round of the Pauli and CX sweeps
// and one of the H and diagonal sweeps run on the same qubits and ranges. Where the CPU has FMA, each case
// also holds the numeric (FMA) sweep to its error bound, and where it has
// AVX-512F, the ZMM sweeps to the bits of the YMM ones.
func TestKernelAsmParityChunked(t *testing.T) {
	requireAsm(t)
	const n = 16
	const dim = 1 << n
	r := rand.New(rand.NewSource(16))
	ranges := func(units int) [][2]int {
		rs := [][2]int{{0, units}}
		if units >= 3 {
			rs = append(rs, [2]int{1, units - 1})
		}
		if units > asmChunk {
			rs = append(rs, [2]int{asmChunk - 1, min(3*asmChunk+1, units)})
		}
		return rs
	}
	qubits := []int{0, 1, 2, n - 3, n - 2, n - 1}
	var chunked, zmm int
	for _, q := range qubits {
		for _, rg := range ranges(dim >> (q + 1)) {
			u := [4]complex128{parityComplex(r), parityComplex(r), parityComplex(r), parityComplex(r)}
			amp := parityAmps(r, dim)
			if _, changed := checkKern1(t, amp, q, rg[0], rg[1], u); !changed {
				t.Fatalf("kern1 q=%d [%d,%d) left the state unchanged", q, rg[0], rg[1])
			}
			if useFMA {
				checkKern1FMA(t, amp, q, rg[0], rg[1], u)
			}
			if useAVX512 && checkKern1ZMM(t, amp, q, rg[0], rg[1], u) {
				zmm++
			}
			if (rg[1]-rg[0])<<q > asmChunk {
				chunked++
			}
		}
	}
	for _, q0 := range qubits {
		for _, q1 := range qubits {
			if q0 == q1 {
				continue
			}
			for _, rg := range ranges(dim >> 2) {
				amp, m := parityAmps(r, dim), parityMat(r)
				if _, changed := checkKern2(t, amp, q0, q1, rg[0], rg[1], m); !changed {
					t.Fatalf("kern2 q=(%d,%d) [%d,%d) left the state unchanged", q0, q1, rg[0], rg[1])
				}
				if useFMA {
					checkKern2FMA(t, amp, q0, q1, rg[0], rg[1], m)
				}
				if useAVX512 && checkKern2ZMM(t, amp, q0, q1, rg[0], rg[1], m) {
					zmm++
				}
				chunked++
			}
		}
	}
	// The Pauli and CX sweeps chunk as the 2x2 and 4x4 sweeps do.
	for _, k := range pauliKerns {
		for _, q0 := range qubits {
			if !k.two {
				for _, rg := range ranges(dim >> (q0 + 1)) {
					if _, changed := checkPauli(t, k, parityAmps(r, dim), q0, 0, rg[0], rg[1]); !changed {
						t.Fatalf("%s q=%d [%d,%d) left the state unchanged", k.name, q0, rg[0], rg[1])
					}
				}
				continue
			}
			for _, q1 := range qubits {
				if q0 == q1 {
					continue
				}
				for _, rg := range ranges(dim >> 2) {
					if _, changed := checkPauli(t, k, parityAmps(r, dim), q0, q1, rg[0], rg[1]); !changed {
						t.Fatalf("CX q=(%d,%d) [%d,%d) left the state unchanged", q0, q1, rg[0], rg[1])
					}
				}
			}
		}
	}
	// So do the H and diagonal sweeps, d0 == 1 and d0 != 1.
	for _, k := range diagHKerns {
		for _, q := range qubits {
			for i, rg := range ranges(dim >> (q + 1)) {
				d0, d1 := diagHConsts(r, k.name == "diag" && i&1 == 0)
				if _, changed := checkDiagH(t, k, parityAmps(r, dim), q, rg[0], rg[1], d0, d1); !changed {
					t.Fatalf("%s q=%d [%d,%d) left the state unchanged", k.name, q, rg[0], rg[1])
				}
			}
		}
	}
	if chunked == 0 {
		t.Fatal("no case spans more than one assembly chunk")
	}
	if useAVX512 && zmm == 0 {
		t.Fatal("no case reached the ZMM assembly")
	}
}

// TestKernelNumericWithoutFMA resolves the numeric general 2x2 and 4x4
// sweeps at ISA level avx2, the path of an AVX2 CPU without FMA: they must
// then be the exact routines, Float64bits-identical to kern1Go and
// kern2Go.
func TestKernelNumericWithoutFMA(t *testing.T) {
	requireAsm(t)
	setISA(t, "avx2")
	r := rand.New(rand.NewSource(18))
	const n = 10
	const dim = 1 << n
	for q := 0; q < n; q++ {
		u := [4]complex128{parityComplex(r), parityComplex(r), parityComplex(r), parityComplex(r)}
		amp := parityAmps(r, dim)
		want := append([]complex128(nil), amp...)
		kern1Go(want, 1<<q, 0, dim>>(q+1), u[0], u[1], u[2], u[3])
		run1(amp, sGeneric, FuseNumeric, 1<<q, 0, dim>>(q+1), u)
		if i := bitsDiffer(want, amp); i >= 0 {
			t.Fatalf("numeric 2x2 q=%d without FMA: amplitude %d differs from kern1Go", q, i)
		}
		for q1 := 0; q1 < n; q1++ {
			if q1 == q {
				continue
			}
			m := parityMat(r)
			amp := parityAmps(r, dim)
			want := append([]complex128(nil), amp...)
			kern2Go(want, 1<<q, 1<<q1, 0, dim>>2, m)
			run2(amp, false, FuseNumeric, 1<<q, 1<<q1, 0, dim>>2, m)
			if i := bitsDiffer(want, amp); i >= 0 {
				t.Fatalf("numeric 4x4 q=(%d,%d) without FMA: amplitude %d differs from kern2Go", q, q1, i)
			}
		}
	}
}

// TestKernelNumericWithoutAVX512 resolves the numeric general 2x2 and 4x4
// sweeps at ISA level avx2+fma, the path of an AVX2+FMA CPU without
// AVX-512F: they must then be the YMM FMA routines, Float64bits-identical
// to one direct kern1FMA, kern2FMA or kern2FMAQ0 call over the whole
// state.
func TestKernelNumericWithoutAVX512(t *testing.T) {
	requireFMA(t)
	setISA(t, "avx2+fma")
	if isa := KernelISA(); isa != "avx2+fma" {
		t.Fatalf("KernelISA() = %q without AVX-512, want avx2+fma", isa)
	}
	r := rand.New(rand.NewSource(23))
	const n = 10
	const dim = 1 << n
	for q := 0; q < n; q++ {
		u := [4]complex128{parityComplex(r), parityComplex(r), parityComplex(r), parityComplex(r)}
		amp := parityAmps(r, dim)
		want := append([]complex128(nil), amp...)
		kern1FMA(want, 1<<q, 0, dim/2, u[0], u[1], u[2], u[3])
		run1(amp, sGeneric, FuseNumeric, 1<<q, 0, dim>>(q+1), u)
		if i := bitsDiffer(want, amp); i >= 0 {
			t.Fatalf("numeric 2x2 q=%d without AVX-512: amplitude %d differs from kern1FMA", q, i)
		}
		for q1 := 0; q1 < n; q1++ {
			if q1 == q {
				continue
			}
			b0, b1 := 1<<q, 1<<q1
			m := parityMat(r)
			amp := parityAmps(r, dim)
			want := append([]complex128(nil), amp...)
			if lowb, highb := sort2(b0, b1); lowb == 1 {
				kern2FMAQ0(want, highb, b0&1, 0, dim>>2, m)
			} else {
				kern2FMA(want, lowb, highb, b0, b1, 0, dim>>2, m)
			}
			run2(amp, false, FuseNumeric, b0, b1, 0, dim>>2, m)
			if i := bitsDiffer(want, amp); i >= 0 {
				t.Fatalf("numeric 4x4 q=(%d,%d) without AVX-512: amplitude %d differs from the YMM FMA sweep", q, q1, i)
			}
		}
	}
}
