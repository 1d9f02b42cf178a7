package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The Pauli and CX sweeps must match kernXGo, kernYGo, kernZGo and
// kernCXGo bit for bit. Y is the only one that does arithmetic; X, Z and
// CX would show a wrong offset, lane or sign.

// pauliKern is one Pauli or CX sweep: the chunk loop on its resolved
// routine and the Go body it must match. The single-qubit sweeps ignore
// b1.
type pauliKern struct {
	name      string
	two       bool
	wrap, ref func(amp []complex128, b0, b1, lo, hi int)
}

var pauliKerns = []pauliKern{
	{"X", false,
		func(a []complex128, bit, _, lo, hi int) { run1(a, sX, FuseOff, bit, lo, hi, [4]complex128{}) },
		func(a []complex128, bit, _, lo, hi int) { kernXGo(a, bit, lo, hi) }},
	{"Y", false,
		func(a []complex128, bit, _, lo, hi int) { run1(a, sY, FuseOff, bit, lo, hi, [4]complex128{}) },
		func(a []complex128, bit, _, lo, hi int) { kernYGo(a, bit, lo, hi) }},
	{"Z", false,
		func(a []complex128, bit, _, lo, hi int) { run1(a, sZ, FuseOff, bit, lo, hi, [4]complex128{}) },
		func(a []complex128, bit, _, lo, hi int) { kernZGo(a, bit, lo, hi) }},
	{"CX", true,
		func(a []complex128, cb, tb, lo, hi int) { run2(a, true, FuseOff, cb, tb, lo, hi, nil) },
		kernCXGo},
}

// pauliAmps is parityAmps with some components set to ±Inf: Y multiplies
// every component by zero, and 0*Inf is a NaN whose bits must match too.
func pauliAmps(r *rand.Rand, dim int) []complex128 {
	amp := parityAmps(r, dim)
	for i := range amp {
		if r.Intn(16) == 0 {
			inf := math.Inf(1 - 2*r.Intn(2))
			if r.Intn(2) == 0 {
				amp[i] = complex(inf, imag(amp[i]))
			} else {
				amp[i] = complex(real(amp[i]), inf)
			}
		}
	}
	return amp
}

// checkPauli runs k's sweep and Go body on copies of amp for qubit q0
// (control q0, target q1 for CX) over units [lo, hi) and fails on the
// first bit difference, or on a Z sweep that changes a lower half. It
// reports whether the sweep reached the assembly and changed the state.
func checkPauli(t testing.TB, k pauliKern, amp []complex128, q0, q1, lo, hi int) (asm, changed bool) {
	t.Helper()
	b0, b1 := 1<<q0, 1<<q1
	want := append([]complex128(nil), amp...)
	got := append([]complex128(nil), amp...)
	k.ref(want, b0, b1, lo, hi)
	k.wrap(got, b0, b1, lo, hi)
	if i := bitsDiffer(want, got); i >= 0 {
		t.Fatalf("%s n=%d q=(%d,%d) [%d,%d): amplitude %d: asm %v, Go %v (bits %x %x vs %x %x)",
			k.name, len(amp), q0, q1, lo, hi, i, got[i], want[i],
			math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
			math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
	}
	if k.name == "Z" {
		for i := range got {
			if i&b0 == 0 && bitsDiffer(amp[i:i+1], got[i:i+1]) >= 0 {
				t.Fatalf("Z n=%d q=%d [%d,%d): lower-half amplitude %d changed", len(amp), q0, lo, hi, i)
			}
		}
	}
	if k.two {
		asm = asmTakes2(b0, b1, lo, hi)
	} else {
		asm = asmTakes1(b0, lo, hi)
	}
	return asm, bitsDiffer(amp, want) >= 0
}

// TestKernelPauliParity holds every Pauli sweep on every qubit, and the CX
// sweep on every ordered pair, to the bits of the Go bodies for
// n = 1..13, over the ranges of TestKernelAsmParity (odd and even edges,
// empty and one-unit ranges) and ±0, subnormal, Inf and sparse states.
func TestKernelPauliParity(t *testing.T) {
	requireAsm(t)
	r := rand.New(rand.NewSource(20200724))
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
	for n := 1; n <= 13; n++ {
		dim := 1 << n
		for _, k := range pauliKerns {
			for q0 := 0; q0 < n; q0++ {
				if !k.two {
					for _, rg := range parityRanges(r, dim>>(q0+1)) {
						tally(checkPauli(t, k, pauliAmps(r, dim), q0, 0, rg[0], rg[1]))
					}
					continue
				}
				for q1 := 0; q1 < n; q1++ {
					if q1 == q0 {
						continue
					}
					for _, rg := range parityRanges(r, dim>>2) {
						tally(checkPauli(t, k, pauliAmps(r, dim), q0, q1, rg[0], rg[1]))
					}
				}
			}
		}
	}
	if asm < cases/2 || changed < cases/2 {
		t.Fatalf("only %d of %d cases reached the assembly and %d changed the state", asm, cases, changed)
	}
	t.Logf("%d cases, %d through the assembly, %d changed the state", cases, asm, changed)
}

func FuzzKernelPauliParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(1), uint16(0), uint16(8))
	f.Add(int64(2), uint8(12), uint8(11), uint8(0), uint16(3), uint16(1000))
	f.Add(int64(3), uint8(3), uint8(2), uint8(1), uint16(1), uint16(2))
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
		q1 := int(q1Raw) % n
		if q1 == q0 {
			q1 = (q0 + 1) % n
		}
		for _, k := range pauliKerns {
			if !k.two {
				lo, hi := span(dim >> (q0 + 1))
				checkPauli(t, k, pauliAmps(r, dim), q0, 0, lo, hi)
			} else if n >= 2 {
				lo, hi := span(dim >> 2)
				checkPauli(t, k, pauliAmps(r, dim), q0, q1, lo, hi)
			}
		}
	})
}

// BenchmarkKernPauli times one full Pauli or CX sweep, the Go body
// against the chunk loop (the AVX2 assembly where the CPU has it), at n = 5,
// 10 and 14 on qubit 0 and the high qubit. The copy row copies the whole
// state, the bandwidth roof of a sweep that reads and writes every
// amplitude.
func BenchmarkKernPauli(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{5, 10, 14} {
		amp := randState(r, n).amp
		dst := make([]complex128, len(amp))
		b.Run(fmt.Sprintf("n=%d/copy", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(dst, amp)
			}
		})
		for _, k := range pauliKerns {
			qs := [][2]int{{0, 0}, {n - 1, 0}}
			units := func(q int) int { return len(amp) >> (q + 1) }
			if k.two {
				qs = [][2]int{{0, n - 1}, {n - 1, 0}, {2, n - 1}}
				units = func(int) int { return len(amp) >> 2 }
			}
			for _, q := range qs {
				b0, b1, u := 1<<q[0], 1<<q[1], units(q[0])
				name := fmt.Sprintf("n=%d/%s/q=%d", n, k.name, q[0])
				if k.two {
					name = fmt.Sprintf("n=%d/%s/q=%d,%d", n, k.name, q[0], q[1])
				}
				b.Run(name+"/go", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.ref(amp, b0, b1, 0, u)
					}
				})
				b.Run(name+"/asm", func(b *testing.B) {
					requireAsm(b)
					for i := 0; i < b.N; i++ {
						k.wrap(amp, b0, b1, 0, u)
					}
				})
			}
		}
	}
}
