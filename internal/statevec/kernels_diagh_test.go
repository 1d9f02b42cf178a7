package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/qmath"
)

// The H and diagonal sweeps must match kernHGo and kernDiagGo bit for bit,
// and ApplyKernel's direct assembly calls must match the Go bodies over
// the whole state.

// runDiag sweeps diag(d0, d1) on the routine FuseOff resolves: the
// upper-halves routine when d0 == 1.
func runDiag(amp []complex128, bit, lo, hi int, d0, d1 complex128) {
	op := uint8(sDiag)
	if d0 == 1 {
		op = sDiag1
	}
	run1(amp, op, FuseOff, bit, lo, hi, [4]complex128{d0, 0, 0, d1})
}

// diagHKern is one sweep under test: the chunk loop on its resolved
// routine and the Go body it must match. H ignores d0 and d1.
type diagHKern struct {
	name      string
	wrap, ref func(amp []complex128, bit, lo, hi int, d0, d1 complex128)
}

var diagHKerns = []diagHKern{
	{"H",
		func(a []complex128, bit, lo, hi int, _, _ complex128) {
			run1(a, sH, FuseOff, bit, lo, hi, [4]complex128{})
		},
		func(a []complex128, bit, lo, hi int, _, _ complex128) { kernHGo(a, bit, lo, hi) }},
	{"diag", runDiag, kernDiagGo},
}

// nanAmps is parityAmps with some components set to one NaN, its sign and
// payload drawn per state. Two NaNs of different bits meeting in one
// addition are the one case the sweeps do not promise (see
// kernels_amd64.s), so a state holds a single NaN pattern and no Inf.
func nanAmps(r *rand.Rand, dim int) []complex128 {
	amp := parityAmps(r, dim)
	nan := math.Float64frombits(0x7ff8000000000000 | uint64(r.Int63n(1<<51)) | uint64(r.Intn(2))<<63)
	for i := range amp {
		if r.Intn(8) == 0 {
			if r.Intn(2) == 0 {
				amp[i] = complex(nan, imag(amp[i]))
			} else {
				amp[i] = complex(real(amp[i]), nan)
			}
		}
	}
	return amp
}

// diagHAmps draws a finite (±0, subnormal, wide-exponent), an Inf or a
// NaN state.
func diagHAmps(r *rand.Rand, dim int) []complex128 {
	switch r.Intn(3) {
	case 0:
		return pauliAmps(r, dim)
	case 1:
		return nanAmps(r, dim)
	}
	return parityAmps(r, dim)
}

// checkDiagH runs k's sweep and Go body on copies of amp for qubit q
// over base blocks [lo, hi) and fails on the first bit difference, or on
// a d0 == 1 diagonal sweep that changes a lower half. It reports whether
// the sweep reached the assembly and changed the state.
func checkDiagH(t testing.TB, k diagHKern, amp []complex128, q, lo, hi int, d0, d1 complex128) (asm, changed bool) {
	t.Helper()
	bit := 1 << q
	want := append([]complex128(nil), amp...)
	got := append([]complex128(nil), amp...)
	k.ref(want, bit, lo, hi, d0, d1)
	k.wrap(got, bit, lo, hi, d0, d1)
	if i := bitsDiffer(want, got); i >= 0 {
		t.Fatalf("%s n=%d q=%d [%d,%d) d0=%v d1=%v: amplitude %d: asm %v, Go %v (bits %x %x vs %x %x)",
			k.name, len(amp), q, lo, hi, d0, d1, i, got[i], want[i],
			math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
			math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
	}
	if k.name == "diag" && d0 == 1 {
		for i := range got {
			if i&bit == 0 && bitsDiffer(amp[i:i+1], got[i:i+1]) >= 0 {
				t.Fatalf("diag d0=1 n=%d q=%d [%d,%d): lower-half amplitude %d changed", len(amp), q, lo, hi, i)
			}
		}
	}
	return asmTakes1(bit, lo, hi), bitsDiffer(amp, want) >= 0
}

// diagHConsts draws the diagonal's entries for one case: d0 == 1 (the
// upper-halves branch) or a general d0. H ignores them.
func diagHConsts(r *rand.Rand, one bool) (d0, d1 complex128) {
	d0, d1 = parityComplex(r), parityComplex(r)
	if one {
		d0 = 1
	}
	return d0, d1
}

// TestKernelDiagHParity holds the H and diagonal sweeps, d0 == 1 and
// d0 != 1, on every qubit to the bits of the Go bodies for n = 1..13, over
// the ranges of TestKernelAsmParity (odd and even edges, empty and
// one-unit ranges) and ±0, subnormal, Inf and NaN states.
func TestKernelDiagHParity(t *testing.T) {
	requireAsm(t)
	r := rand.New(rand.NewSource(20200725))
	var cases, asm, changed, one int
	for n := 1; n <= 13; n++ {
		dim := 1 << n
		for _, k := range diagHKerns {
			for q := 0; q < n; q++ {
				for i, rg := range parityRanges(r, dim>>(q+1)) {
					isOne := k.name == "diag" && i&1 == 0
					d0, d1 := diagHConsts(r, isOne)
					a, c := checkDiagH(t, k, diagHAmps(r, dim), q, rg[0], rg[1], d0, d1)
					cases++
					if a {
						asm++
						if isOne {
							one++
						}
					}
					if c {
						changed++
					}
				}
			}
		}
	}
	if asm < cases/2 || changed < cases/2 || one < asm/4 {
		t.Fatalf("only %d of %d cases reached the assembly (%d with d0 == 1) and %d changed the state", asm, cases, one, changed)
	}
	t.Logf("%d cases, %d through the assembly (%d diag with d0 == 1), %d changed the state", cases, asm, one, changed)
}

func FuzzKernelDiagHParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint16(0), uint16(8), false)
	f.Add(int64(2), uint8(12), uint8(11), uint16(3), uint16(1000), true)
	f.Add(int64(3), uint8(3), uint8(2), uint16(1), uint16(2), false)
	f.Add(int64(4), uint8(1), uint8(0), uint16(0), uint16(1), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, qRaw uint8, loRaw, hiRaw uint16, one bool) {
		requireAsm(t)
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%12
		dim := 1 << n
		q := int(qRaw) % n
		units := dim >> (q + 1)
		lo, hi := int(loRaw)%(units+1), int(hiRaw)%(units+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, k := range diagHKerns {
			d0, d1 := diagHConsts(r, one)
			checkDiagH(t, k, diagHAmps(r, dim), q, lo, hi, d0, d1)
		}
	})
}

// applyGo applies gate g on qubits qs through the Go bodies, the
// reference of ApplyKernel's direct assembly calls.
func applyGo(amp []complex128, g gate.Gate, qs []int) {
	m := g.Matrix().Data()
	b0 := 1 << qs[0]
	units := len(amp) >> 1 / b0
	switch kind := g.Kind(); {
	case kind == gate.KindX:
		kernXGo(amp, b0, 0, units)
	case kind == gate.KindY:
		kernYGo(amp, b0, 0, units)
	case kind == gate.KindZ:
		kernZGo(amp, b0, 0, units)
	case kind == gate.KindH:
		kernHGo(amp, b0, 0, units)
	case diagKind(kind):
		kernDiagGo(amp, b0, 0, units, m[0], m[3])
	case g.Qubits() == 1:
		kern1Go(amp, b0, 0, units, m[0], m[1], m[2], m[3])
	case kind == gate.KindCX:
		kernCXGo(amp, b0, 1<<qs[1], 0, len(amp)>>2)
	default:
		kern2Go(amp, b0, 1<<qs[1], 0, len(amp)>>2, (*[16]complex128)(m))
	}
}

// directGates are the gates ApplyKernel may run as one assembly call:
// every pair and unit routine FuseOff resolves to, RZ for a general
// diagonal and U1 for d0 == 1.
func directGates(r *rand.Rand) []gate.Gate {
	th := func() float64 { return (r.Float64() - 0.5) * 8 }
	u3 := func() qmath.Matrix { return gate.U3(th(), th(), th()).Matrix() }
	g2 := gate.Custom("u4", gate.CX().Matrix().Mul(u3().Kron(u3())))
	return []gate.Gate{gate.X(), gate.Y(), gate.Z(), gate.H(), gate.RZ(th()), gate.U1(th()), gate.T(),
		gate.U3(th(), th(), th()), gate.CX(), g2}
}

// TestApplyKernelDirectParity holds ApplyKernel, which calls the assembly
// directly for whole-state sweeps of at most asmChunk pairs or units, to
// the bits of the Go bodies on every qubit (every ordered pair for the
// two-qubit gates) for n = 1..13, on finite, Inf and NaN states; n = 13
// is the largest single-chunk single-qubit state and n = 1, 2 resolve to
// the Go bodies.
func TestApplyKernelDirectParity(t *testing.T) {
	requireAsm(t)
	r := rand.New(rand.NewSource(1013))
	var cases, direct int
	for n := 1; n <= 13; n++ {
		dim := 1 << n
		for _, g := range directGates(r) {
			var pairs [][]int
			for q0 := 0; q0 < n; q0++ {
				if g.Qubits() == 1 {
					pairs = append(pairs, []int{q0})
					continue
				}
				for q1 := 0; q1 < n; q1++ {
					if q1 != q0 {
						pairs = append(pairs, []int{q0, q1})
					}
				}
			}
			for _, qs := range pairs {
				k := ResolveOp(n, g, qs...)
				amp := diagHAmps(r, dim)
				s := &State{n: n, amp: append([]complex128(nil), amp...)}
				want := append([]complex128(nil), amp...)
				applyGo(want, g, qs)
				s.ApplyKernel(&k)
				if i := bitsDiffer(want, s.amp); i >= 0 {
					t.Fatalf("%s n=%d q=%v %v: amplitude %d: got %v, Go %v", g.Name(), n, qs, k.r, i, s.amp[i], want[i])
				}
				cases++
				if k.r >= rXAVX2 {
					direct++
				}
			}
		}
	}
	if direct < cases/2 {
		t.Fatalf("only %d of %d cases took the direct assembly call", direct, cases)
	}
	t.Logf("%d cases, %d through a direct assembly call", cases, direct)
}

// TestApplyKernelWrongSizePanics applies kernels to a state of another
// width: ApplyKernel must panic before it sweeps, whatever the kernel.
func TestApplyKernelWrongSizePanics(t *testing.T) {
	for _, g := range directGates(rand.New(rand.NewSource(2))) {
		qs := []int{0}
		if g.Qubits() == 2 {
			qs = []int{0, 2}
		}
		for _, sizes := range [][2]int{{5, 4}, {5, 6}, {3, 12}, {14, 5}} {
			k := ResolveOp(sizes[0], g, qs...)
			s := NewState(sizes[1])
			before := append([]complex128(nil), s.amp...)
			err := catchPanic(func() { s.ApplyKernel(&k) })
			if err == nil || !strings.Contains(err.Error(), "resolved for") {
				t.Fatalf("%s resolved for n=%d on n=%d: want a size panic, got %v", g.Name(), sizes[0], sizes[1], err)
			}
			if bitsDiffer(before, s.amp) >= 0 {
				t.Fatalf("%s resolved for n=%d on n=%d: state changed before the panic", g.Name(), sizes[0], sizes[1])
			}
		}
	}
}

// BenchmarkKernDiagH times one full H or diagonal sweep (d0 == 1 and
// d0 != 1), the Go body against the chunk loop (the AVX2 assembly where
// the CPU has it), at n = 5, 10 and 14 on qubit 0 and the high qubit.
func BenchmarkKernDiagH(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	d0, d1 := gate.RZ(0.3).Matrix().Data()[0], gate.RZ(0.3).Matrix().Data()[3]
	for _, n := range []int{5, 10, 14} {
		amp := randState(r, n).amp
		for _, q := range []int{0, n - 1} {
			bit, units := 1<<q, len(amp)>>(q+1)
			for _, c := range []struct {
				name   string
				k      diagHKern
				d0, d1 complex128
			}{{"h", diagHKerns[0], 0, 0}, {"diag", diagHKerns[1], d0, d1}, {"diag1", diagHKerns[1], 1, d1}} {
				name := fmt.Sprintf("n=%d/%s/q=%d", n, c.name, q)
				b.Run(name+"/go", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						c.k.ref(amp, bit, 0, units, c.d0, c.d1)
					}
				})
				b.Run(name+"/asm", func(b *testing.B) {
					requireAsm(b)
					for i := 0; i < b.N; i++ {
						c.k.wrap(amp, bit, 0, units, c.d0, c.d1)
					}
				})
			}
		}
	}
}

// BenchmarkApplyKernel times State.ApplyKernel, the per-gate dispatch of
// FuseOff runs, on the gates of the transpiled Table I circuits (u3, rz,
// u1, h and cx) at n = 5, 10 and 14, on qubit 0 and the high qubit (cx:
// control 0, target n-1 and the reverse). Up to n = 13 (14 for cx) the
// sweep is one direct assembly call. The advance rows time one
// paper-yorktown-sized advance, 20 u3, cx and u1 kernels at n = 5, as
// one ApplyKernel per kernel ("loop") and as one ApplyKernels call
// ("tape").
func BenchmarkApplyKernel(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	adv := make([]OpKernel, 20)
	for i := range adv {
		q := i % 5
		switch i % 4 {
		case 0, 2:
			adv[i] = ResolveOp(5, gate.U3(0.3+float64(i), 0.7, 1.1), q)
		case 1:
			adv[i] = ResolveOp(5, gate.CX(), q, (q+1+i%3)%5)
		case 3:
			adv[i] = ResolveOp(5, gate.U1(0.3*float64(i)), q)
		}
	}
	s5 := randState(r, 5)
	b.Run("advance/n=5/loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range adv {
				s5.ApplyKernel(&adv[j])
			}
		}
	})
	b.Run("advance/n=5/tape", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s5.ApplyKernels(adv)
		}
	})
	gates := []struct {
		name string
		g    gate.Gate
	}{
		{"u3", gate.U3(0.3, 0.7, 1.1)}, {"rz", gate.RZ(0.3)}, {"u1", gate.U1(0.3)},
		{"h", gate.H()}, {"cx", gate.CX()},
	}
	for _, n := range []int{5, 10, 14} {
		s := randState(r, n)
		for _, g := range gates {
			qss := [][]int{{0}, {n - 1}}
			if g.g.Qubits() == 2 {
				qss = [][]int{{0, n - 1}, {n - 1, 0}}
			}
			for _, qs := range qss {
				k := ResolveOp(n, g.g, qs...)
				b.Run(fmt.Sprintf("n=%d/%s/q=%v", n, g.name, qs), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s.ApplyKernel(&k)
					}
				})
			}
		}
	}
}
