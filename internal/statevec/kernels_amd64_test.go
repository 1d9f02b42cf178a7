//go:build amd64 && !purego

package statevec

import (
	"math/rand"
	"testing"
)

// TestKernelAsmParityChunked covers sweeps longer than asmChunk, which
// the wrappers split into several assembly calls: at n = 16 a kern1 chunk
// edge on a high qubit falls inside a block's lower half, and the ranges
// put odd edges next to chunk edges. Where the CPU has FMA, each case
// also holds the numeric (FMA) sweep to its error bound.
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
	var chunked int
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
				chunked++
			}
		}
	}
	if chunked == 0 {
		t.Fatal("no case spans more than one assembly chunk")
	}
}

// TestKernelNumericWithoutFMA runs the numeric wrappers with useFMA off,
// the path of an AVX2 CPU without FMA: they must then be kern1 and kern2,
// Float64bits-identical to kern1Go and kern2Go.
func TestKernelNumericWithoutFMA(t *testing.T) {
	requireAsm(t)
	saved := useFMA
	useFMA = false
	t.Cleanup(func() { useFMA = saved })
	r := rand.New(rand.NewSource(18))
	const n = 10
	const dim = 1 << n
	for q := 0; q < n; q++ {
		u := [4]complex128{parityComplex(r), parityComplex(r), parityComplex(r), parityComplex(r)}
		amp := parityAmps(r, dim)
		want := append([]complex128(nil), amp...)
		kern1Go(want, 1<<q, 0, dim>>(q+1), u[0], u[1], u[2], u[3])
		kern1Numeric(amp, 1<<q, 0, dim>>(q+1), u[0], u[1], u[2], u[3])
		if i := bitsDiffer(want, amp); i >= 0 {
			t.Fatalf("kern1Numeric q=%d without FMA: amplitude %d differs from kern1Go", q, i)
		}
		for q1 := 0; q1 < n; q1++ {
			if q1 == q {
				continue
			}
			m := parityMat(r)
			amp := parityAmps(r, dim)
			want := append([]complex128(nil), amp...)
			kern2Go(want, 1<<q, 1<<q1, 0, dim>>2, m)
			kern2Numeric(amp, 1<<q, 1<<q1, 0, dim>>2, m)
			if i := bitsDiffer(want, amp); i >= 0 {
				t.Fatalf("kern2Numeric q=(%d,%d) without FMA: amplitude %d differs from kern2Go", q, q1, i)
			}
		}
	}
}
