//go:build amd64 && !purego

package statevec

import (
	"math/rand"
	"testing"
)

// TestKernelAsmParityChunked covers sweeps longer than asmChunk, which
// the wrappers split into several assembly calls: at n = 16 a kern1 chunk
// edge on a high qubit falls inside a block's lower half, and the ranges
// put odd edges next to chunk edges.
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
			if _, changed := checkKern1(t, parityAmps(r, dim), q, rg[0], rg[1], u); !changed {
				t.Fatalf("kern1 q=%d [%d,%d) left the state unchanged", q, rg[0], rg[1])
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
				if _, changed := checkKern2(t, parityAmps(r, dim), q0, q1, rg[0], rg[1], parityMat(r)); !changed {
					t.Fatalf("kern2 q=(%d,%d) [%d,%d) left the state unchanged", q0, q1, rg[0], rg[1])
				}
				chunked++
			}
		}
	}
	if chunked == 0 {
		t.Fatal("no case spans more than one assembly chunk")
	}
}
