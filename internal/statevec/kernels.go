package statevec

import (
	"fmt"

	"repro/internal/qmath"
)

// This file holds the amplitude-sweep kernels behind every gate
// application. Each kernel is a free function over a raw amplitude slice
// plus an explicit work-unit range, so the same code path serves three
// callers with bit-identical arithmetic:
//
//   - the per-gate dispatch (State.ApplyOp / State.ApplyPauli), which
//     passes the full unit range;
//   - the compiled programs of compile.go, which replay the same per-pair
//     formulas inside fused sweeps;
//   - the striped executor, which partitions the unit range across
//     goroutines (every unit is an independent block of amplitudes, so
//     stripes never overlap).
//
// A "unit" is the smallest independent block of the sweep: one `base`
// block of 2*bit amplitudes for single-qubit kernels, one amplitude for
// diagonal sweeps, and one free-subcube index for the controlled and
// multi-qubit kernels (which iterate only the active subspace instead of
// scanning and testing all 2^n indices).
//
// The per-pair formulas are deliberately tiny functions: the compiler
// inlines them, and writing each formula exactly once is what guarantees
// that fused execution stays bit-identical to gate-by-gate dispatch —
// the differential harness compares amplitudes by Float64bits, so even a
// reassociated addition or a flipped zero sign is a detectable bug.
//
// The pair sweeps (X, Y, Z, H, diagonal, general 2x2) and the unit sweeps
// (CX, general 4x4) each have a Go body here and, on amd64, assembly
// routines in kernels_amd64.s. Which one a kernel runs is its routine,
// resolved once per kernel from the CPU's instruction sets, the fuse mode
// and the qubit shape. Two chunk loops run every routine: sweepPairs and
// sweepUnits (kernels_amd64.go) prove a range in bounds, hand its odd
// edges to the Go body and the rest to the assembly in asmChunk calls.
// State.ApplyKernels runs a slice of dispatch kernels through the tape
// instead, one assembly call for as many whole-state sweeps as fit in
// asmChunk.

// KernelISA names the sweep bodies this build runs on this CPU: "go" (the
// portable bodies), "avx2" (the exact AVX2 routines of kernels_amd64.s for
// every pair and unit sweep, Float64bits-identical to the Go bodies, in
// every fuse mode), "avx2+fma" (FuseNumeric programs' general 2x2 and 4x4
// sweeps also take the FMA routines) or "avx2+fma+avx512" (those FMA
// sweeps run in ZMM registers where four pairs or units fit in a vector,
// qubit-0 pairs included). pairRoutine and unitRoutine hold the choice.
func KernelISA() string {
	switch {
	case useAVX512:
		return "avx2+fma+avx512"
	case useFMA:
		return "avx2+fma"
	case useAVX2:
		return "avx2"
	}
	return "go"
}

// KernelFeatures reports the instruction sets the sweep routines use in
// this build on this CPU: AVX2 for the exact routines, FMA for the
// FuseNumeric ones and AVX512 (AVX-512F) for their ZMM form. KernelISA
// names the same set.
type KernelFeatures struct{ AVX2, FMA, AVX512 bool }

// Kernels returns the KernelFeatures of this build on this CPU.
func Kernels() KernelFeatures {
	return KernelFeatures{AVX2: useAVX2, FMA: useFMA, AVX512: useAVX512}
}

// routine names the body a pair or unit sweep runs: a portable Go body or
// one routine of kernels_amd64.s. Each kernel's routine is picked once,
// when ResolveOp resolves an op or lowering finishes a segment
// (pairRoutine, unitRoutine); the chunk loops sweepPairs and sweepUnits
// then only switch on it. Pair routines serve single-qubit sweeps, unit
// routines two-qubit ones. The Go bodies come first: r < rXAVX2 means no
// assembly.
type routine uint8

const (
	rNone routine = iota // no pair or unit sweep
	rXGo
	rYGo
	rZGo
	rHGo
	rDiagGo // d0 == 1 or not
	r1Go
	rCXGo
	r2Go
	rXAVX2
	rYAVX2
	rZAVX2
	rHAVX2
	rDiag1AVX2 // d0 == 1: the upper halves only
	rDiagAVX2
	r1AVX2
	r1FMA
	r1FMA512
	rCXAVX2
	r2AVX2
	r2AVX2Q0
	r2FMA
	r2FMAQ0
	r2FMA512
	r2FMAQ0512
)

// String names the function the routine calls.
func (r routine) String() string {
	return [...]string{"none", "kernXGo", "kernYGo", "kernZGo", "kernHGo", "kernDiagGo", "kern1Go",
		"kernCXGo", "kern2Go", "kernXAVX2", "kernYAVX2", "kernZAVX2", "kernHAVX2", "kernDiag1AVX2",
		"kernDiagAVX2", "kern1AVX2", "kern1FMA", "kern1FMA512", "kernCXAVX2", "kern2AVX2",
		"kern2AVX2Q0", "kern2FMA", "kern2FMAQ0", "kern2FMA512", "kern2FMAQ0512"}[r]
}

// pairGo and pairAVX2 are the Go body and the exact AVX2 routine of each
// chain opcode.
var (
	pairGo   = [...]routine{sGeneric: r1Go, sX: rXGo, sY: rYGo, sZ: rZGo, sH: rHGo, sDiag1: rDiagGo, sDiag: rDiagGo}
	pairAVX2 = [...]routine{sGeneric: r1AVX2, sX: rXAVX2, sY: rYAVX2, sZ: rZAVX2, sH: rHAVX2, sDiag1: rDiag1AVX2, sDiag: rDiagAVX2}
)

// pairRoutine picks the sweep of a single-qubit kernel with chain opcode
// op on bit in fuse mode. asm reports that the assembly may run: the CPU
// has AVX2 and, for a whole-state sweep, the state holds at least two
// pairs. Only FuseNumeric general 2x2 sweeps take the FMA routines (in
// ZMM registers for bit >= 4 where the CPU has AVX-512F): FuseOff and
// FuseExact stay Float64bits-identical to the Go bodies.
func pairRoutine(op uint8, bit int, mode FuseMode, asm bool) routine {
	switch {
	case !asm:
		return pairGo[op]
	case op != sGeneric || mode != FuseNumeric || !useFMA:
		return pairAVX2[op]
	case useAVX512 && bit >= 4:
		return r1FMA512
	}
	return r1FMA
}

// unitRoutine is pairRoutine for a two-qubit kernel on bits b0 and b1: a
// CX when cx is set (its exact sweep serves every mode), a general 4x4
// otherwise. A pair that includes qubit 0 takes the Q0 routines. The ZMM
// FMA sweeps serve qubit-0 pairs and pairs with both bits >= 4; a pair
// whose lower bit is 2 stays on the YMM kern2FMA.
func unitRoutine(cx bool, b0, b1 int, mode FuseMode, asm bool) routine {
	q0 := b0 == 1 || b1 == 1
	switch {
	case cx && asm:
		return rCXAVX2
	case cx:
		return rCXGo
	case !asm:
		return r2Go
	case (mode != FuseNumeric || !useFMA) && q0:
		return r2AVX2Q0
	case mode != FuseNumeric || !useFMA:
		return r2AVX2
	case useAVX512 && q0:
		return r2FMAQ0512
	case useAVX512 && min(b0, b1) >= 4:
		return r2FMA512
	case q0:
		return r2FMAQ0
	}
	return r2FMA
}

// goPairs runs the Go body of pair routine r over base blocks [lo, hi) of
// bit: a Go routine's whole sweep, or the ranges an assembly routine
// leaves to its body. u holds the 2x2 entries (a diagonal's d0 and d1 are
// u[0] and u[3]); the Pauli and H bodies ignore it.
func goPairs(amp []complex128, r routine, bit, lo, hi int, u *[4]complex128) {
	switch r {
	case rXGo, rXAVX2:
		kernXGo(amp, bit, lo, hi)
	case rYGo, rYAVX2:
		kernYGo(amp, bit, lo, hi)
	case rZGo, rZAVX2:
		kernZGo(amp, bit, lo, hi)
	case rHGo, rHAVX2:
		kernHGo(amp, bit, lo, hi)
	case rDiagGo, rDiag1AVX2, rDiagAVX2:
		kernDiagGo(amp, bit, lo, hi, u[0], u[3])
	case r1Go, r1AVX2, r1FMA, r1FMA512:
		kern1Go(amp, bit, lo, hi, u[0], u[1], u[2], u[3])
	default:
		panic(fmt.Sprintf("statevec: %v is not a pair sweep", r))
	}
}

// goUnits is goPairs for unit routine r over free-subcube units [lo, hi)
// of bits b0 and b1 (control and target for CX, which ignores m).
func goUnits(amp []complex128, r routine, b0, b1, lo, hi int, m *[16]complex128) {
	switch r {
	case rCXGo, rCXAVX2:
		kernCXGo(amp, b0, b1, lo, hi)
	case r2Go, r2AVX2, r2AVX2Q0, r2FMA, r2FMAQ0, r2FMA512, r2FMAQ0512:
		kern2Go(amp, b0, b1, lo, hi, m)
	default:
		panic(fmt.Sprintf("statevec: %v is not a unit sweep", r))
	}
}

// pair1 applies a general 2x2 unitary to an amplitude pair.
func pair1(a0, a1, u00, u01, u10, u11 complex128) (complex128, complex128) {
	return u00*a0 + u01*a1, u10*a0 + u11*a1
}

// pairY applies Pauli-Y: (a0, a1) -> (-i*a1, i*a0). This is the formula
// ApplyPauli has always used for injected Y errors; the Y-gate dispatch
// and the fused kernels share it.
func pairY(a0, a1 complex128) (complex128, complex128) {
	return -1i * a1, 1i * a0
}

// pairH applies the Hadamard in factored form: two multiplies instead of
// the generic kernel's four.
func pairH(a0, a1 complex128) (complex128, complex128) {
	c := qmath.SqrtHalf
	return (a0 + a1) * c, (a0 - a1) * c
}

// kern1Go sweeps a general 2x2 unitary over base blocks [lo, hi). It is
// the portable body of the general 2x2 routines and the reference the
// AVX2 sweep is tested against bit for bit.
func kern1Go(amp []complex128, bit, lo, hi int, u00, u01, u10, u11 complex128) {
	stride := bit << 1
	for u := lo; u < hi; u++ {
		base := u * stride
		for i := base; i < base+bit; i++ {
			amp[i], amp[i|bit] = pair1(amp[i], amp[i|bit], u00, u01, u10, u11)
		}
	}
}

// kernXGo sweeps Pauli-X: swap the halves of each block. It, kernYGo,
// kernZGo and kernCXGo are the portable bodies of the X, Y, Z and CX
// routines and the references their AVX2 sweeps are tested against bit
// for bit.
func kernXGo(amp []complex128, bit, lo, hi int) {
	stride := bit << 1
	for u := lo; u < hi; u++ {
		base := u * stride
		for i := base; i < base+bit; i++ {
			amp[i], amp[i|bit] = amp[i|bit], amp[i]
		}
	}
}

// kernYGo sweeps Pauli-Y.
func kernYGo(amp []complex128, bit, lo, hi int) {
	stride := bit << 1
	for u := lo; u < hi; u++ {
		base := u * stride
		for i := base; i < base+bit; i++ {
			amp[i], amp[i|bit] = pairY(amp[i], amp[i|bit])
		}
	}
}

// kernZGo sweeps Pauli-Z: negate the upper half of each block.
func kernZGo(amp []complex128, bit, lo, hi int) {
	stride := bit << 1
	for u := lo; u < hi; u++ {
		base := u * stride
		for i := base; i < base+bit; i++ {
			amp[i|bit] = -amp[i|bit]
		}
	}
}

// kernHGo sweeps the Hadamard. It and kernDiagGo are the portable bodies
// of the H and diagonal routines and the references their AVX2 sweeps
// are tested against bit for bit.
func kernHGo(amp []complex128, bit, lo, hi int) {
	stride := bit << 1
	for u := lo; u < hi; u++ {
		base := u * stride
		for i := base; i < base+bit; i++ {
			amp[i], amp[i|bit] = pairH(amp[i], amp[i|bit])
		}
	}
}

// kernDiagGo sweeps a diagonal single-qubit gate diag(d0, d1). When d0 is
// exactly 1 (S, Sdg, T, Tdg, P, U1) only the upper half of each block is
// touched — half the work and half the memory traffic of the generic
// kernel, with no pair swaps.
func kernDiagGo(amp []complex128, bit, lo, hi int, d0, d1 complex128) {
	stride := bit << 1
	if d0 == 1 {
		for u := lo; u < hi; u++ {
			base := u*stride | bit
			for i := base; i < base+bit; i++ {
				amp[i] *= d1
			}
		}
		return
	}
	for u := lo; u < hi; u++ {
		base := u * stride
		for i := base; i < base+bit; i++ {
			amp[i] *= d0
			amp[i|bit] *= d1
		}
	}
}

// spreadBit inserts a zero bit at the position of `bit`: the bits of u at
// or above that position shift up by one, the bits below stay. Applying
// it for each fixed qubit in ascending position order enumerates a free
// subcube: the 2^(n-k) indices with the fixed qubits' bits all zero.
func spreadBit(u, bit int) int {
	lo := u & (bit - 1)
	return (u-lo)<<1 | lo
}

// sort2 and sort3 order bit masks ascending for the spread chain.
func sort2(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}

func sort3(a, b, c int) (int, int, int) {
	a, b = sort2(a, b)
	b, c = sort2(b, c)
	a, b = sort2(a, b)
	return a, b, c
}

// kernCXGo sweeps a controlled-X over free-subcube units [lo, hi): only
// the control=1, target=0 quarter of the index space is visited, instead
// of scanning all 2^n indices and testing each.
func kernCXGo(amp []complex128, cb, tb, lo, hi int) {
	lowb, highb := sort2(cb, tb)
	for u := lo; u < hi; u++ {
		j := spreadBit(spreadBit(u, lowb), highb) | cb
		amp[j], amp[j|tb] = amp[j|tb], amp[j]
	}
}

// kernCZ sweeps a controlled-Z: negate the both-bits-set quarter.
func kernCZ(amp []complex128, b0, b1, lo, hi int) {
	lowb, highb := sort2(b0, b1)
	mask := b0 | b1
	for u := lo; u < hi; u++ {
		j := spreadBit(spreadBit(u, lowb), highb) | mask
		amp[j] = -amp[j]
	}
}

// kernSwap sweeps a SWAP: exchange the (1,0) and (0,1) quarters.
func kernSwap(amp []complex128, b0, b1, lo, hi int) {
	lowb, highb := sort2(b0, b1)
	for u := lo; u < hi; u++ {
		j := spreadBit(spreadBit(u, lowb), highb) | b0
		k := j ^ b0 ^ b1
		amp[j], amp[k] = amp[k], amp[j]
	}
}

// kernCCX sweeps a Toffoli natively: visit the controls=11, target=0
// eighth of the index space and swap with its target=1 partner, instead
// of falling through to the generic 2^k matrix path.
func kernCCX(amp []complex128, c0, c1, tb, lo, hi int) {
	lb, mb, hb := sort3(c0, c1, tb)
	set := c0 | c1
	for u := lo; u < hi; u++ {
		j := spreadBit(spreadBit(spreadBit(u, lb), mb), hb) | set
		amp[j], amp[j|tb] = amp[j|tb], amp[j]
	}
}

// kern2Go sweeps a general 4x4 unitary over free-subcube units. The
// matrix convention matches apply2/applyK: index (b0 << 1) | b1 where b0
// is the value of qubit q0. The accumulation starts from zero and adds
// row terms in column order, replicating qmath.Matrix.MulVec bit-for-bit.
// It is the portable body of the general 4x4 routines and the AVX2
// sweep's reference.
func kern2Go(amp []complex128, b0, b1, lo, hi int, m *[16]complex128) {
	lowb, highb := sort2(b0, b1)
	for u := lo; u < hi; u++ {
		i0 := spreadBit(spreadBit(u, lowb), highb)
		i1 := i0 | b1
		i2 := i0 | b0
		i3 := i0 | b0 | b1
		a0, a1, a2, a3 := amp[i0], amp[i1], amp[i2], amp[i3]
		var r0, r1, r2, r3 complex128
		r0 += m[0] * a0
		r0 += m[1] * a1
		r0 += m[2] * a2
		r0 += m[3] * a3
		r1 += m[4] * a0
		r1 += m[5] * a1
		r1 += m[6] * a2
		r1 += m[7] * a3
		r2 += m[8] * a0
		r2 += m[9] * a1
		r2 += m[10] * a2
		r2 += m[11] * a3
		r3 += m[12] * a0
		r3 += m[13] * a1
		r3 += m[14] * a2
		r3 += m[15] * a3
		amp[i0], amp[i1], amp[i2], amp[i3] = r0, r1, r2, r3
	}
}
