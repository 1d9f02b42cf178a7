//go:build amd64 && !purego

package statevec

import (
	"fmt"
	"math/bits"

	"repro/internal/qmath"
)

// useAVX2 reports that the CPU has AVX2 and the OS saves YMM state, so
// pairRoutine and unitRoutine pick the assembly routines in
// kernels_amd64.s.
var useAVX2 = hasAVX2()

// useFMA reports that the CPU also has FMA, so FuseNumeric general 2x2
// and 4x4 kernels resolve to the fused-multiply-add routines.
var useFMA = useAVX2 && hasFMA()

// useAVX512 reports that the CPU also has AVX-512F and the OS saves ZMM
// state, so those kernels resolve to the ZMM forms of the FMA routines
// where four pairs or units fit in a vector (bit >= 4, lowb >= 4, qubit-0
// pairs), Float64bits-identical to the YMM ones.
var useAVX512 = useFMA && hasAVX512()

// hasAVX2 reads CPUID and XGETBV.
func hasAVX2() bool

// hasFMA reads CPUID; it is only asked once hasAVX2 holds.
func hasFMA() bool

// hasAVX512 reads CPUID and XGETBV; it is only asked once hasFMA holds.
func hasAVX512() bool

// asmChunk bounds the work of one assembly call, in pairs for the pair
// routines and units for the unit routines (tens of microseconds). The
// runtime cannot preempt a goroutine inside assembly, so the chunk loops
// sweep a large state in chunks and a stop-the-world pause waits for one
// chunk, not one whole sweep; a tape call (kernTape) takes kernels only
// while their summed pairs and units stay within it. A multiple of 4, so every chunk edge keeps the
// alignment the assembly needs: even for the YMM sweeps, a multiple of 4
// for the ZMM ones.
const asmChunk = 1 << 12

// kern1AVX2 applies the 2x2 matrix to the amplitude pairs with index
// p in [plo, phi), pair p being spreadBit(p, bit) and bit amplitudes on,
// two pairs per YMM register: kern1Go's arithmetic over its pairs. phi-plo
// is even and positive. For bit >= 2, plo is a multiple of bit or
// [plo, phi) lies inside one block's pairs [u*bit, (u+1)*bit); the
// pairsAsm chunks are one or the other, because asmChunk and bit are powers of two.
//
//go:noescape
func kern1AVX2(amp []complex128, bit, plo, phi int, u00, u01, u10, u11 complex128)

// kern1FMA is kern1AVX2 in the FMA row form: within a few ulps of
// kern1Go, not identical to it.
//
//go:noescape
func kern1FMA(amp []complex128, bit, plo, phi int, u00, u01, u10, u11 complex128)

// kern1FMA512 is kern1FMA in ZMM registers, four pairs per vector, for
// bit >= 4 with plo and phi multiples of 4: Float64bits-identical to
// kern1FMA.
//
//go:noescape
func kern1FMA512(amp []complex128, bit, plo, phi int, u00, u01, u10, u11 complex128)

// kern2AVX2 is kern2Go for lowb >= 2 over units [lo, hi), lo and hi even:
// units u and u+1 are adjacent amplitudes in every matrix slot.
//
//go:noescape
func kern2AVX2(amp []complex128, lowb, highb, b0, b1, lo, hi int, m *[16]complex128)

// kern2AVX2Q0 is kern2Go for a pair that includes qubit 0 (the other bit
// is highb) over units [lo, hi), hi-lo even and positive. q0low is 1 when
// qubit 0 is the matrix's q0 (b0 == 1) and 0 when it is q1.
//
//go:noescape
func kern2AVX2Q0(amp []complex128, highb, q0low, lo, hi int, m *[16]complex128)

// kern2FMA and kern2FMAQ0 are kern2AVX2 and kern2AVX2Q0 in the FMA row
// form: within a few ulps of kern2Go, not identical to it.
//
//go:noescape
func kern2FMA(amp []complex128, lowb, highb, b0, b1, lo, hi int, m *[16]complex128)

//go:noescape
func kern2FMAQ0(amp []complex128, highb, q0low, lo, hi int, m *[16]complex128)

// kern2FMA512 is kern2FMA in ZMM registers, four units per vector, for
// lowb >= 4 with lo and hi multiples of 4: Float64bits-identical to
// kern2FMA.
//
//go:noescape
func kern2FMA512(amp []complex128, lowb, highb, b0, b1, lo, hi int, m *[16]complex128)

// kern2FMAQ0512 is kern2FMAQ0 in ZMM registers, four units per vector,
// with lo and hi multiples of 4: Float64bits-identical to kern2FMAQ0.
//
//go:noescape
func kern2FMAQ0512(amp []complex128, highb, q0low, lo, hi int, m *[16]complex128)

// kernXAVX2, kernYAVX2 and kernZAVX2 are kernXGo, kernYGo and kernZGo
// over the pairs [plo, phi) of kern1AVX2, with its conditions.
//
//go:noescape
func kernXAVX2(amp []complex128, bit, plo, phi int)

//go:noescape
func kernYAVX2(amp []complex128, bit, plo, phi int)

//go:noescape
func kernZAVX2(amp []complex128, bit, plo, phi int)

// kernCXAVX2 is kernCXGo over units [lo, hi), lo < hi, with lowb and
// highb the sorted bits of cb and tb. For lowb >= 2, lo and hi are even.
//
//go:noescape
func kernCXAVX2(amp []complex128, lowb, highb, cb, tb, lo, hi int)

// kernHAVX2 is kernHGo over the pairs [plo, phi) of kern1AVX2, with its
// conditions; c is qmath.SqrtHalf.
//
//go:noescape
func kernHAVX2(amp []complex128, bit, plo, phi int, c complex128)

// kernDiagAVX2 is kernDiagGo for d0 != 1 and kernDiag1AVX2 its d0 == 1
// branch, which touches the upper halves only, over the pairs [plo, phi)
// of kern1AVX2, with its conditions.
//
//go:noescape
func kernDiagAVX2(amp []complex128, bit, plo, phi int, d0, d1 complex128)

//go:noescape
func kernDiag1AVX2(amp []complex128, bit, plo, phi int, d1 complex128)

// kernTape runs the kernels of ks in order on amp, each through the loop
// of the exact AVX2 routine ApplyKernel would call, skipping identity
// kernels, and returns the index of the first kernel it does not take:
// one with a Go routine or another kind, one resolved for a state of
// another size, or one whose pairs or units would take the call's sum
// past asmChunk (the tape in kernels_amd64.s).
//
//go:noescape
func kernTape(amp []complex128, ks []OpKernel) int

// tape runs what kernTape takes of ks on amp; without AVX2 it takes
// nothing.
func tape(amp []complex128, ks []OpKernel) int {
	if !useAVX2 {
		return 0
	}
	return kernTape(amp, ks)
}

// asmPairs reports whether a single-qubit sweep on bit over base blocks
// [lo, hi) has the range an assembly routine can take and returns its
// pairs [plo, phi). Block u holds the pairs [u*bit, (u+1)*bit). The
// assembly does no bounds checks, so asmPairs first proves that the
// highest index the sweep touches, hi*2*bit-1, is in range (compared as
// hi <= len>>log2(2*bit), which cannot overflow); an out-of-range call
// takes the Go body, which panics on the first bad index.
func asmPairs(amp []complex128, bit, lo, hi int) (plo, phi int, ok bool) {
	if bit <= 0 || bit&(bit-1) != 0 || lo < 0 || lo >= hi ||
		uint(hi) > uint(len(amp))>>(uint(bits.TrailingZeros(uint(bit)))+1) {
		return 0, 0, false
	}
	return lo * bit, hi * bit, true
}

// asmUnits2 reports whether a two-qubit sweep on bits b0 and b1 over
// free-subcube units [lo, hi), at least two of them, has the range an
// assembly routine can take and returns the lower bit. It bounds hi by
// the unit count and then checks the highest index the sweep touches
// once, before any write, so an out-of-range call panics there.
func asmUnits2(amp []complex128, b0, b1, lo, hi int) (lowb int, ok bool) {
	lowb, highb := sort2(b0, b1)
	if lowb <= 0 || lowb == highb || lowb&(lowb-1) != 0 || highb&(highb-1) != 0 ||
		lo < 0 || hi-lo < 2 || uint(hi) > uint(len(amp))>>2 {
		return 0, false
	}
	_ = amp[spreadBit(spreadBit(hi-1, lowb), highb)|lowb|highb]
	return lowb, true
}

// sweepPairs runs pair routine r over base blocks [lo, hi) of bit: a Go
// routine, or a range asmPairs cannot prove, goes to the Go body; an
// assembly routine takes the proven pairs in asmChunk calls, and the odd
// last pair of a bit == 1 range goes to the Go body.
func sweepPairs(amp []complex128, r routine, bit, lo, hi int, u *[4]complex128) {
	plo, phi, ok := asmPairs(amp, bit, lo, hi)
	if !ok || r < rXAVX2 {
		goPairs(amp, r, bit, lo, hi, u)
		return
	}
	if (phi-plo)&1 != 0 {
		phi--
		goPairs(amp, r, bit, phi, phi+1, u)
	}
	if plo < phi {
		pairsAsm(amp, r, bit, plo, phi, u)
	}
}

// pairsAsm is the chunk loop of the pair routines: assembly routine r over
// the pairs [plo, phi), proven in range and of an even, positive count,
// one call per asmChunk pairs. ApplyKernel calls it directly for a
// whole-state sweep, which ResolveOp proved in range; a sweep of one
// chunk is one call.
func pairsAsm(amp []complex128, r routine, bit, plo, phi int, u *[4]complex128) {
	if phi-plo > asmChunk {
		for ; plo < phi; plo += asmChunk {
			pairsAsm(amp, r, bit, plo, min(plo+asmChunk, phi), u)
		}
		return
	}
	switch r {
	case rXAVX2:
		kernXAVX2(amp, bit, plo, phi)
	case rYAVX2:
		kernYAVX2(amp, bit, plo, phi)
	case rZAVX2:
		kernZAVX2(amp, bit, plo, phi)
	case rHAVX2:
		kernHAVX2(amp, bit, plo, phi, qmath.SqrtHalf)
	case rDiag1AVX2:
		kernDiag1AVX2(amp, bit, plo, phi, u[3])
	case rDiagAVX2:
		kernDiagAVX2(amp, bit, plo, phi, u[0], u[3])
	case r1AVX2:
		kern1AVX2(amp, bit, plo, phi, u[0], u[1], u[2], u[3])
	case r1FMA:
		kern1FMA(amp, bit, plo, phi, u[0], u[1], u[2], u[3])
	case r1FMA512:
		kern1FMA512(amp, bit, plo, phi, u[0], u[1], u[2], u[3])
	default:
		panic(fmt.Sprintf("statevec: %v is not a pair routine", r))
	}
}

// sweepUnits is sweepPairs for unit routine r over free-subcube units
// [lo, hi) of bits b0 and b1. Odd edges go to the Go body; the qubit-0
// routines take any start, so for them only an odd count's last unit
// does. A ZMM routine needs multiples of 4: its YMM form takes two units
// at either edge, or the whole range of a qubit-0 pair from an odd start,
// which never reaches a multiple of 4.
func sweepUnits(amp []complex128, r routine, b0, b1, lo, hi int, m *[16]complex128) {
	lowb, ok := asmUnits2(amp, b0, b1, lo, hi)
	if !ok || r < rXAVX2 {
		goUnits(amp, r, b0, b1, lo, hi, m)
		return
	}
	if lowb == 1 {
		if (hi-lo)&1 != 0 {
			hi--
			goUnits(amp, r, b0, b1, hi, hi+1, m)
		}
	} else {
		if lo&1 != 0 {
			goUnits(amp, r, b0, b1, lo, lo+1, m)
			lo++
		}
		if hi&1 != 0 {
			hi--
			goUnits(amp, r, b0, b1, hi, hi+1, m)
		}
	}
	if r == r2FMA512 || r == r2FMAQ0512 {
		ymm := r2FMA
		if r == r2FMAQ0512 {
			ymm = r2FMAQ0
		}
		if lo&1 != 0 {
			r = ymm
		} else {
			if lo&2 != 0 && lo < hi {
				unitsAsm(amp, ymm, b0, b1, lo, lo+2, m)
				lo += 2
			}
			if hi&2 != 0 && lo < hi {
				hi -= 2
				unitsAsm(amp, ymm, b0, b1, hi, hi+2, m)
			}
		}
	}
	if lo < hi {
		unitsAsm(amp, r, b0, b1, lo, hi, m)
	}
}

// unitsAsm is the chunk loop of the unit routines: assembly routine r over
// units [lo, hi) of bits b0 and b1, with the range proven, not empty and
// shaped as r needs. ApplyKernel calls it directly for a whole-state
// sweep, which ResolveOp proved in range; a sweep of one chunk is one
// call.
func unitsAsm(amp []complex128, r routine, b0, b1, lo, hi int, m *[16]complex128) {
	if hi-lo > asmChunk {
		for ; lo < hi; lo += asmChunk {
			unitsAsm(amp, r, b0, b1, lo, min(lo+asmChunk, hi), m)
		}
		return
	}
	lowb, highb := sort2(b0, b1)
	switch r {
	case rCXAVX2:
		kernCXAVX2(amp, lowb, highb, b0, b1, lo, hi)
	case r2AVX2:
		kern2AVX2(amp, lowb, highb, b0, b1, lo, hi, m)
	case r2AVX2Q0:
		kern2AVX2Q0(amp, highb, b0&1, lo, hi, m)
	case r2FMA:
		kern2FMA(amp, lowb, highb, b0, b1, lo, hi, m)
	case r2FMAQ0:
		kern2FMAQ0(amp, highb, b0&1, lo, hi, m)
	case r2FMA512:
		kern2FMA512(amp, lowb, highb, b0, b1, lo, hi, m)
	case r2FMAQ0512:
		kern2FMAQ0512(amp, highb, b0&1, lo, hi, m)
	default:
		panic(fmt.Sprintf("statevec: %v is not a unit routine", r))
	}
}
