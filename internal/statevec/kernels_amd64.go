//go:build amd64 && !purego

package statevec

import (
	"math/bits"

	"repro/internal/qmath"
)

// useAVX2 reports that the CPU has AVX2 and the OS saves YMM state, so
// kern1 and kern2 take the assembly sweeps in kernels_amd64.s.
var useAVX2 = hasAVX2()

// useFMA reports that the CPU also has FMA, so kern1Numeric and
// kern2Numeric take the fused-multiply-add sweeps.
var useFMA = useAVX2 && hasFMA()

// useAVX512 reports that the CPU also has AVX-512F and the OS saves ZMM
// state, so kern1Numeric (bit >= 4) and kern2Numeric (lowb >= 4) take the
// ZMM forms of the FMA sweeps, Float64bits-identical to the YMM ones.
var useAVX512 = useFMA && hasAVX512()

// hasAVX2 reads CPUID and XGETBV.
func hasAVX2() bool

// hasFMA reads CPUID; it is only asked once hasAVX2 holds.
func hasFMA() bool

// hasAVX512 reads CPUID and XGETBV; it is only asked once hasFMA holds.
func hasAVX512() bool

// asmChunk bounds the work of one assembly call, in pairs for
// kern1AVX2/kern1FMA and units for the kern2 sweeps (tens of
// microseconds). The runtime
// cannot preempt a goroutine inside assembly, so the wrappers sweep a
// large state in chunks and a stop-the-world pause waits for one chunk,
// not one whole sweep. A multiple of 4, so every chunk edge keeps the
// alignment the assembly needs: even for the YMM sweeps, a multiple of 4
// for the ZMM ones.
const asmChunk = 1 << 12

// kern1AVX2 applies the 2x2 matrix to the amplitude pairs with index
// p in [plo, phi), pair p being spreadBit(p, bit) and bit amplitudes on,
// two pairs per YMM register: kern1Go's arithmetic over its pairs. phi-plo
// is even and positive. For bit >= 2, plo is a multiple of bit or
// [plo, phi) lies inside one block's pairs [u*bit, (u+1)*bit); the kern1
// chunks are one or the other, because asmChunk and bit are powers of two.
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

// asmPairs reports whether a single-qubit sweep on bit over base blocks
// [lo, hi) can take the assembly and returns its pairs [plo, phi). Block u
// holds the pairs [u*bit, (u+1)*bit). The assembly does no bounds checks,
// so asmPairs first proves that the highest index the sweep touches,
// hi*2*bit-1, is in range (compared as hi <= len>>log2(2*bit), which
// cannot overflow); an out-of-range call takes the Go body, which panics
// on the first bad index.
func asmPairs(amp []complex128, bit, lo, hi int) (plo, phi int, ok bool) {
	if !useAVX2 || bit <= 0 || bit&(bit-1) != 0 || lo < 0 || lo >= hi ||
		uint(hi) > uint(len(amp))>>(uint(bits.TrailingZeros(uint(bit)))+1) {
		return 0, 0, false
	}
	return lo * bit, hi * bit, true
}

// asmUnits2 reports whether a two-qubit sweep on bits b0 and b1 over
// free-subcube units [lo, hi), at least two of them, can take the
// assembly and returns the bits sorted. It bounds hi by the unit count
// and then checks the highest index the sweep touches once, before any
// write, so an out-of-range call panics there.
func asmUnits2(amp []complex128, b0, b1, lo, hi int) (lowb, highb int, ok bool) {
	lowb, highb = sort2(b0, b1)
	if !useAVX2 || lowb <= 0 || lowb == highb || lowb&(lowb-1) != 0 || highb&(highb-1) != 0 ||
		lo < 0 || hi-lo < 2 || uint(hi) > uint(len(amp))>>2 {
		return 0, 0, false
	}
	_ = amp[spreadBit(spreadBit(hi-1, lowb), highb)|lowb|highb]
	return lowb, highb, true
}

// kern1 sweeps a general 2x2 unitary over base blocks [lo, hi): the AVX2
// assembly where the CPU has it, kern1Go otherwise, with Float64bits-
// identical results.
func kern1(amp []complex128, bit, lo, hi int, u00, u01, u10, u11 complex128) {
	kern1Sweep(amp, bit, lo, hi, u00, u01, u10, u11, false)
}

// kern1Numeric is kern1 for FuseNumeric programs: the FMA assembly where
// the CPU has it (in ZMM registers for bit >= 4 where it has AVX-512F),
// within a few ulps of kern1Go; kern1 otherwise.
func kern1Numeric(amp []complex128, bit, lo, hi int, u00, u01, u10, u11 complex128) {
	kern1Sweep(amp, bit, lo, hi, u00, u01, u10, u11, useFMA)
}

// kern1Sweep is kern1 (fma false) and kern1Numeric (fma true).
func kern1Sweep(amp []complex128, bit, lo, hi int, u00, u01, u10, u11 complex128, fma bool) {
	plo, phi, ok := asmPairs(amp, bit, lo, hi)
	if !ok {
		kern1Go(amp, bit, lo, hi, u00, u01, u10, u11)
		return
	}
	if (phi-plo)&1 != 0 {
		// Only bit == 1 has an odd pair count; its last pair goes to
		// the Go body.
		phi--
		kern1Go(amp, bit, phi, phi+1, u00, u01, u10, u11)
	}
	for plo < phi {
		end := min(plo+asmChunk, phi)
		switch {
		case fma && useAVX512 && bit >= 4:
			kern1FMA512(amp, bit, plo, end, u00, u01, u10, u11)
		case fma:
			kern1FMA(amp, bit, plo, end, u00, u01, u10, u11)
		default:
			kern1AVX2(amp, bit, plo, end, u00, u01, u10, u11)
		}
		plo = end
	}
}

// kern2 sweeps a general 4x4 unitary over free-subcube units [lo, hi):
// the AVX2 assembly where the CPU has it, kern2Go otherwise, with
// Float64bits-identical results.
func kern2(amp []complex128, b0, b1, lo, hi int, m *[16]complex128) {
	kern2Sweep(amp, b0, b1, lo, hi, m, false)
}

// kern2Numeric is kern2 for FuseNumeric programs: the FMA assembly where
// the CPU has it (in ZMM registers for lowb >= 4 where it has AVX-512F),
// within a few ulps of kern2Go; kern2 otherwise.
func kern2Numeric(amp []complex128, b0, b1, lo, hi int, m *[16]complex128) {
	kern2Sweep(amp, b0, b1, lo, hi, m, useFMA)
}

// kern2Sweep is kern2 (fma false) and kern2Numeric (fma true). Odd edges
// of the unit range go to kern2Go; on the ZMM path the 4-aligned middle
// goes to kern2FMA512 or kern2FMAQ0512 and the even edges around it to
// kern2FMA or kern2FMAQ0.
func kern2Sweep(amp []complex128, b0, b1, lo, hi int, m *[16]complex128, fma bool) {
	lowb, highb, ok := asmUnits2(amp, b0, b1, lo, hi)
	if !ok {
		kern2Go(amp, b0, b1, lo, hi, m)
		return
	}
	q0 := lowb == 1
	if q0 {
		// The qubit-0 sweeps take any start; only the count must be even.
		if (hi-lo)&1 != 0 {
			hi--
			kern2Go(amp, b0, b1, hi, hi+1, m)
		}
	} else {
		if lo&1 != 0 {
			kern2Go(amp, b0, b1, lo, lo+1, m)
			lo++
		}
		if hi&1 != 0 {
			hi--
			kern2Go(amp, b0, b1, hi, hi+1, m)
		}
	}
	// From an odd start the qubit-0 sweeps never reach a multiple of 4.
	zmm := fma && useAVX512 && (lowb >= 4 || q0 && lo&1 == 0)
	ymm := func(lo, hi int) {
		switch {
		case q0 && fma:
			kern2FMAQ0(amp, highb, b0&1, lo, hi, m)
		case fma:
			kern2FMA(amp, lowb, highb, b0, b1, lo, hi, m)
		default:
			kern2Asm(amp, lowb, highb, b0, b1, lo, hi, m)
		}
	}
	if zmm && lo&2 != 0 && lo < hi {
		ymm(lo, lo+2)
		lo += 2
	}
	if zmm && hi&2 != 0 && lo < hi {
		hi -= 2
		ymm(hi, hi+2)
	}
	for lo < hi {
		end := min(lo+asmChunk, hi)
		switch {
		case zmm && q0:
			kern2FMAQ0512(amp, highb, b0&1, lo, end, m)
		case zmm:
			kern2FMA512(amp, lowb, highb, b0, b1, lo, end, m)
		default:
			ymm(lo, end)
		}
		lo = end
	}
}

// kern2Asm is kern2's assembly over units [lo, hi), proven in range, of
// an even count and, unless lowb == 1, from an even start: kern2AVX2Q0
// for qubit-0 pairs, kern2AVX2 otherwise. kern2Sweep and sweepDirect
// both call it.
func kern2Asm(amp []complex128, lowb, highb, b0, b1, lo, hi int, m *[16]complex128) {
	if lowb == 1 {
		kern2AVX2Q0(amp, highb, b0&1, lo, hi, m)
	} else {
		kern2AVX2(amp, lowb, highb, b0, b1, lo, hi, m)
	}
}

// kernX, kernY and kernZ sweep the Paulis over base blocks [lo, hi): the
// AVX2 assembly where the CPU has it, kernXGo, kernYGo and kernZGo
// otherwise, with Float64bits-identical results. Every fuse mode runs
// them.
func kernX(amp []complex128, bit, lo, hi int) { pairSweep(amp, bit, lo, hi, kernXGo, kernXAVX2) }

func kernY(amp []complex128, bit, lo, hi int) { pairSweep(amp, bit, lo, hi, kernYGo, kernYAVX2) }

func kernZ(amp []complex128, bit, lo, hi int) { pairSweep(amp, bit, lo, hi, kernZGo, kernZAVX2) }

// pairSweep is kern1Sweep for the Go body and assembly of a fixed
// single-qubit sweep (the Paulis, H, diag).
func pairSweep(amp []complex128, bit, lo, hi int, goBody, asm func([]complex128, int, int, int)) {
	plo, phi, ok := asmPairs(amp, bit, lo, hi)
	if !ok {
		goBody(amp, bit, lo, hi)
		return
	}
	if (phi-plo)&1 != 0 {
		phi--
		goBody(amp, bit, phi, phi+1)
	}
	for plo < phi {
		end := min(plo+asmChunk, phi)
		asm(amp, bit, plo, end)
		plo = end
	}
}

// kernH sweeps the Hadamard over base blocks [lo, hi): the AVX2 assembly
// where the CPU has it, kernHGo otherwise, with Float64bits-identical
// results. Every fuse mode runs it.
func kernH(amp []complex128, bit, lo, hi int) { pairSweep(amp, bit, lo, hi, kernHGo, kernHAsm) }

// kernHAsm is kernH's assembly over the pairs [plo, phi), proven in
// range and of an even count. kernH and sweepDirect both call it.
func kernHAsm(amp []complex128, bit, plo, phi int) {
	kernHAVX2(amp, bit, plo, phi, qmath.SqrtHalf)
}

// kernDiag sweeps diag(d0, d1) over base blocks [lo, hi): the AVX2
// assembly where the CPU has it, kernDiagGo otherwise, with
// Float64bits-identical results. With d0 == 1 it touches the upper
// halves only. Every fuse mode runs it.
func kernDiag(amp []complex128, bit, lo, hi int, d0, d1 complex128) {
	pairSweep(amp, bit, lo, hi,
		func(amp []complex128, bit, lo, hi int) { kernDiagGo(amp, bit, lo, hi, d0, d1) },
		func(amp []complex128, bit, plo, phi int) { kernDiagAsm(amp, bit, plo, phi, d0, d1) })
}

// kernDiagAsm is kernDiag's assembly over the pairs [plo, phi), proven
// in range and of an even count: kernDiag1AVX2 (upper halves only) when
// d0 == 1, kernDiagAVX2 otherwise. kernDiag and sweepDirect both call it.
func kernDiagAsm(amp []complex128, bit, plo, phi int, d0, d1 complex128) {
	if d0 == 1 {
		kernDiag1AVX2(amp, bit, plo, phi, d1)
	} else {
		kernDiagAVX2(amp, bit, plo, phi, d0, d1)
	}
}

// kernCX sweeps a controlled-X over free-subcube units [lo, hi): the AVX2
// assembly where the CPU has it, kernCXGo otherwise, with identical
// results. With lowb >= 2 odd edges go to kernCXGo.
func kernCX(amp []complex128, cb, tb, lo, hi int) {
	lowb, highb, ok := asmUnits2(amp, cb, tb, lo, hi)
	if !ok {
		kernCXGo(amp, cb, tb, lo, hi)
		return
	}
	if lowb != 1 {
		if lo&1 != 0 {
			kernCXGo(amp, cb, tb, lo, lo+1)
			lo++
		}
		if hi&1 != 0 {
			hi--
			kernCXGo(amp, cb, tb, hi, hi+1)
		}
	}
	for lo < hi {
		end := min(lo+asmChunk, hi)
		kernCXAVX2(amp, lowb, highb, cb, tb, lo, end)
		lo = end
	}
}

// directSweep reports whether ApplyKernel may run k's whole-state sweep
// as one assembly call, with no range proof at apply time: the CPU has
// the sweep, the state holds at most one asmChunk of pairs (units for the
// two-qubit sweeps), and the whole range has the shape the assembly
// needs (an even pair count, at least two units). ResolveOp has proved
// the qubits in range for a state of k.dim amplitudes, and ApplyKernel
// checks the state's length against k.dim, so every index the sweep
// touches is in range.
func directSweep(k *OpKernel) bool {
	if !useAVX2 {
		return false
	}
	switch k.kind {
	case okX, okY, okZ, okH, okDiag, ok1:
		return k.dim >= 4 && k.dim>>1 <= asmChunk
	case okCX, ok2:
		return k.dim >= 8 && k.dim>>2 <= asmChunk
	}
	return false
}

// sweepDirect runs k's whole-state sweep as one assembly call; it needs
// directSweep(k) and len(amp) == k.dim. Each kind calls the assembly its
// wrapper's chunk loop calls (kernHAsm, kernDiagAsm and kern2Asm hold the
// choices between sweeps), so the result is the wrapper's.
func sweepDirect(amp []complex128, k *OpKernel) {
	pairs := len(amp) >> 1
	switch k.kind {
	case okX:
		kernXAVX2(amp, k.b0, 0, pairs)
	case okY:
		kernYAVX2(amp, k.b0, 0, pairs)
	case okZ:
		kernZAVX2(amp, k.b0, 0, pairs)
	case okH:
		kernHAsm(amp, k.b0, 0, pairs)
	case okDiag:
		m := k.mat.Data()
		kernDiagAsm(amp, k.b0, 0, pairs, m[0], m[3])
	case ok1:
		m := k.mat.Data()
		kern1AVX2(amp, k.b0, 0, pairs, m[0], m[1], m[2], m[3])
	case okCX:
		lowb, highb := sort2(k.b0, k.b1)
		kernCXAVX2(amp, lowb, highb, k.b0, k.b1, 0, len(amp)>>2)
	case ok2:
		lowb, highb := sort2(k.b0, k.b1)
		kern2Asm(amp, lowb, highb, k.b0, k.b1, 0, len(amp)>>2, (*[16]complex128)(k.mat.Data()))
	}
}
