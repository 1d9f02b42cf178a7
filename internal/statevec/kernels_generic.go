//go:build !amd64 || purego

package statevec

// useAVX2 is false: this build has no assembly routines (not amd64, or
// the purego tag forces the portable bodies), so every kernel resolves to
// a Go body.
const useAVX2 = false

// useFMA is false for the same reason.
const useFMA = false

// useAVX512 is false: there are no ZMM routines either.
const useAVX512 = false

// sweepPairs runs pair routine r, a Go body in this build, over base
// blocks [lo, hi) of bit.
func sweepPairs(amp []complex128, r routine, bit, lo, hi int, u *[4]complex128) {
	goPairs(amp, r, bit, lo, hi, u)
}

// sweepUnits runs unit routine r, a Go body in this build, over
// free-subcube units [lo, hi) of bits b0 and b1.
func sweepUnits(amp []complex128, r routine, b0, b1, lo, hi int, m *[16]complex128) {
	goUnits(amp, r, b0, b1, lo, hi, m)
}

// pairsAsm and unitsAsm are never called in this build: no kernel
// resolves to an assembly routine.
func pairsAsm([]complex128, routine, int, int, int, *[4]complex128) {
	panic("statevec: no assembly routines in this build")
}

func unitsAsm([]complex128, routine, int, int, int, int, *[16]complex128) {
	panic("statevec: no assembly routines in this build")
}

// tape takes no kernel in this build: ApplyKernels applies each through
// ApplyKernel.
func tape([]complex128, []OpKernel) int { return 0 }
