//go:build !amd64 || purego

package statevec

// useAVX2 is false: this build has no assembly kernels (not amd64, or
// the purego tag forces the portable bodies).
const useAVX2 = false

// useFMA is false for the same reason: kern1Numeric and kern2Numeric are
// kern1 and kern2.
const useFMA = false

// useAVX512 is false: there are no ZMM sweeps either.
const useAVX512 = false

// kern1 sweeps a general 2x2 unitary over base blocks [lo, hi).
func kern1(amp []complex128, bit, lo, hi int, u00, u01, u10, u11 complex128) {
	kern1Go(amp, bit, lo, hi, u00, u01, u10, u11)
}

// kern2 sweeps a general 4x4 unitary over free-subcube units [lo, hi).
func kern2(amp []complex128, b0, b1, lo, hi int, m *[16]complex128) {
	kern2Go(amp, b0, b1, lo, hi, m)
}

// kern1Numeric is kern1 for FuseNumeric programs.
func kern1Numeric(amp []complex128, bit, lo, hi int, u00, u01, u10, u11 complex128) {
	kern1Go(amp, bit, lo, hi, u00, u01, u10, u11)
}

// kern2Numeric is kern2 for FuseNumeric programs.
func kern2Numeric(amp []complex128, b0, b1, lo, hi int, m *[16]complex128) {
	kern2Go(amp, b0, b1, lo, hi, m)
}

// kernX, kernY and kernZ sweep the Paulis over base blocks [lo, hi).
func kernX(amp []complex128, bit, lo, hi int) { kernXGo(amp, bit, lo, hi) }

func kernY(amp []complex128, bit, lo, hi int) { kernYGo(amp, bit, lo, hi) }

func kernZ(amp []complex128, bit, lo, hi int) { kernZGo(amp, bit, lo, hi) }

// kernH sweeps the Hadamard over base blocks [lo, hi).
func kernH(amp []complex128, bit, lo, hi int) { kernHGo(amp, bit, lo, hi) }

// kernDiag sweeps diag(d0, d1) over base blocks [lo, hi).
func kernDiag(amp []complex128, bit, lo, hi int, d0, d1 complex128) {
	kernDiagGo(amp, bit, lo, hi, d0, d1)
}

// kernCX sweeps a controlled-X over free-subcube units [lo, hi).
func kernCX(amp []complex128, cb, tb, lo, hi int) { kernCXGo(amp, cb, tb, lo, hi) }

// directSweep is false: ApplyKernel always takes the Go bodies.
func directSweep(*OpKernel) bool { return false }

// sweepDirect is never called in this build.
func sweepDirect([]complex128, *OpKernel) {
	panic("statevec: no assembly sweeps in this build")
}
