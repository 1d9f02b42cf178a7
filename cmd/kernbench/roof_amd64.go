//go:build amd64 && !purego

package main

import "repro/internal/statevec"

// roofMulAdd and roofFMA run iters trips of the YMM register-resident flop
// loops in roof_amd64.s, 96 flops per trip; roofFMAZMM runs the ZMM loop,
// 192 flops per trip. x seeds the accumulators.
func roofMulAdd(iters int, x float64)
func roofFMA(iters int, x float64)
func roofFMAZMM(iters int, x float64)

// flopRoofs lists the loops the kernels' instruction sets allow: the
// separate multiply and add with AVX2, the FMA form with FMA, and the ZMM
// FMA form with AVX-512F.
func flopRoofs(k statevec.KernelFeatures) []flopRoof {
	if !k.AVX2 {
		return nil
	}
	roofs := []flopRoof{{"mul-add", 96, roofMulAdd}}
	if k.FMA {
		roofs = append(roofs, flopRoof{"fma", 96, roofFMA})
	}
	if k.AVX512 {
		roofs = append(roofs, flopRoof{"fma-zmm", 192, roofFMAZMM})
	}
	return roofs
}
