//go:build amd64 && !purego

package main

// roofMulAdd and roofFMA run iters trips of the register-resident flop
// loops in roof_amd64.s, 96 flops per trip. x seeds the accumulators.
func roofMulAdd(iters int, x float64)
func roofFMA(iters int, x float64)

// flopRoofs lists the loops this host can run: the separate multiply and
// add always, the FMA form where the CPU has it.
func flopRoofs(fma bool) []flopRoof {
	roofs := []flopRoof{{"mul-add", roofMulAdd}}
	if fma {
		roofs = append(roofs, flopRoof{"fma", roofFMA})
	}
	return roofs
}
