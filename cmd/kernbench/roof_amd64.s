//go:build amd64 && !purego

#include "textflag.h"

// The flop roofs: twelve independent YMM accumulators, no memory
// traffic, iters loop trips of 96 double-precision flops each. Twelve
// chains cover the FP latency on two or three ports, so the loop runs at
// the issue rate. roofMulAdd spends a VMULPD and a VADDPD per four
// multiply-adds, roofFMA one VFMADD231PD. roofFMAZMM is roofFMA on
// twelve ZMM accumulators, 192 flops per trip.

// MULADD runs acc = acc*Y14 + Y15 as a separate multiply and add.
#define MULADD(acc) \
	VMULPD Y14, acc, acc; \
	VADDPD Y15, acc, acc

// func roofMulAdd(iters int, x float64)
TEXT ·roofMulAdd(SB), NOSPLIT, $0-16
	MOVQ         iters+0(FP), CX
	VBROADCASTSD x+8(FP), Y14
	VMOVAPD      Y14, Y15
	VMOVAPD      Y14, Y0
	VMOVAPD      Y14, Y1
	VMOVAPD      Y14, Y2
	VMOVAPD      Y14, Y3
	VMOVAPD      Y14, Y4
	VMOVAPD      Y14, Y5
	VMOVAPD      Y14, Y6
	VMOVAPD      Y14, Y7
	VMOVAPD      Y14, Y8
	VMOVAPD      Y14, Y9
	VMOVAPD      Y14, Y10
	VMOVAPD      Y14, Y11

muladd:
	MULADD(Y0)
	MULADD(Y1)
	MULADD(Y2)
	MULADD(Y3)
	MULADD(Y4)
	MULADD(Y5)
	MULADD(Y6)
	MULADD(Y7)
	MULADD(Y8)
	MULADD(Y9)
	MULADD(Y10)
	MULADD(Y11)
	DECQ CX
	JNZ  muladd
	VZEROUPPER
	RET

// func roofFMA(iters int, x float64)
TEXT ·roofFMA(SB), NOSPLIT, $0-16
	MOVQ         iters+0(FP), CX
	VBROADCASTSD x+8(FP), Y14
	VMOVAPD      Y14, Y15
	VMOVAPD      Y14, Y0
	VMOVAPD      Y14, Y1
	VMOVAPD      Y14, Y2
	VMOVAPD      Y14, Y3
	VMOVAPD      Y14, Y4
	VMOVAPD      Y14, Y5
	VMOVAPD      Y14, Y6
	VMOVAPD      Y14, Y7
	VMOVAPD      Y14, Y8
	VMOVAPD      Y14, Y9
	VMOVAPD      Y14, Y10
	VMOVAPD      Y14, Y11

fma:
	// acc = Y14*Y15 + acc
	VFMADD231PD Y15, Y14, Y0
	VFMADD231PD Y15, Y14, Y1
	VFMADD231PD Y15, Y14, Y2
	VFMADD231PD Y15, Y14, Y3
	VFMADD231PD Y15, Y14, Y4
	VFMADD231PD Y15, Y14, Y5
	VFMADD231PD Y15, Y14, Y6
	VFMADD231PD Y15, Y14, Y7
	VFMADD231PD Y15, Y14, Y8
	VFMADD231PD Y15, Y14, Y9
	VFMADD231PD Y15, Y14, Y10
	VFMADD231PD Y15, Y14, Y11
	DECQ CX
	JNZ  fma
	VZEROUPPER
	RET

// func roofFMAZMM(iters int, x float64)
TEXT ·roofFMAZMM(SB), NOSPLIT, $0-16
	MOVQ         iters+0(FP), CX
	VBROADCASTSD x+8(FP), Z14
	VMOVAPD      Z14, Z15
	VMOVAPD      Z14, Z0
	VMOVAPD      Z14, Z1
	VMOVAPD      Z14, Z2
	VMOVAPD      Z14, Z3
	VMOVAPD      Z14, Z4
	VMOVAPD      Z14, Z5
	VMOVAPD      Z14, Z6
	VMOVAPD      Z14, Z7
	VMOVAPD      Z14, Z8
	VMOVAPD      Z14, Z9
	VMOVAPD      Z14, Z10
	VMOVAPD      Z14, Z11

fma:
	// acc = Z14*Z15 + acc
	VFMADD231PD Z15, Z14, Z0
	VFMADD231PD Z15, Z14, Z1
	VFMADD231PD Z15, Z14, Z2
	VFMADD231PD Z15, Z14, Z3
	VFMADD231PD Z15, Z14, Z4
	VFMADD231PD Z15, Z14, Z5
	VFMADD231PD Z15, Z14, Z6
	VFMADD231PD Z15, Z14, Z7
	VFMADD231PD Z15, Z14, Z8
	VFMADD231PD Z15, Z14, Z9
	VFMADD231PD Z15, Z14, Z10
	VFMADD231PD Z15, Z14, Z11
	DECQ CX
	JNZ  fma
	VZEROUPPER
	RET
