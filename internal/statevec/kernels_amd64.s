//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// AVX2 bodies of kern1 and kern2, Float64bits-identical to kern1Go and
// kern2Go. A YMM register holds two complex128 values [re0 im0 re1 im1].
// The compiled Go complex product m*a is re = mr*ar - mi*ai and
// im = mr*ai + mi*ar, each multiply and add rounded separately. The
// vector form VADDSUBPD(a*bcast(mr), swap(a)*bcast(mi)) does the same
// IEEE operations: the even lane subtracts, the odd lane adds, and
// multiplication and addition are commutative bit for bit. These sweeps
// use no FMA (it rounds once), and every routine ends with VZEROUPPER.
//
// The *FMA sweeps serve FuseNumeric programs only, which are not
// bit-exact to begin with. Each output row is computed as
// P = sum_j bcast(re m_j)*a_j and Q = sum_j bcast(im m_j)*swap(a_j), one
// VMULPD and then VFMADD231PD per further term, and row =
// VADDSUBPD(P, Q): every multiply-add rounds once, so the result is
// within a few ulps of the Go body, not identical to it.
//
// The *FMA512 sweeps are kern1FMA and kern2FMA in ZMM registers, four
// complex128 values each, for bit >= 4 and lowb >= 4, where four pairs or
// units sit side by side. They compute P and Q term for term as the YMM
// sweeps do, with the matrix entries as embedded-broadcast operands.
// AVX-512 has no VADDSUBPD; VFMADDSUB231PD with a vector of ones computes
// 1*P -/+ Q, even lanes subtracting, odd lanes adding. The product 1*P is
// exact and the instruction rounds once, so it is the same IEEE operation
// as VADDSUBPD(P, Q), signed zeros included: the ZMM sweeps are
// Float64bits-identical to the YMM FMA sweeps.

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX          // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX      // AVX2 (leaf 7 EBX bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func hasFMA() bool
// CPUID leaf 1 ECX bit 12; the caller has checked AVX2 and YMM state.
TEXT ·hasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func hasAVX512() bool
// CPUID leaf 7 EBX bit 16 (AVX512F), and XGETBV: the OS saves the opmask,
// ZMM_Hi256 and Hi16_ZMM state (XCR0 bits 5-7) besides XMM and YMM. The
// caller has checked AVX2, so leaf 7 exists and OSXSAVE is set.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVL  $7, AX
	MOVL  $0, CX
	CPUID
	TESTL $0x10000, BX
	JZ    no
	MOVL  $0, CX
	XGETBV
	ANDL  $0xE6, AX
	CMPL  AX, $0xE6
	JNE   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// ONES sets Z31 to 1.0 in every lane, the multiplier of the closing
// VFMADDSUB231PD.
#define ONES \
	MOVQ         $0x3ff0000000000000, AX; \
	VPBROADCASTQ AX, Z31

// KERN1 applies the broadcast 2x2 matrix (Y0..Y7 = re/im of u00, u01,
// u10, u11) to a0 lanes in Y8 and a1 lanes in Y9: Y12 = u00*a0 + u01*a1,
// Y13 = u10*a0 + u11*a1, as pair1 computes them.
#define KERN1 \
	VPERMILPD $5, Y8, Y10; \
	VPERMILPD $5, Y9, Y11; \
	VMULPD    Y0, Y8, Y12; \
	VMULPD    Y1, Y10, Y14; \
	VADDSUBPD Y14, Y12, Y12; \
	VMULPD    Y2, Y9, Y14; \
	VMULPD    Y3, Y11, Y15; \
	VADDSUBPD Y15, Y14, Y14; \
	VADDPD    Y14, Y12, Y12; \
	VMULPD    Y4, Y8, Y13; \
	VMULPD    Y5, Y10, Y14; \
	VADDSUBPD Y14, Y13, Y13; \
	VMULPD    Y6, Y9, Y14; \
	VMULPD    Y7, Y11, Y15; \
	VADDSUBPD Y15, Y14, Y14; \
	VADDPD    Y14, Y13, Y13

// HALVES sets up the bit >= 2 walk: even pair p and p+1 sit side by side
// at spreadBit(p, bit) and bit amplitudes on, one vector per half. The
// walk jumps over the upper half each time a lower half ends; a range
// that starts inside a lower half ends inside it too, so the count in CX
// starts full. SI points at the first lower-half vector, DX is bit in
// bytes and R8 the vectors per lower half, bit >> shift.
#define HALVES(shift) \
	MOVQ R8, DX; \
	NEGQ DX; \
	ANDQ CX, DX; \
	ADDQ CX, DX; \
	SHLQ $4, DX; \
	ADDQ DX, SI; \
	MOVQ R8, DX; \
	SHLQ $4, DX; \
	SHRQ $shift, R8; \
	MOVQ R8, CX

// HALF runs the row macro K on the vector at SI and its upper half.
#define HALF(K) \
	VMOVUPD (SI), Y8; \
	VMOVUPD (SI)(DX*1), Y9; \
	K; \
	VMOVUPD Y12, (SI); \
	VMOVUPD Y13, (SI)(DX*1)

// PAIRS4 runs the row macro K on pairs p and p+1 for bit == 1: the four
// amplitudes [2p, 2p+4) at SI, regrouped into a0 and a1 lanes and back.
#define PAIRS4(K) \
	VMOVUPD    (SI), Y12; \
	VMOVUPD    32(SI), Y13; \
	VPERM2F128 $0x20, Y13, Y12, Y8; \
	VPERM2F128 $0x31, Y13, Y12, Y9; \
	K; \
	VPERM2F128 $0x20, Y13, Y12, Y8; \
	VPERM2F128 $0x31, Y13, Y12, Y9; \
	VMOVUPD    Y8, (SI); \
	VMOVUPD    Y9, 32(SI)

// PAIRSTART sets up the walk of pairs [plo, phi) (plo in CX, phi in BX,
// bit in R8): BX becomes the step count, two pairs a step, and bit == 1
// goes to pairs, the rest through HALVES to the VECLOOP that follows.
#define PAIRSTART(pairs) \
	SUBQ CX, BX; \
	SHRQ $1, BX; \
	CMPQ R8, $1; \
	JEQ  pairs; \
	HALVES(1)

// VECLOOP runs the body B on the vector at SI and moves on, jumping over
// each upper half, until the BX steps are done; then it goes to done.
#define VECLOOP(B, vec, done) \
vec: \
	B; \
	ADDQ $32, SI; \
	DECQ BX; \
	JZ   done; \
	DECQ CX; \
	JNZ  vec; \
	ADDQ DX, SI; \
	MOVQ R8, CX; \
	JMP  vec

// PAIRLOOP runs the body B on the bit == 1 walk, four amplitudes a step
// from &amp[2*plo], for the BX steps.
#define PAIRLOOP(B, pair) \
	SHLQ $5, CX; \
	ADDQ CX, SI; \
pair: \
	B; \
	ADDQ $64, SI; \
	DECQ BX; \
	JNZ  pair

// func kern1AVX2(amp []complex128, bit, plo, phi int, u00, u01, u10, u11 complex128)
TEXT ·kern1AVX2(SB), NOSPLIT, $0-112
	MOVQ         amp_base+0(FP), SI
	MOVQ         bit+24(FP), R8
	MOVQ         plo+32(FP), CX
	MOVQ         phi+40(FP), BX
	VBROADCASTSD u00_real+48(FP), Y0
	VBROADCASTSD u00_imag+56(FP), Y1
	VBROADCASTSD u01_real+64(FP), Y2
	VBROADCASTSD u01_imag+72(FP), Y3
	VBROADCASTSD u10_real+80(FP), Y4
	VBROADCASTSD u10_imag+88(FP), Y5
	VBROADCASTSD u11_real+96(FP), Y6
	VBROADCASTSD u11_imag+104(FP), Y7
	PAIRSTART(pairs)
	VECLOOP(HALF(KERN1), vec, done)

done:
	VZEROUPPER
	RET

pairs:
	PAIRLOOP(PAIRS4(KERN1), pair)
	VZEROUPPER
	RET

// KERN1FMA is KERN1 in the FMA row form: for Y12 = u00*a0 + u01*a1,
// P = re(u00)*a0 + re(u01)*a1 and Q = im(u00)*swap(a0) + im(u01)*swap(a1)
// with Y12 = VADDSUBPD(P, Q); likewise Y13 from u10 and u11.
#define KERN1FMA \
	VPERMILPD   $5, Y8, Y10; \
	VPERMILPD   $5, Y9, Y11; \
	VMULPD      Y0, Y8, Y12; \
	VFMADD231PD Y2, Y9, Y12; \
	VMULPD      Y1, Y10, Y14; \
	VFMADD231PD Y3, Y11, Y14; \
	VADDSUBPD   Y14, Y12, Y12; \
	VMULPD      Y4, Y8, Y13; \
	VFMADD231PD Y6, Y9, Y13; \
	VMULPD      Y5, Y10, Y15; \
	VFMADD231PD Y7, Y11, Y15; \
	VADDSUBPD   Y15, Y13, Y13

// func kern1FMA(amp []complex128, bit, plo, phi int, u00, u01, u10, u11 complex128)
TEXT ·kern1FMA(SB), NOSPLIT, $0-112
	MOVQ         amp_base+0(FP), SI
	MOVQ         bit+24(FP), R8
	MOVQ         plo+32(FP), CX
	MOVQ         phi+40(FP), BX
	VBROADCASTSD u00_real+48(FP), Y0
	VBROADCASTSD u00_imag+56(FP), Y1
	VBROADCASTSD u01_real+64(FP), Y2
	VBROADCASTSD u01_imag+72(FP), Y3
	VBROADCASTSD u10_real+80(FP), Y4
	VBROADCASTSD u10_imag+88(FP), Y5
	VBROADCASTSD u11_real+96(FP), Y6
	VBROADCASTSD u11_imag+104(FP), Y7
	PAIRSTART(pairs)
	VECLOOP(HALF(KERN1FMA), vec, done)

done:
	VZEROUPPER
	RET

pairs:
	PAIRLOOP(PAIRS4(KERN1FMA), pair)
	VZEROUPPER
	RET

// KERN1FMA512 is KERN1FMA on ZMM: a0 lanes in Z8, a1 lanes in Z9, the
// matrix broadcast in Z0..Z7, rows into Z12 and Z13. Q accumulates in the
// row register and P in Z14 or Z15; VFMADDSUB231PD sets row = 1*P -/+ Q.
#define KERN1FMA512 \
	VPERMILPD      $0x55, Z8, Z10; \
	VPERMILPD      $0x55, Z9, Z11; \
	VMULPD         Z0, Z8, Z14; \
	VFMADD231PD    Z2, Z9, Z14; \
	VMULPD         Z1, Z10, Z12; \
	VFMADD231PD    Z3, Z11, Z12; \
	VFMADDSUB231PD Z31, Z14, Z12; \
	VMULPD         Z4, Z8, Z15; \
	VFMADD231PD    Z6, Z9, Z15; \
	VMULPD         Z5, Z10, Z13; \
	VFMADD231PD    Z7, Z11, Z13; \
	VFMADDSUB231PD Z31, Z15, Z13

// HALF512 is HALF on ZMM: four pairs at SI and their upper half.
#define HALF512(K) \
	VMOVUPD (SI), Z8; \
	VMOVUPD (SI)(DX*1), Z9; \
	K; \
	VMOVUPD Z12, (SI); \
	VMOVUPD Z13, (SI)(DX*1)

// func kern1FMA512(amp []complex128, bit, plo, phi int, u00, u01, u10, u11 complex128)
// bit >= 4, and plo and phi are multiples of 4: the HALVES walk with four
// pairs per vector.
TEXT ·kern1FMA512(SB), NOSPLIT, $0-112
	MOVQ         amp_base+0(FP), SI
	MOVQ         bit+24(FP), R8
	MOVQ         plo+32(FP), CX
	MOVQ         phi+40(FP), BX
	VBROADCASTSD u00_real+48(FP), Z0
	VBROADCASTSD u00_imag+56(FP), Z1
	VBROADCASTSD u01_real+64(FP), Z2
	VBROADCASTSD u01_imag+72(FP), Z3
	VBROADCASTSD u10_real+80(FP), Z4
	VBROADCASTSD u10_imag+88(FP), Z5
	VBROADCASTSD u11_real+96(FP), Z6
	VBROADCASTSD u11_imag+104(FP), Z7
	ONES
	SUBQ         CX, BX
	SHRQ         $2, BX            // vectors: four pairs each
	HALVES(2)

vec:
	HALF512(KERN1FMA512)
	ADDQ $64, SI
	DECQ BX
	JZ   done
	DECQ CX
	JNZ  vec
	ADDQ DX, SI
	MOVQ R8, CX
	JMP  vec

done:
	VZEROUPPER
	RET

// CMULADD adds m*a to acc, where m is the complex128 at off(DX) and sa
// is a with re and im swapped.
#define CMULADD(off, a, sa, acc) \
	VBROADCASTSD off(DX), Y14; \
	VMULPD       a, Y14, Y12; \
	VBROADCASTSD off+8(DX), Y14; \
	VMULPD       sa, Y14, Y13; \
	VADDSUBPD    Y13, Y12, Y12; \
	VADDPD       Y12, acc, acc

// ROW sets acc to matrix row off/64 times (a0..a3) in Y0..Y3: a +0 start,
// then the four products added in column order, as kern2Go does.
#define ROW(off, acc) \
	VXORPD  acc, acc, acc; \
	CMULADD(off, Y0, Y4, acc); \
	CMULADD(off+16, Y1, Y5, acc); \
	CMULADD(off+32, Y2, Y6, acc); \
	CMULADD(off+48, Y3, Y7, acc)

// KERN2 computes the four output rows into Y8..Y11 from the slot
// vectors a0..a3 in Y0..Y3 and the 4x4 matrix at DX.
#define KERN2 \
	VPERMILPD $5, Y0, Y4; \
	VPERMILPD $5, Y1, Y5; \
	VPERMILPD $5, Y2, Y6; \
	VPERMILPD $5, Y3, Y7; \
	ROW(0, Y8); \
	ROW(64, Y9); \
	ROW(128, Y10); \
	ROW(192, Y11)

// FROW sets acc to matrix row off/64 times (a0..a3) in Y0..Y3 in the FMA
// row form, with the swapped slots in Y4..Y7: P in acc, Q in Y12.
#define FROW(off, acc) \
	VBROADCASTSD off(DX), Y14; \
	VMULPD       Y0, Y14, acc; \
	VBROADCASTSD off+8(DX), Y15; \
	VMULPD       Y4, Y15, Y12; \
	VBROADCASTSD off+16(DX), Y14; \
	VFMADD231PD  Y1, Y14, acc; \
	VBROADCASTSD off+24(DX), Y15; \
	VFMADD231PD  Y5, Y15, Y12; \
	VBROADCASTSD off+32(DX), Y14; \
	VFMADD231PD  Y2, Y14, acc; \
	VBROADCASTSD off+40(DX), Y15; \
	VFMADD231PD  Y6, Y15, Y12; \
	VBROADCASTSD off+48(DX), Y14; \
	VFMADD231PD  Y3, Y14, acc; \
	VBROADCASTSD off+56(DX), Y15; \
	VFMADD231PD  Y7, Y15, Y12; \
	VADDSUBPD    Y12, acc, acc

// KERN2FMA is KERN2 with FROW rows.
#define KERN2FMA \
	VPERMILPD $5, Y0, Y4; \
	VPERMILPD $5, Y1, Y5; \
	VPERMILPD $5, Y2, Y6; \
	VPERMILPD $5, Y3, Y7; \
	FROW(0, Y8); \
	FROW(64, Y9); \
	FROW(128, Y10); \
	FROW(192, Y11)

// SPREAD sets dst to spreadBit(src, bit) = src + (src & -bit), with nbit
// holding -bit.
#define SPREAD(src, nbit, dst) \
	MOVQ src, dst; \
	ANDQ nbit, dst; \
	ADDQ src, dst

// UNIT2 runs the row macro K on units u and u+1 (u in CX) for lowb >= 2,
// which leaves bit 0 of the unit in place, so the two units sit side by
// side in every slot. R8 = -lowb, R9 = -highb, and R10, R11 and R12 are
// the byte offsets of slots 2, 1 and 3.
#define UNIT2(K) \
	SPREAD(CX, R8, AX); \
	SPREAD(AX, R9, DI); \
	SHLQ    $4, DI; \
	ADDQ    SI, DI; \
	VMOVUPD (DI), Y0; \
	VMOVUPD (DI)(R11*1), Y1; \
	VMOVUPD (DI)(R10*1), Y2; \
	VMOVUPD (DI)(R12*1), Y3; \
	K; \
	VMOVUPD Y8, (DI); \
	VMOVUPD Y9, (DI)(R11*1); \
	VMOVUPD Y10, (DI)(R10*1); \
	VMOVUPD Y11, (DI)(R12*1)

// UNITLOOP runs the body B on units u..u+n-1 (u in CX) for u from lo
// until CX reaches hi (in BX).
#define UNITLOOP(B, n, l) \
l: \
	B; \
	ADDQ $n, CX; \
	CMPQ CX, BX; \
	JLT  l

// func kern2AVX2(amp []complex128, lowb, highb, b0, b1, lo, hi int, m *[16]complex128)
TEXT ·kern2AVX2(SB), NOSPLIT, $0-80
	MOVQ amp_base+0(FP), SI
	MOVQ lowb+24(FP), R8
	NEGQ R8
	MOVQ highb+32(FP), R9
	NEGQ R9
	MOVQ b0+40(FP), R10
	SHLQ $4, R10                   // slot 2 offset in bytes
	MOVQ b1+48(FP), R11
	SHLQ $4, R11                   // slot 1 offset
	LEAQ (R10)(R11*1), R12         // slot 3 offset
	MOVQ lo+56(FP), CX
	MOVQ hi+64(FP), BX
	MOVQ m+72(FP), DX

	UNITLOOP(UNIT2(KERN2), 2, loop2)
	VZEROUPPER
	RET

// func kern2FMA(amp []complex128, lowb, highb, b0, b1, lo, hi int, m *[16]complex128)
TEXT ·kern2FMA(SB), NOSPLIT, $0-80
	MOVQ amp_base+0(FP), SI
	MOVQ lowb+24(FP), R8
	NEGQ R8
	MOVQ highb+32(FP), R9
	NEGQ R9
	MOVQ b0+40(FP), R10
	SHLQ $4, R10                   // slot 2 offset in bytes
	MOVQ b1+48(FP), R11
	SHLQ $4, R11                   // slot 1 offset
	LEAQ (R10)(R11*1), R12         // slot 3 offset
	MOVQ lo+56(FP), CX
	MOVQ hi+64(FP), BX
	MOVQ m+72(FP), DX

	UNITLOOP(UNIT2(KERN2FMA), 2, loop2)
	VZEROUPPER
	RET

// FROW512 is FROW on ZMM with the matrix entries as embedded broadcasts:
// P in p, Q in acc, then acc = 1*P -/+ Q.
#define FROW512(off, acc, p) \
	VMULPD.BCST         off(DX), Z0, p; \
	VMULPD.BCST         off+8(DX), Z4, acc; \
	VFMADD231PD.BCST    off+16(DX), Z1, p; \
	VFMADD231PD.BCST    off+24(DX), Z5, acc; \
	VFMADD231PD.BCST    off+32(DX), Z2, p; \
	VFMADD231PD.BCST    off+40(DX), Z6, acc; \
	VFMADD231PD.BCST    off+48(DX), Z3, p; \
	VFMADD231PD.BCST    off+56(DX), Z7, acc; \
	VFMADDSUB231PD      Z31, p, acc

// UNIT4 runs KERN2FMA on ZMM for units u..u+3 (u in CX, a multiple of 4)
// with lowb >= 4, which leaves bits 0 and 1 of the unit in place: the four
// units sit side by side in every slot. Registers as in UNIT2.
#define UNIT4 \
	SPREAD(CX, R8, AX); \
	SPREAD(AX, R9, DI); \
	SHLQ      $4, DI; \
	ADDQ      SI, DI; \
	VMOVUPD   (DI), Z0; \
	VMOVUPD   (DI)(R11*1), Z1; \
	VMOVUPD   (DI)(R10*1), Z2; \
	VMOVUPD   (DI)(R12*1), Z3; \
	VPERMILPD $0x55, Z0, Z4; \
	VPERMILPD $0x55, Z1, Z5; \
	VPERMILPD $0x55, Z2, Z6; \
	VPERMILPD $0x55, Z3, Z7; \
	FROW512(0, Z8, Z12); \
	FROW512(64, Z9, Z13); \
	FROW512(128, Z10, Z14); \
	FROW512(192, Z11, Z15); \
	VMOVUPD   Z8, (DI); \
	VMOVUPD   Z9, (DI)(R11*1); \
	VMOVUPD   Z10, (DI)(R10*1); \
	VMOVUPD   Z11, (DI)(R12*1)

// func kern2FMA512(amp []complex128, lowb, highb, b0, b1, lo, hi int, m *[16]complex128)
// lowb >= 4, and lo and hi are multiples of 4.
TEXT ·kern2FMA512(SB), NOSPLIT, $0-80
	MOVQ amp_base+0(FP), SI
	MOVQ lowb+24(FP), R8
	NEGQ R8
	MOVQ highb+32(FP), R9
	NEGQ R9
	MOVQ b0+40(FP), R10
	SHLQ $4, R10                   // slot 2 offset in bytes
	MOVQ b1+48(FP), R11
	SHLQ $4, R11                   // slot 1 offset
	LEAQ (R10)(R11*1), R12         // slot 3 offset
	MOVQ lo+56(FP), CX
	MOVQ hi+64(FP), BX
	MOVQ m+72(FP), DX
	ONES

	UNITLOOP(UNIT4, 4, loop4)
	VZEROUPPER
	RET

// Q0UNIT runs the row macro K on units u and u+1 (u in CX) of a pair
// that includes qubit 0, with R9 = -highb and R10 = highb in bytes. Each
// of the four loads holds two matrix slots of one unit: slots 0 and s1 at
// i0, slots s2 and 3 at i0|highb. They are regrouped into slot vectors
// Y0..Y3 (slot s1 into r1, slot s2 into r2) and the output rows o1 and o2
// of slots s1 and s2 are regrouped back. Qubit 0 as the matrix's q1 gives
// s1 = 1, s2 = 2; as q0, s1 = 2, s2 = 1.
#define Q0UNIT(K, r1, r2, o1, o2) \
	LEAQ       (CX)(CX*1), AX; \
	SPREAD(AX, R9, DI); \
	SHLQ       $4, DI; \
	ADDQ       SI, DI; \
	ADDQ       $2, AX; \
	SPREAD(AX, R9, R11); \
	SHLQ       $4, R11; \
	ADDQ       SI, R11; \
	VMOVUPD    (DI), Y8; \
	VMOVUPD    (R11), Y9; \
	VMOVUPD    (DI)(R10*1), Y10; \
	VMOVUPD    (R11)(R10*1), Y11; \
	VPERM2F128 $0x20, Y9, Y8, Y0; \
	VPERM2F128 $0x31, Y9, Y8, r1; \
	VPERM2F128 $0x20, Y11, Y10, r2; \
	VPERM2F128 $0x31, Y11, Y10, Y3; \
	K; \
	VPERM2F128 $0x20, o1, Y8, Y0; \
	VPERM2F128 $0x31, o1, Y8, Y1; \
	VPERM2F128 $0x20, Y11, o2, Y2; \
	VPERM2F128 $0x31, Y11, o2, Y3; \
	VMOVUPD    Y0, (DI); \
	VMOVUPD    Y1, (R11); \
	VMOVUPD    Y2, (DI)(R10*1); \
	VMOVUPD    Y3, (R11)(R10*1)

// func kern2AVX2Q0(amp []complex128, highb, q0low, lo, hi int, m *[16]complex128)
TEXT ·kern2AVX2Q0(SB), NOSPLIT, $0-64
	MOVQ amp_base+0(FP), SI
	MOVQ highb+24(FP), R9
	MOVQ R9, R10
	SHLQ $4, R10                   // highb in bytes
	NEGQ R9
	MOVQ q0low+32(FP), R8
	MOVQ lo+40(FP), CX
	MOVQ hi+48(FP), BX
	MOVQ m+56(FP), DX
	CMPQ R8, $0
	JNE  q0

	// Qubit 0 is q1: unit u holds [a0 a1] at i0 and [a2 a3] at i0|highb.
	UNITLOOP(Q0UNIT(KERN2, Y1, Y2, Y9, Y10), 2, q1)
	VZEROUPPER
	RET

	// Qubit 0 is q0: unit u holds [a0 a2] at i0 and [a1 a3] at i0|highb.
	UNITLOOP(Q0UNIT(KERN2, Y2, Y1, Y10, Y9), 2, q0)
	VZEROUPPER
	RET

// func kern2FMAQ0(amp []complex128, highb, q0low, lo, hi int, m *[16]complex128)
TEXT ·kern2FMAQ0(SB), NOSPLIT, $0-64
	MOVQ amp_base+0(FP), SI
	MOVQ highb+24(FP), R9
	MOVQ R9, R10
	SHLQ $4, R10                   // highb in bytes
	NEGQ R9
	MOVQ q0low+32(FP), R8
	MOVQ lo+40(FP), CX
	MOVQ hi+48(FP), BX
	MOVQ m+56(FP), DX
	CMPQ R8, $0
	JNE  q0

	// Qubit 0 is q1, as in kern2AVX2Q0.
	UNITLOOP(Q0UNIT(KERN2FMA, Y1, Y2, Y9, Y10), 2, q1)
	VZEROUPPER
	RET

	// Qubit 0 is q0.
	UNITLOOP(Q0UNIT(KERN2FMA, Y2, Y1, Y10, Y9), 2, q0)
	VZEROUPPER
	RET

// The Pauli and CX sweeps are Float64bits-identical to kernXGo,
// kernYGo, kernZGo and kernCXGo. X and CX only move amplitudes. Z flips
// the sign bits of the upper half, as the compiled negation does. For Y
// the compiler evaluates -1i*a1 as (re1*0 - (-im1), 0*im1 + (-re1)) and
// 1i*a0 as (0*re0 - im0, im0*0 + re0), each multiply and add rounded
// separately: VADDSUBPD(a*0, swap(a)), with the sign bits of swap(a)
// flipped on the -1i half, does the same IEEE operations. It keeps the
// signed zeros of 0*a, and 0*Inf is the same default NaN either way.

// SIGNS sets Y15 to the sign bit in every lane and Y14 to zero.
#define SIGNS \
	MOVQ         $0x8000000000000000, AX; \
	VMOVQ        AX, X15; \
	VPBROADCASTQ X15, Y15; \
	VXORPD       Y14, Y14, Y14

// KERNY sets Y12 = -1i*a1 and Y13 = 1i*a0 from a0 lanes in Y8 and a1
// lanes in Y9, with Y14 zero and Y15 the sign bits, as pairY computes
// them.
#define KERNY \
	VMULPD    Y14, Y9, Y12; \
	VPERMILPD $5, Y9, Y10; \
	VXORPD    Y15, Y10, Y10; \
	VADDSUBPD Y10, Y12, Y12; \
	VMULPD    Y14, Y8, Y13; \
	VPERMILPD $5, Y8, Y11; \
	VADDSUBPD Y11, Y13, Y13

// XHALF swaps the vector at SI with its upper half.
#define XHALF \
	VMOVUPD (SI), Y8; \
	VMOVUPD (SI)(DX*1), Y9; \
	VMOVUPD Y9, (SI); \
	VMOVUPD Y8, (SI)(DX*1)

// XPAIRS swaps the 128-bit lanes of the two pairs at SI (bit == 1: a
// vector is one pair).
#define XPAIRS \
	VPERMPD $0x4e, (SI), Y8; \
	VPERMPD $0x4e, 32(SI), Y9; \
	VMOVUPD Y8, (SI); \
	VMOVUPD Y9, 32(SI)

// func kernXAVX2(amp []complex128, bit, plo, phi int)
// The kern1AVX2 walk, storing each half into the other.
TEXT ·kernXAVX2(SB), NOSPLIT, $0-48
	MOVQ amp_base+0(FP), SI
	MOVQ bit+24(FP), R8
	MOVQ plo+32(FP), CX
	MOVQ phi+40(FP), BX
	PAIRSTART(pairs)
	VECLOOP(XHALF, vec, done)

done:
	VZEROUPPER
	RET

pairs:
	PAIRLOOP(XPAIRS, pair)
	VZEROUPPER
	RET

// func kernYAVX2(amp []complex128, bit, plo, phi int)
TEXT ·kernYAVX2(SB), NOSPLIT, $0-48
	MOVQ amp_base+0(FP), SI
	MOVQ bit+24(FP), R8
	MOVQ plo+32(FP), CX
	MOVQ phi+40(FP), BX
	SIGNS
	PAIRSTART(pairs)
	VECLOOP(HALF(KERNY), vec, done)

done:
	VZEROUPPER
	RET

pairs:
	PAIRLOOP(PAIRS4(KERNY), pair)
	VZEROUPPER
	RET

// ZHALF flips the signs of the upper half of the vector at SI, with Y15
// the sign bits.
#define ZHALF \
	VXORPD  (SI)(DX*1), Y15, Y9; \
	VMOVUPD Y9, (SI)(DX*1)

// ZPAIRS flips the signs of the upper halves of the two pairs at SI
// (bit == 1: the upper half of pair p is the amplitude 2p+1).
#define ZPAIRS \
	VXORPD  16(SI), X15, X8; \
	VXORPD  48(SI), X15, X9; \
	VMOVUPD X8, 16(SI); \
	VMOVUPD X9, 48(SI)

// func kernZAVX2(amp []complex128, bit, plo, phi int)
// Loads, flips and stores the upper halves only.
TEXT ·kernZAVX2(SB), NOSPLIT, $0-48
	MOVQ amp_base+0(FP), SI
	MOVQ bit+24(FP), R8
	MOVQ plo+32(FP), CX
	MOVQ phi+40(FP), BX
	SIGNS
	PAIRSTART(pairs)
	VECLOOP(ZHALF, vec, done)

done:
	VZEROUPPER
	RET

pairs:
	PAIRLOOP(ZPAIRS, pair)
	VZEROUPPER
	RET

// CXUNIT2 swaps units u and u+1 (u in CX) with their partners for
// lowb >= 2: R8 = -lowb, R9 = -highb, R10 the control offset in bytes and
// R12 the partner offset.
#define CXUNIT2 \
	SPREAD(CX, R8, AX); \
	SPREAD(AX, R9, DI); \
	SHLQ    $4, DI; \
	ADDQ    SI, DI; \
	VMOVUPD (DI)(R10*1), Y0; \
	VMOVUPD (DI)(R12*1), Y1; \
	VMOVUPD Y1, (DI)(R10*1); \
	VMOVUPD Y0, (DI)(R12*1)

// CXC0 swaps unit u (u in CX) with its partner for a control on qubit 0.
#define CXC0 \
	LEAQ    (CX)(CX*1), AX; \
	SPREAD(AX, R9, DI); \
	SHLQ    $4, DI; \
	ADDQ    SI, DI; \
	VMOVUPD (DI)(R10*1), X0; \
	VMOVUPD (DI)(R12*1), X1; \
	VMOVUPD X1, (DI)(R10*1); \
	VMOVUPD X0, (DI)(R12*1)

// CXT0 swaps unit u (u in CX) with its partner for a target on qubit 0:
// the 128-bit lanes of one vector.
#define CXT0 \
	LEAQ    (CX)(CX*1), AX; \
	SPREAD(AX, R9, DI); \
	SHLQ    $4, DI; \
	ADDQ    SI, DI; \
	VPERMPD $0x4e, (DI)(R10*1), Y0; \
	VMOVUPD Y0, (DI)(R10*1)

// INCLOOP is UNITLOOP one unit a step.
#define INCLOOP(B, l) \
l: \
	B; \
	INCQ CX; \
	CMPQ CX, BX; \
	JLT  l

// func kernCXAVX2(amp []complex128, lowb, highb, cb, tb, lo, hi int)
// With lowb >= 2, units u and u+1 (lo and hi even) sit side by side, as
// in UNIT2: one vector at i0|cb swaps with one at i0|cb|tb. With
// lowb == 1, unit u is the amplitude at i0|cb, i0 = spreadBit(2u, highb),
// and its partner. A target on qubit 0 puts the partner next to it, so
// one vector holds both and swaps its 128-bit lanes; a control on qubit
// 0 leaves them highb apart, and they are moved one at a time.
TEXT ·kernCXAVX2(SB), NOSPLIT, $0-72
	MOVQ amp_base+0(FP), SI
	MOVQ lowb+24(FP), R8
	MOVQ highb+32(FP), R9
	NEGQ R9
	MOVQ cb+40(FP), R10
	SHLQ $4, R10                   // control offset in bytes
	MOVQ tb+48(FP), R12
	SHLQ $4, R12
	ADDQ R10, R12                  // partner offset
	MOVQ lo+56(FP), CX
	MOVQ hi+64(FP), BX
	CMPQ R8, $1
	JEQ  q0
	NEGQ R8

	UNITLOOP(CXUNIT2, 2, loop2)
	VZEROUPPER
	RET

q0:
	CMPQ tb+48(FP), $1
	JEQ  t0
	INCLOOP(CXC0, c0)
	VZEROUPPER
	RET

	INCLOOP(CXT0, t0)
	VZEROUPPER
	RET

// q0lo and q0hi are the VPERMT2PD indices that interleave two slot
// vectors back into memory order, one 128-bit lane of each in turn:
// q0lo takes lanes 0 and 1, q0hi lanes 2 and 3.
DATA q0lo<>+0(SB)/8, $0
DATA q0lo<>+8(SB)/8, $1
DATA q0lo<>+16(SB)/8, $8
DATA q0lo<>+24(SB)/8, $9
DATA q0lo<>+32(SB)/8, $2
DATA q0lo<>+40(SB)/8, $3
DATA q0lo<>+48(SB)/8, $10
DATA q0lo<>+56(SB)/8, $11
GLOBL q0lo<>(SB), RODATA|NOPTR, $64

DATA q0hi<>+0(SB)/8, $4
DATA q0hi<>+8(SB)/8, $5
DATA q0hi<>+16(SB)/8, $12
DATA q0hi<>+24(SB)/8, $13
DATA q0hi<>+32(SB)/8, $6
DATA q0hi<>+40(SB)/8, $7
DATA q0hi<>+48(SB)/8, $14
DATA q0hi<>+56(SB)/8, $15
GLOBL q0hi<>(SB), RODATA|NOPTR, $64

// Q0UNIT4 is Q0UNIT on ZMM for units u..u+3 (u in CX, a multiple of 4)
// with highb >= 4: units u and u+1 sit side by side at i0 of u, and
// u+2 and u+3 at i0 of u+2, so each load holds two matrix slots of two
// units. VSHUFF64X2 picks the even and odd 128-bit lanes of two loads
// into slot vectors of all four units (slot s1 into r1, slot s2 into
// r2), FROW512 computes the rows, and VPERMT2PD with the q0lo and q0hi
// indices in Z16 and Z17 interleaves the rows o1 and o2 of slots s1 and
// s2 back with rows 0 and 3.
#define Q0UNIT4(r1, r2, o1, o2) \
	LEAQ           (CX)(CX*1), AX; \
	SPREAD(AX, R9, DI); \
	SHLQ           $4, DI; \
	ADDQ           SI, DI; \
	ADDQ           $4, AX; \
	SPREAD(AX, R9, R11); \
	SHLQ           $4, R11; \
	ADDQ           SI, R11; \
	VMOVUPD        (DI), Z8; \
	VMOVUPD        (R11), Z9; \
	VMOVUPD        (DI)(R10*1), Z10; \
	VMOVUPD        (R11)(R10*1), Z11; \
	VSHUFF64X2     $0x88, Z9, Z8, Z0; \
	VSHUFF64X2     $0xdd, Z9, Z8, r1; \
	VSHUFF64X2     $0x88, Z11, Z10, r2; \
	VSHUFF64X2     $0xdd, Z11, Z10, Z3; \
	VPERMILPD      $0x55, Z0, Z4; \
	VPERMILPD      $0x55, Z1, Z5; \
	VPERMILPD      $0x55, Z2, Z6; \
	VPERMILPD      $0x55, Z3, Z7; \
	FROW512(0, Z8, Z12); \
	FROW512(64, Z9, Z13); \
	FROW512(128, Z10, Z14); \
	FROW512(192, Z11, Z15); \
	VMOVAPD        Z8, Z18; \
	VPERMT2PD      o1, Z16, Z18; \
	VPERMT2PD      o1, Z17, Z8; \
	VMOVAPD        o2, Z19; \
	VPERMT2PD      Z11, Z16, Z19; \
	VPERMT2PD      Z11, Z17, o2; \
	VMOVUPD        Z18, (DI); \
	VMOVUPD        Z8, (R11); \
	VMOVUPD        Z19, (DI)(R10*1); \
	VMOVUPD        o2, (R11)(R10*1)

// Q0UNIT4N is Q0UNIT4 for highb == 2, where unit u is the four
// amplitudes [4u, 4u+4), slots 0, s1, s2 and 3 in memory order: the four
// loads are four units, and a 4x4 transpose of their 128-bit lanes
// (VSHUFF64X2 twice) turns them into slot vectors and the rows back.
#define Q0UNIT4N(r1, r2, o1, o2) \
	MOVQ           CX, DI; \
	SHLQ           $6, DI; \
	ADDQ           SI, DI; \
	VMOVUPD        (DI), Z8; \
	VMOVUPD        64(DI), Z9; \
	VMOVUPD        128(DI), Z10; \
	VMOVUPD        192(DI), Z11; \
	VSHUFF64X2     $0x44, Z9, Z8, Z12; \
	VSHUFF64X2     $0xee, Z9, Z8, Z13; \
	VSHUFF64X2     $0x44, Z11, Z10, Z14; \
	VSHUFF64X2     $0xee, Z11, Z10, Z15; \
	VSHUFF64X2     $0x88, Z14, Z12, Z0; \
	VSHUFF64X2     $0xdd, Z14, Z12, r1; \
	VSHUFF64X2     $0x88, Z15, Z13, r2; \
	VSHUFF64X2     $0xdd, Z15, Z13, Z3; \
	VPERMILPD      $0x55, Z0, Z4; \
	VPERMILPD      $0x55, Z1, Z5; \
	VPERMILPD      $0x55, Z2, Z6; \
	VPERMILPD      $0x55, Z3, Z7; \
	FROW512(0, Z8, Z12); \
	FROW512(64, Z9, Z13); \
	FROW512(128, Z10, Z14); \
	FROW512(192, Z11, Z15); \
	VSHUFF64X2     $0x44, o1, Z8, Z12; \
	VSHUFF64X2     $0xee, o1, Z8, Z13; \
	VSHUFF64X2     $0x44, Z11, o2, Z14; \
	VSHUFF64X2     $0xee, Z11, o2, Z15; \
	VSHUFF64X2     $0x88, Z14, Z12, Z0; \
	VSHUFF64X2     $0xdd, Z14, Z12, Z1; \
	VSHUFF64X2     $0x88, Z15, Z13, Z2; \
	VSHUFF64X2     $0xdd, Z15, Z13, Z3; \
	VMOVUPD        Z0, (DI); \
	VMOVUPD        Z1, 64(DI); \
	VMOVUPD        Z2, 128(DI); \
	VMOVUPD        Z3, 192(DI)

// func kern2FMAQ0512(amp []complex128, highb, q0low, lo, hi int, m *[16]complex128)
// lo and hi are multiples of 4.
TEXT ·kern2FMAQ0512(SB), NOSPLIT, $0-64
	MOVQ      amp_base+0(FP), SI
	MOVQ      highb+24(FP), R9
	MOVQ      R9, R10
	SHLQ      $4, R10              // highb in bytes
	NEGQ      R9
	MOVQ      q0low+32(FP), R8
	MOVQ      lo+40(FP), CX
	MOVQ      hi+48(FP), BX
	MOVQ      m+56(FP), DX
	VMOVUPD   q0lo<>(SB), Z16
	VMOVUPD   q0hi<>(SB), Z17
	ONES
	CMPQ      R10, $32
	JEQ       narrow
	CMPQ      R8, $0
	JNE       q0

	// Qubit 0 is q1, as in kern2AVX2Q0.
	UNITLOOP(Q0UNIT4(Z1, Z2, Z9, Z10), 4, q1)
	VZEROUPPER
	RET

	// Qubit 0 is q0.
	UNITLOOP(Q0UNIT4(Z2, Z1, Z10, Z9), 4, q0)
	VZEROUPPER
	RET

	// highb == 2.
narrow:
	CMPQ R8, $0
	JNE  q0n

	UNITLOOP(Q0UNIT4N(Z1, Z2, Z9, Z10), 4, q1n)
	VZEROUPPER
	RET

	UNITLOOP(Q0UNIT4N(Z2, Z1, Z10, Z9), 4, q0n)
	VZEROUPPER
	RET

// The diagonal and Hadamard sweeps are Float64bits-identical to
// kernDiagGo and kernHGo. Both multiply by a complex constant d the way
// the compiled a*d does: re = ar*dr - ai*di and im = ar*di + ai*dr, each
// multiply and add rounded separately, as CMUL's VADDSUBPD(a*bcast(dr),
// swap(a)*bcast(di)) does. The Hadamard repeats kernHGo's full product by
// qmath.SqrtHalf = (1/√2, 0), the x*0 terms included, so signed zeros,
// Inf and NaN come out as the Go body's. Addition is commutative bit for
// bit except when two NaNs of different bits meet: x86 then returns the
// first operand's, and the compiler picks the operand order per call
// site, so no sweep can promise that case.

// CMUL sets dst = a*d for the complex lanes of a, with d's real part
// broadcast in re and its imaginary part in im; sa and t are scratch.
#define CMUL(a, re, im, sa, t, dst) \
	VPERMILPD $5, a, sa; \
	VMULPD    re, a, dst; \
	VMULPD    im, sa, t; \
	VADDSUBPD t, dst, dst

// KERNH sets Y12 = (a0+a1)*c and Y13 = (a0-a1)*c from a0 lanes in Y8 and
// a1 lanes in Y9, with c's parts broadcast in Y0 and Y1, as pairH
// computes them.
#define KERNH \
	VADDPD Y9, Y8, Y10; \
	VSUBPD Y9, Y8, Y11; \
	CMUL(Y10, Y0, Y1, Y14, Y15, Y12); \
	CMUL(Y11, Y0, Y1, Y14, Y15, Y13)

// func kernHAVX2(amp []complex128, bit, plo, phi int, c complex128)
// The kern1AVX2 walk with KERNH.
TEXT ·kernHAVX2(SB), NOSPLIT, $0-64
	MOVQ         amp_base+0(FP), SI
	MOVQ         bit+24(FP), R8
	MOVQ         plo+32(FP), CX
	MOVQ         phi+40(FP), BX
	VBROADCASTSD c_real+48(FP), Y0
	VBROADCASTSD c_imag+56(FP), Y1
	PAIRSTART(pairs)
	VECLOOP(HALF(KERNH), vec, done)

done:
	VZEROUPPER
	RET

pairs:
	PAIRLOOP(PAIRS4(KERNH), pair)
	VZEROUPPER
	RET

// DIAGHALF multiplies the vector at SI by d0 (Y0, Y1) and its upper half
// by d1 (Y2, Y3).
#define DIAGHALF \
	VMOVUPD (SI), Y8; \
	VMOVUPD (SI)(DX*1), Y9; \
	CMUL(Y8, Y0, Y1, Y10, Y14, Y12); \
	CMUL(Y9, Y2, Y3, Y11, Y15, Y13); \
	VMOVUPD Y12, (SI); \
	VMOVUPD Y13, (SI)(DX*1)

// DIAGPAIRS multiplies the two pairs at SI by [d0 d1] (Y4, Y5).
#define DIAGPAIRS \
	VMOVUPD (SI), Y8; \
	VMOVUPD 32(SI), Y9; \
	CMUL(Y8, Y4, Y5, Y10, Y14, Y12); \
	CMUL(Y9, Y4, Y5, Y11, Y15, Y13); \
	VMOVUPD Y12, (SI); \
	VMOVUPD Y13, 32(SI)

// func kernDiagAVX2(amp []complex128, bit, plo, phi int, d0, d1 complex128)
// The kern1AVX2 walk multiplying lower halves by d0 and upper halves by
// d1. For bit == 1 a vector is one pair, lower amplitude in the low lane,
// so the constants are d0 in the low lane and d1 in the high one.
TEXT ·kernDiagAVX2(SB), NOSPLIT, $0-80
	MOVQ         amp_base+0(FP), SI
	MOVQ         bit+24(FP), R8
	MOVQ         plo+32(FP), CX
	MOVQ         phi+40(FP), BX
	VBROADCASTSD d0_real+48(FP), Y0
	VBROADCASTSD d0_imag+56(FP), Y1
	VBROADCASTSD d1_real+64(FP), Y2
	VBROADCASTSD d1_imag+72(FP), Y3
	PAIRSTART(pairs)
	VECLOOP(DIAGHALF, vec, done)

done:
	VZEROUPPER
	RET

pairs:
	VBLENDPD $12, Y2, Y0, Y4       // d0r d0r d1r d1r
	VBLENDPD $12, Y3, Y1, Y5       // d0i d0i d1i d1i
	PAIRLOOP(DIAGPAIRS, pair)
	VZEROUPPER
	RET

// DIAG1HALF multiplies the upper half of the vector at SI by d1 (Y2, Y3).
#define DIAG1HALF \
	VMOVUPD (SI)(DX*1), Y9; \
	CMUL(Y9, Y2, Y3, Y11, Y15, Y13); \
	VMOVUPD Y13, (SI)(DX*1)

// DIAG1PAIRS multiplies the upper halves of the two pairs at SI by d1
// (bit == 1: the upper half of pair p is the amplitude 2p+1).
#define DIAG1PAIRS \
	VMOVUPD 16(SI), X8; \
	VMOVUPD 48(SI), X9; \
	CMUL(X8, X2, X3, X10, X14, X12); \
	CMUL(X9, X2, X3, X11, X15, X13); \
	VMOVUPD X12, 16(SI); \
	VMOVUPD X13, 48(SI)

// func kernDiag1AVX2(amp []complex128, bit, plo, phi int, d1 complex128)
// kernDiagAVX2 for d0 == 1: loads, multiplies and stores the upper halves
// only, as kernDiagGo's d0 == 1 branch does.
TEXT ·kernDiag1AVX2(SB), NOSPLIT, $0-64
	MOVQ         amp_base+0(FP), SI
	MOVQ         bit+24(FP), R8
	MOVQ         plo+32(FP), CX
	MOVQ         phi+40(FP), BX
	VBROADCASTSD d1_real+48(FP), Y2
	VBROADCASTSD d1_imag+56(FP), Y3
	PAIRSTART(pairs)
	VECLOOP(DIAG1HALF, vec, done)

done:
	VZEROUPPER
	RET

pairs:
	PAIRLOOP(DIAG1PAIRS, pair)
	VZEROUPPER
	RET

// The tape: kernTape runs a slice of dispatch kernels (OpKernel, laid out
// as go_asm.h says) on one state in one call, each through the loop of
// the routine ApplyKernel would call, so every amplitude comes out as
// ApplyKernel's. Per kernel it loads what the routine's arguments would
// hold from the kernel (plo and lo are 0, phi and hi the whole state),
// branches on the routine byte and walks the loop; the loop's exit goes
// to the next kernel instead of returning. It takes the exact AVX2
// routines only and skips identity kernels. It stops at the first
// kernel it does not take: any other routine or kind, a kernel resolved
// for another state size, or one whose pairs or units would take the
// call's summed work past asmChunk. R13 points at the kernel, R14 is
// its index and R15 the work left.

// TAPEPAIR loads a pair kernel's arguments for the whole state: amp in
// SI, bit in R8 and plo = 0 in CX; BX already holds phi, the pair count.
#define TAPEPAIR \
	MOVQ amp_base+0(FP), SI; \
	MOVQ OpKernel_b0(R13), R8; \
	XORQ CX, CX

// BCAST loads complex entry j of the kernel's 2x2 into re and im.
#define BCAST(j, re, im) \
	VBROADCASTSD OpKernel_u+(16*j)(R13), re; \
	VBROADCASTSD OpKernel_u+(16*j+8)(R13), im

// func kernTape(amp []complex128, ks []OpKernel) int
TEXT ·kernTape(SB), NOSPLIT, $0-56
	MOVQ ks_base+24(FP), R13
	XORQ R14, R14
	MOVQ $const_asmChunk, R15

next:
	CMPQ    R14, ks_len+32(FP)
	JGE     out
	MOVQ    amp_len+8(FP), BX
	CMPQ    OpKernel_dim(R13), BX
	JNE     out
	MOVBQZX OpKernel_kind(R13), AX
	CMPQ    AX, $const_okPairs
	JEQ     pairk
	CMPQ    AX, $const_okUnits
	JEQ     unitk
	CMPQ    AX, $const_okIdentity
	JEQ     adv
	JMP     out

adv:
	ADDQ $OpKernel__size, R13
	INCQ R14
	JMP  next

out:
	MOVQ R14, ret+48(FP)
	VZEROUPPER
	RET

pairk:
	SHRQ    $1, BX
	SUBQ    BX, R15
	JLT     out
	MOVBQZX OpKernel_r(R13), AX
	CMPQ    AX, $const_r1AVX2
	JEQ     t1
	CMPQ    AX, $const_rDiag1AVX2
	JEQ     tdiag1
	CMPQ    AX, $const_rHAVX2
	JEQ     th
	CMPQ    AX, $const_rXAVX2
	JEQ     tx
	CMPQ    AX, $const_rZAVX2
	JEQ     tz
	CMPQ    AX, $const_rYAVX2
	JEQ     ty
	CMPQ    AX, $const_rDiagAVX2
	JEQ     tdiag
	JMP     out

t1:
	TAPEPAIR
	BCAST(0, Y0, Y1)
	BCAST(1, Y2, Y3)
	BCAST(2, Y4, Y5)
	BCAST(3, Y6, Y7)
	PAIRSTART(t1p)
	VECLOOP(HALF(KERN1), t1v, adv)

t1p:
	PAIRLOOP(PAIRS4(KERN1), t1q)
	JMP adv

	// A diagonal's d0 and d1 are u00 and u11; an H kernel's u00 is
	// qmath.SqrtHalf, gate.H's entry, which kernHAVX2 takes as c.
tdiag1:
	TAPEPAIR
	BCAST(3, Y2, Y3)
	PAIRSTART(td1p)
	VECLOOP(DIAG1HALF, td1v, adv)

td1p:
	PAIRLOOP(DIAG1PAIRS, td1q)
	JMP adv

tdiag:
	TAPEPAIR
	BCAST(0, Y0, Y1)
	BCAST(3, Y2, Y3)
	PAIRSTART(tdp)
	VECLOOP(DIAGHALF, tdv, adv)

tdp:
	VBLENDPD $12, Y2, Y0, Y4
	VBLENDPD $12, Y3, Y1, Y5
	PAIRLOOP(DIAGPAIRS, tdq)
	JMP      adv

th:
	TAPEPAIR
	BCAST(0, Y0, Y1)
	PAIRSTART(thp)
	VECLOOP(HALF(KERNH), thv, adv)

thp:
	PAIRLOOP(PAIRS4(KERNH), thq)
	JMP adv

tx:
	TAPEPAIR
	PAIRSTART(txp)
	VECLOOP(XHALF, txv, adv)

txp:
	PAIRLOOP(XPAIRS, txq)
	JMP adv

ty:
	TAPEPAIR
	SIGNS
	PAIRSTART(typ)
	VECLOOP(HALF(KERNY), tyv, adv)

typ:
	PAIRLOOP(PAIRS4(KERNY), tyq)
	JMP adv

tz:
	TAPEPAIR
	SIGNS
	PAIRSTART(tzp)
	VECLOOP(ZHALF, tzv, adv)

tzp:
	PAIRLOOP(ZPAIRS, tzq)
	JMP adv

	// Unit kernels: R10 and R11 hold b0 and b1, R8 and R9 the lower and
	// the higher of them, and BX the unit count.
unitk:
	SHRQ    $2, BX
	SUBQ    BX, R15
	JLT     out
	MOVQ    amp_base+0(FP), SI
	MOVQ    OpKernel_b0(R13), R10
	MOVQ    OpKernel_b1(R13), R11
	MOVQ    R10, R8
	MOVQ    R11, R9
	CMPQ    R8, R9
	CMOVQGT R11, R8
	CMOVQGT R10, R9
	XORQ    CX, CX
	MOVBQZX OpKernel_r(R13), AX
	CMPQ    AX, $const_rCXAVX2
	JEQ     tcx
	CMPQ    AX, $const_r2AVX2Q0
	JEQ     t2q
	CMPQ    AX, $const_r2AVX2
	JEQ     t2
	JMP     out

	// kernCXAVX2: control b0, target b1.
tcx:
	NEGQ R9
	SHLQ $4, R10
	MOVQ R11, R12
	SHLQ $4, R12
	ADDQ R10, R12
	CMPQ R8, $1
	JEQ  tcx0
	NEGQ R8
	UNITLOOP(CXUNIT2, 2, tcxl)
	JMP  adv

tcx0:
	CMPQ R11, $1
	JEQ  tcxt
	INCLOOP(CXC0, tcxc)
	JMP  adv

	INCLOOP(CXT0, tcxt)
	JMP adv

	// kern2AVX2.
t2:
	NEGQ R8
	NEGQ R9
	SHLQ $4, R10
	SHLQ $4, R11
	LEAQ (R10)(R11*1), R12
	MOVQ OpKernel_m(R13), DX
	UNITLOOP(UNIT2(KERN2), 2, t2l)
	JMP  adv

	// kern2AVX2Q0: q0low is b0&1.
t2q:
	MOVQ R9, R10
	SHLQ $4, R10
	NEGQ R9
	MOVQ OpKernel_b0(R13), R8
	ANDQ $1, R8
	MOVQ OpKernel_m(R13), DX
	CMPQ R8, $0
	JNE  t2q0
	UNITLOOP(Q0UNIT(KERN2, Y1, Y2, Y9, Y10), 2, t2q1)
	JMP  adv

	UNITLOOP(Q0UNIT(KERN2, Y2, Y1, Y10, Y9), 2, t2q0)
	JMP adv
