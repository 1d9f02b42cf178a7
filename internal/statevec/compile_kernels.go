package statevec

import (
	"fmt"

	"repro/internal/gate"
	"repro/internal/qmath"
)

// kernel is one compiled sweep over the whole amplitude vector.
type kernel interface {
	run(amp []complex128)
	info() KernelInfo
}

// ---- single-qubit chains ----

// step opcodes: the sweep routine a single-qubit gate takes (pairRoutine)
// and, under FuseNumeric, how a chain's product is tagged.
const (
	sGeneric = iota
	sX
	sY
	sZ
	sH
	sDiag1 // diag(1, d1): upper half only
	sDiag  // diag(d0, d1)
)

// gstep is one gate of a single-qubit chain: its opcode and its 2x2
// entries u00, u01, u10, u11, always filled (they drive info() and
// numeric folding). A diagonal step's d0 and d1 are u[0] and u[3]; run
// switches on op.
type gstep struct {
	op uint8
	u  [4]complex128
}

// gstepFor lowers a single-qubit gate to a chain step; ResolveOp uses it
// too, so dispatch and lowering classify a gate alike.
func gstepFor(g *gate.Gate) gstep {
	st := gstep{u: [4]complex128(g.Matrix().Data())}
	switch k := g.Kind(); {
	case k == gate.KindX:
		st.op = sX
	case k == gate.KindY:
		st.op = sY
	case k == gate.KindZ:
		st.op = sZ
	case k == gate.KindH:
		st.op = sH
	case diagKind(k) && st.u[0] == 1:
		st.op = sDiag1
	case diagKind(k):
		st.op = sDiag
	default:
		st.op = sGeneric
	}
	return st
}

func (st gstep) mat() qmath.Matrix {
	return qmath.FromRows([][]complex128{
		{st.u[0], st.u[1]},
		{st.u[2], st.u[3]},
	})
}

// chainKernel applies single-qubit gates on one qubit. While a segment is
// lowered under FuseNumeric a chain collects several steps; foldChains
// multiplies them into one, so every lowered chain sweeps one step
// through the routine pickRoutines resolves for it (dispatch's, under
// FuseOff).
type chainKernel struct {
	q, bit int
	steps  []gstep
	ops    int
	r      routine // the one step's sweep (see pickRoutines)
}

func (k *chainKernel) run(amp []complex128) {
	sweepPairs(amp, k.r, k.bit, 0, len(amp)>>uint(k.q+1), &k.steps[0].u)
}

func (k *chainKernel) info() KernelInfo {
	m := qmath.Identity(2)
	for _, st := range k.steps {
		m = st.mat().Mul(m) // later gates multiply on the left
	}
	return KernelInfo{Kind: "chain", Qubits: []int{k.q}, Ops: k.ops, Matrix: m}
}

// ---- diagonal runs ----

// diagonal step opcodes.
const (
	dZ = iota
	dD1
	dD
	dCZ
	dD2
)

// dstep is one diagonal gate of a phase sweep. 1q steps use bit; CZ uses
// mask = both qubit bits; dD2 (a general diagonal two-qubit gate, numeric
// mode only) uses bit = q0's bit, mask = q1's bit, and dd indexed by
// (bit of q0)<<1 | bit of q1 — the apply2 convention.
type dstep struct {
	op     uint8
	bit    int
	mask   int
	d0, d1 complex128
	dd     [4]complex128
}

// diagRunKernel applies a run of diagonal gates — on any mix of qubits,
// CZ included — in a single pass over the amplitudes: each amplitude is
// loaded once, every phase is applied in a register, and it is stored
// once. FuseNumeric collects these runs and folds most of them into
// phase tables (foldDiagTables); a run that keeps one step, or spans
// more than 16 qubits, sweeps as is.
type diagRunKernel struct {
	steps  []dstep
	qubits []int // union of touched qubits, ascending
	ops    int
}

func (k *diagRunKernel) run(amp []complex128) {
	steps := k.steps
	for i := range amp {
		a := amp[i]
		for s := range steps {
			st := &steps[s]
			switch st.op {
			case dZ:
				if i&st.bit != 0 {
					a = -a
				}
			case dD1:
				if i&st.bit != 0 {
					a *= st.d1
				}
			case dD:
				if i&st.bit != 0 {
					a *= st.d1
				} else {
					a *= st.d0
				}
			case dCZ:
				if i&st.mask == st.mask {
					a = -a
				}
			case dD2:
				idx := 0
				if i&st.bit != 0 {
					idx |= 2
				}
				if i&st.mask != 0 {
					idx |= 1
				}
				a *= st.dd[idx]
			}
		}
		amp[i] = a
	}
}

func (k *diagRunKernel) add1q(q int, st gstep) {
	d := dstep{bit: 1 << uint(q)}
	switch st.op {
	case sZ:
		d.op = dZ
	case sDiag1:
		d.op, d.d0, d.d1 = dD1, st.u[0], st.u[3]
	case sDiag:
		d.op, d.d0, d.d1 = dD, st.u[0], st.u[3]
	default:
		panic("statevec: non-diagonal step in diagonal run")
	}
	k.steps = append(k.steps, d)
	k.addQubit(q)
	k.ops++
}

func (k *diagRunKernel) addCZ(q0, q1 int) {
	k.steps = append(k.steps, dstep{op: dCZ, mask: 1<<uint(q0) | 1<<uint(q1)})
	k.addQubit(q0)
	k.addQubit(q1)
	k.ops++
}

// addDiag2 appends a general diagonal two-qubit gate (numeric mode only).
func (k *diagRunKernel) addDiag2(q0, q1 int, dd [4]complex128) {
	k.steps = append(k.steps, dstep{op: dD2, bit: 1 << uint(q0), mask: 1 << uint(q1), dd: dd})
	k.addQubit(q0)
	k.addQubit(q1)
	k.ops++
}

func (k *diagRunKernel) addQubit(q int) {
	for i, x := range k.qubits {
		if x == q {
			return
		}
		if x > q {
			k.qubits = append(k.qubits, 0)
			copy(k.qubits[i+1:], k.qubits[i:])
			k.qubits[i] = q
			return
		}
	}
	k.qubits = append(k.qubits, q)
}

// phaseFor evaluates the run's ordered phase product for one bit pattern
// p, where bit j of p is the value of qubit k.qubits[j].
func (k *diagRunKernel) phaseFor(p int) complex128 {
	bitSet := func(ampBit int) bool {
		q := qOf(ampBit)
		for j, x := range k.qubits {
			if x == q {
				return p>>uint(j)&1 != 0
			}
		}
		panic("statevec: qubit missing from diagonal run")
	}
	phase := complex(1, 0)
	for s := range k.steps {
		st := &k.steps[s]
		switch st.op {
		case dZ:
			if bitSet(st.bit) {
				phase = -phase
			}
		case dD1, dD:
			if bitSet(st.bit) {
				phase *= st.d1
			} else {
				phase *= st.d0orOne()
			}
		case dCZ:
			set := true
			for b := st.mask; b != 0; b &= b - 1 {
				if !bitSet(b & -b) {
					set = false
				}
			}
			if set {
				phase = -phase
			}
		case dD2:
			idx := 0
			if bitSet(st.bit) {
				idx |= 2
			}
			if bitSet(st.mask) {
				idx |= 1
			}
			phase *= st.dd[idx]
		}
	}
	return phase
}

func (k *diagRunKernel) info() KernelInfo {
	nq := len(k.qubits)
	dim := 1 << uint(nq)
	m := qmath.New(dim)
	for v := 0; v < dim; v++ {
		// Matrix bit for Qubits[j] is nq-1-j (Qubits[0] = MSB).
		p := 0
		for j := 0; j < nq; j++ {
			p |= (v >> uint(nq-1-j) & 1) << uint(j)
		}
		m.Set(v, v, k.phaseFor(p))
	}
	return KernelInfo{Kind: "diag", Qubits: append([]int(nil), k.qubits...), Ops: k.ops, Matrix: m}
}

func (st *dstep) d0orOne() complex128 {
	if st.op == dD {
		return st.d0
	}
	return 1
}

func qOf(bit int) int {
	q := 0
	for bit > 1 {
		bit >>= 1
		q++
	}
	return q
}

// ---- diagonal phase tables (FuseNumeric only) ----

// diagTableKernel is the numeric fold of a whole diagonal run: one
// precomputed phase per bit pattern of the union qubits, applied with a
// single complex multiply per amplitude. span/spanMask give a fast pattern
// extraction when the union qubits are contiguous.
type diagTableKernel struct {
	qubits   []int // ascending
	bits     []int // 1 << qubits[j]
	table    []complex128
	span     int // qubits[0] when contiguous, -1 otherwise
	spanMask int
	ops      int
}

func newDiagTableKernel(dk *diagRunKernel) *diagTableKernel {
	kq := len(dk.qubits)
	t := &diagTableKernel{
		qubits: append([]int(nil), dk.qubits...),
		bits:   make([]int, kq),
		table:  make([]complex128, 1<<uint(kq)),
		span:   dk.qubits[0],
		ops:    dk.ops,
	}
	for j, q := range dk.qubits {
		t.bits[j] = 1 << uint(q)
		if q != dk.qubits[0]+j {
			t.span = -1
		}
	}
	t.spanMask = len(t.table) - 1
	for p := range t.table {
		t.table[p] = dk.phaseFor(p)
	}
	return t
}

func (k *diagTableKernel) run(amp []complex128) {
	tab := k.table
	if k.span >= 0 {
		shift, mask := uint(k.span), k.spanMask
		for i := range amp {
			amp[i] *= tab[i>>shift&mask]
		}
		return
	}
	bits := k.bits
	for i := range amp {
		p := 0
		for j, b := range bits {
			if i&b != 0 {
				p |= 1 << uint(j)
			}
		}
		amp[i] *= tab[p]
	}
}

func (k *diagTableKernel) info() KernelInfo {
	nq := len(k.qubits)
	dim := 1 << uint(nq)
	m := qmath.New(dim)
	for v := 0; v < dim; v++ {
		p := 0
		for j := 0; j < nq; j++ {
			p |= (v >> uint(nq-1-j) & 1) << uint(j)
		}
		m.Set(v, v, k.table[p])
	}
	return KernelInfo{Kind: "diag", Qubits: append([]int(nil), k.qubits...), Ops: k.ops, Matrix: m}
}

// ---- specialized two- and three-qubit kernels ----

type cxKernel struct {
	ctrl, tgt int
	r         routine // see pickRoutines
}

func (k *cxKernel) run(amp []complex128) {
	sweepUnits(amp, k.r, 1<<uint(k.ctrl), 1<<uint(k.tgt), 0, len(amp)>>2, nil)
}
func (k *cxKernel) info() KernelInfo {
	return KernelInfo{Kind: "cx", Qubits: []int{k.ctrl, k.tgt}, Ops: 1, Matrix: gate.CX().Matrix()}
}

type czKernel struct{ q0, q1 int }

func (k *czKernel) run(amp []complex128) {
	kernCZ(amp, 1<<uint(k.q0), 1<<uint(k.q1), 0, len(amp)>>2)
}
func (k *czKernel) info() KernelInfo {
	return KernelInfo{Kind: "cz", Qubits: []int{k.q0, k.q1}, Ops: 1, Matrix: gate.CZ().Matrix()}
}

type swapKernel struct{ q0, q1 int }

func (k *swapKernel) run(amp []complex128) {
	kernSwap(amp, 1<<uint(k.q0), 1<<uint(k.q1), 0, len(amp)>>2)
}
func (k *swapKernel) info() KernelInfo {
	return KernelInfo{Kind: "swap", Qubits: []int{k.q0, k.q1}, Ops: 1, Matrix: gate.Swap().Matrix()}
}

type ccxKernel struct{ c0, c1, t int }

func (k *ccxKernel) run(amp []complex128) {
	kernCCX(amp, 1<<uint(k.c0), 1<<uint(k.c1), 1<<uint(k.t), 0, len(amp)>>3)
}
func (k *ccxKernel) info() KernelInfo {
	return KernelInfo{Kind: "ccx", Qubits: []int{k.c0, k.c1, k.t}, Ops: 1, Matrix: gate.CCX().Matrix()}
}

// twoQKernel applies a general (possibly fused) 4x4 unitary. The matrix
// index convention matches apply2: (bit of q0 << 1) | bit of q1.
type twoQKernel struct {
	q0, q1 int
	m      [16]complex128
	ops    int
	r      routine // see pickRoutines
}

func (k *twoQKernel) run(amp []complex128) {
	sweepUnits(amp, k.r, 1<<uint(k.q0), 1<<uint(k.q1), 0, len(amp)>>2, &k.m)
}
func (k *twoQKernel) info() KernelInfo {
	m := qmath.New(4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			m.Set(r, c, k.m[r*4+c])
		}
	}
	return KernelInfo{Kind: "2q", Qubits: []int{k.q0, k.q1}, Ops: k.ops, Matrix: m}
}

// kqKernel is the generic k-qubit fallback of compiled programs and of
// dispatch (OpKernel's okK), replicating the test reference applyK (same
// gather order, same MulVec) over free-subcube units.
type kqKernel struct {
	qubits []int
	m      qmath.Matrix
	bits   []int // amplitude bit of matrix bit j: 1 << qubits[k-1-j]
	sorted []int // fixed bits ascending, for the spread chain
}

func newKQKernel(m qmath.Matrix, qubits []int) *kqKernel {
	k := len(qubits)
	if m.Dim() != 1<<uint(k) {
		panic(fmt.Sprintf("statevec: matrix dim %d does not match %d qubits", m.Dim(), k))
	}
	bits := make([]int, k)
	for j := 0; j < k; j++ {
		bits[j] = 1 << uint(qubits[k-1-j])
	}
	sorted := append([]int(nil), bits...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return &kqKernel{qubits: append([]int(nil), qubits...), m: m, bits: bits, sorted: sorted}
}

func (k *kqKernel) run(amp []complex128) {
	kk := len(k.qubits)
	sub := 1 << uint(kk)
	scratchIn := make([]complex128, sub)
	scratchOut := make([]complex128, sub)
	idx := make([]int, sub)
	for u := range len(amp) >> uint(kk) {
		base := u
		for _, b := range k.sorted {
			base = spreadBit(base, b)
		}
		for v := 0; v < sub; v++ {
			j := base
			for b := 0; b < kk; b++ {
				if v&(1<<uint(b)) != 0 {
					j |= k.bits[b]
				}
			}
			idx[v] = j
			scratchIn[v] = amp[j]
		}
		k.m.MulVec(scratchOut, scratchIn)
		for v := 0; v < sub; v++ {
			amp[idx[v]] = scratchOut[v]
		}
	}
}

func (k *kqKernel) info() KernelInfo {
	return KernelInfo{Kind: "kq", Qubits: append([]int(nil), k.qubits...), Ops: 1, Matrix: k.m}
}

// nopKernel records ops whose fused product cancelled to the identity in
// numeric mode (e.g. CZ·CZ). It executes nothing.
type nopKernel struct{ ops int }

func (k *nopKernel) run(amp []complex128) {}
func (k *nopKernel) info() KernelInfo {
	return KernelInfo{Kind: "nop", Ops: k.ops}
}

// ---- commutation-aware merging (FuseNumeric only) ----

// fuseScanDepth bounds how many kernels the backward merge scan crosses.
// Layered circuits interleave qubits, so a useful merge target is usually
// within one or two layers' worth of kernels; the bound keeps lowering
// linear in practice.
const fuseScanDepth = 32

func diagStep(st gstep) bool { return st.op == sZ || st.op == sDiag1 || st.op == sDiag }

// kernelMask returns the amplitude-bit mask of the qubits a kernel acts
// on. Kernels with disjoint masks commute exactly.
func kernelMask(k kernel) int {
	switch t := k.(type) {
	case *chainKernel:
		return t.bit
	case *diagRunKernel:
		m := 0
		for _, q := range t.qubits {
			m |= 1 << uint(q)
		}
		return m
	case *diagTableKernel:
		m := 0
		for _, q := range t.qubits {
			m |= 1 << uint(q)
		}
		return m
	case *cxKernel:
		return 1<<uint(t.ctrl) | 1<<uint(t.tgt)
	case *czKernel:
		return 1<<uint(t.q0) | 1<<uint(t.q1)
	case *swapKernel:
		return 1<<uint(t.q0) | 1<<uint(t.q1)
	case *ccxKernel:
		return 1<<uint(t.c0) | 1<<uint(t.c1) | 1<<uint(t.t)
	case *twoQKernel:
		return 1<<uint(t.q0) | 1<<uint(t.q1)
	case *kqKernel:
		m := 0
		for _, q := range t.qubits {
			m |= 1 << uint(q)
		}
		return m
	case *nopKernel:
		return 0
	}
	return -1 // unknown kernels conservatively overlap everything
}

// kernelDiagonal reports whether the kernel's unitary is diagonal in the
// computational basis. Diagonal unitaries commute exactly with each other.
func kernelDiagonal(k kernel) bool {
	switch t := k.(type) {
	case *diagRunKernel, *diagTableKernel, *czKernel, *nopKernel:
		return true
	case *chainKernel:
		for _, st := range t.steps {
			if !diagStep(st) {
				return false
			}
		}
		return true
	case *twoQKernel:
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				if r != c && t.m[r*4+c] != 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// mergeOneQ tries to fuse a later single-qubit gate into an earlier
// compatible kernel, crossing only kernels the gate commutes with
// (disjoint qubits, or diagonal against diagonal). Returns true when the
// gate was absorbed.
func mergeOneQ(ks []kernel, q int, st gstep) bool {
	bit := 1 << uint(q)
	isDiag := diagStep(st)
	for i, depth := len(ks)-1, 0; i >= 0 && depth < fuseScanDepth; i, depth = i-1, depth+1 {
		k := ks[i]
		if ck, ok := k.(*chainKernel); ok && ck.q == q {
			ck.steps = append(ck.steps, st)
			ck.ops++
			return true
		}
		if isDiag {
			if dk, ok := k.(*diagRunKernel); ok {
				dk.add1q(q, st)
				return true
			}
			if kernelDiagonal(k) {
				continue
			}
		}
		if p0, p1, pm, pops, ok := as4x4(k); ok && (p0 == q || p1 == q) {
			slot := 1
			if p0 == q {
				slot = 0
			}
			ks[i] = &twoQKernel{q0: p0, q1: p1, m: mul4(embed2(st.u, slot), pm), ops: pops + 1}
			return true
		}
		if kernelMask(k)&bit == 0 {
			continue
		}
		return false
	}
	return false
}

// merge2Q tries to fold a later two-qubit gate into an earlier kernel on
// the same unordered pair, with the same crossing rules as mergeOneQ.
// diag marks the incoming gate as diagonal.
func merge2Q(ks []kernel, q0, q1 int, m [16]complex128, diag bool) bool {
	mask := 1<<uint(q0) | 1<<uint(q1)
	for i, depth := len(ks)-1, 0; i >= 0 && depth < fuseScanDepth; i, depth = i-1, depth+1 {
		k := ks[i]
		if p0, p1, pm, pops, ok := as4x4(k); ok {
			if p0 == q0 && p1 == q1 {
				ks[i] = &twoQKernel{q0: p0, q1: p1, m: mul4(m, pm), ops: pops + 1}
				return true
			}
			if p0 == q1 && p1 == q0 {
				ks[i] = &twoQKernel{q0: p0, q1: p1, m: mul4(swapConj(m), pm), ops: pops + 1}
				return true
			}
		}
		if diag && kernelDiagonal(k) {
			continue
		}
		if kernelMask(k)&mask == 0 {
			continue
		}
		return false
	}
	return false
}

// mergeDiag2Q routes a later diagonal two-qubit gate (CZ, or a general
// diagonal 4x4) into an earlier diagonal run, crossing any diagonal or
// disjoint kernel. cz selects the exact-negation CZ step; otherwise dd
// holds the diagonal entries.
func mergeDiag2Q(ks []kernel, q0, q1 int, cz bool, dd [4]complex128) bool {
	mask := 1<<uint(q0) | 1<<uint(q1)
	for i, depth := len(ks)-1, 0; i >= 0 && depth < fuseScanDepth; i, depth = i-1, depth+1 {
		k := ks[i]
		if dk, ok := k.(*diagRunKernel); ok {
			if cz {
				dk.addCZ(q0, q1)
			} else {
				dk.addDiag2(q0, q1, dd)
			}
			return true
		}
		if kernelDiagonal(k) {
			continue
		}
		if kernelMask(k)&mask == 0 {
			continue
		}
		return false
	}
	return false
}

// diagMatrix2 extracts the diagonal of a 4x4 if the matrix is diagonal.
func diagMatrix2(m qmath.Matrix) ([4]complex128, bool) {
	var dd [4]complex128
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := m.At(r, c)
			if r == c {
				dd[r] = v
			} else if v != 0 {
				return dd, false
			}
		}
	}
	return dd, true
}

// ---- lowering ----

// lowerSegment lowers circuit layers [from, to) to a kernel list. The
// returned op count is the logical-op total for the range, identity gates
// included (they are counted but compile to nothing, matching dispatch
// where ApplyOp on I is a counted no-op).
//
// FuseOff lowers one kernel per op. FuseNumeric merges across
// structurally commuting kernels (disjoint qubit sets, or diagonal against
// diagonal) via the backward merge scan, then folds the accumulated
// kernels algebraically.
func lowerSegment(layers [][]loweredOp, from, to int, mode FuseMode) ([]kernel, int) {
	var ks []kernel
	ops := 0
	numeric := mode == FuseNumeric
	for l := from; l < to; l++ {
		for _, op := range layers[l] {
			ops++
			g := op.g
			switch {
			case g.Qubits() == 1:
				if g.Kind() == gate.KindI {
					continue // counted, not executed — as in dispatch
				}
				q := op.qubits[0]
				st := gstepFor(&g)
				if numeric {
					if mergeOneQ(ks, q, st) {
						continue
					}
					if diagStep(st) {
						dk := &diagRunKernel{}
						dk.add1q(q, st)
						ks = append(ks, dk)
						continue
					}
				}
				ks = append(ks, &chainKernel{q: q, bit: 1 << uint(q), steps: []gstep{st}, ops: 1})
			case g.Kind() == gate.KindCX:
				if numeric {
					var m [16]complex128
					mat2Flat(g.Matrix(), &m)
					if merge2Q(ks, op.qubits[0], op.qubits[1], m, false) {
						continue
					}
				}
				ks = append(ks, &cxKernel{ctrl: op.qubits[0], tgt: op.qubits[1]})
			case g.Kind() == gate.KindCZ:
				if numeric {
					if mergeDiag2Q(ks, op.qubits[0], op.qubits[1], true, [4]complex128{}) {
						continue
					}
					dk := &diagRunKernel{}
					dk.addCZ(op.qubits[0], op.qubits[1])
					ks = append(ks, dk)
					continue
				}
				ks = append(ks, &czKernel{q0: op.qubits[0], q1: op.qubits[1]})
			case g.Kind() == gate.KindSwap:
				if numeric {
					var m [16]complex128
					mat2Flat(g.Matrix(), &m)
					if merge2Q(ks, op.qubits[0], op.qubits[1], m, false) {
						continue
					}
				}
				ks = append(ks, &swapKernel{q0: op.qubits[0], q1: op.qubits[1]})
			case g.Kind() == gate.KindCCX:
				ks = append(ks, &ccxKernel{c0: op.qubits[0], c1: op.qubits[1], t: op.qubits[2]})
			case g.Qubits() == 2:
				if numeric {
					if dd, ok := diagMatrix2(g.Matrix()); ok {
						if mergeDiag2Q(ks, op.qubits[0], op.qubits[1], false, dd) {
							continue
						}
						dk := &diagRunKernel{}
						dk.addDiag2(op.qubits[0], op.qubits[1], dd)
						ks = append(ks, dk)
						continue
					}
					var m [16]complex128
					mat2Flat(g.Matrix(), &m)
					if merge2Q(ks, op.qubits[0], op.qubits[1], m, false) {
						continue
					}
				}
				tk := &twoQKernel{q0: op.qubits[0], q1: op.qubits[1], ops: 1}
				mat2Flat(g.Matrix(), &tk.m)
				ks = append(ks, tk)
			default:
				ks = append(ks, newKQKernel(g.Matrix(), op.qubits))
			}
		}
	}
	if numeric {
		ks = demoteSingleGateDiagRuns(ks)
		ks = mergeAdjacentChains(ks)
		ks = foldChains(ks)
		ks = foldDiagRuns(ks)
		ks = foldPairs(ks)
		ks = foldDiagTables(ks)
	}
	pickRoutines(ks, mode)
	return ks, ops
}

// pickRoutines resolves the sweep routine of every chain, CX and general
// 4x4 kernel once the segment is lowered, in its fuse mode: only
// FuseNumeric kernels may take the FMA routines, which round once per
// multiply-add where FuseOff must stay Float64bits-identical to dispatch.
func pickRoutines(ks []kernel, mode FuseMode) {
	for _, k := range ks {
		switch t := k.(type) {
		case *chainKernel:
			if len(t.steps) != 1 {
				panic(fmt.Sprintf("statevec: chain on qubit %d lowered with %d steps, want 1", t.q, len(t.steps)))
			}
			t.r = pairRoutine(t.steps[0].op, t.bit, mode, useAVX2)
		case *cxKernel:
			t.r = unitRoutine(true, 1<<uint(t.ctrl), 1<<uint(t.tgt), mode, useAVX2)
		case *twoQKernel:
			t.r = unitRoutine(false, 1<<uint(t.q0), 1<<uint(t.q1), mode, useAVX2)
		}
	}
}

// demoteSingleGateDiagRuns rewrites diagonal runs that ended up covering a
// single qubit (or a lone CZ) into the cheaper block-structured kernels.
func demoteSingleGateDiagRuns(ks []kernel) []kernel {
	for i, k := range ks {
		dk, ok := k.(*diagRunKernel)
		if !ok {
			continue
		}
		if len(dk.steps) == 1 && dk.steps[0].op == dCZ {
			ks[i] = &czKernel{q0: dk.qubits[0], q1: dk.qubits[1]}
			continue
		}
		if len(dk.qubits) != 1 {
			continue
		}
		all1q := true
		for _, st := range dk.steps {
			if st.op == dCZ {
				all1q = false
				break
			}
		}
		if !all1q {
			continue
		}
		q := dk.qubits[0]
		ck := &chainKernel{q: q, bit: 1 << uint(q), ops: dk.ops}
		for _, st := range dk.steps {
			gs := gstep{u: [4]complex128{st.d0, 0, 0, st.d1}}
			switch st.op {
			case dZ:
				gs = gstep{op: sZ, u: [4]complex128{1, 0, 0, -1}}
			case dD1:
				gs.op = sDiag1
			case dD:
				gs.op = sDiag
			}
			ck.steps = append(ck.steps, gs)
		}
		ks[i] = ck
	}
	return ks
}

// mergeAdjacentChains joins neighboring chains on the same qubit (these
// arise from diag-run demotion), so foldChains multiplies them into one
// step.
func mergeAdjacentChains(ks []kernel) []kernel {
	out := ks[:0]
	for _, k := range ks {
		if ck, ok := k.(*chainKernel); ok && len(out) > 0 {
			if pk, ok := out[len(out)-1].(*chainKernel); ok && pk.q == ck.q {
				pk.steps = append(pk.steps, ck.steps...)
				pk.ops += ck.ops
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// ---- numeric folding (FuseNumeric only) ----

// foldChains collapses every multi-step chain into a single generic 2x2
// product.
func foldChains(ks []kernel) []kernel {
	for _, k := range ks {
		if ck, ok := k.(*chainKernel); ok && len(ck.steps) > 1 {
			ck.steps = []gstep{stepProduct(ck.steps)}
		}
	}
	return ks
}

// stepProduct multiplies a chain's steps into one step, tagged diagonal
// when the product is.
func stepProduct(steps []gstep) gstep {
	m00, m01, m10, m11 := steps[0].u[0], steps[0].u[1], steps[0].u[2], steps[0].u[3]
	for _, st := range steps[1:] {
		// later gate multiplies on the left
		u := &st.u
		m00, m01, m10, m11 =
			u[0]*m00+u[1]*m10, u[0]*m01+u[1]*m11,
			u[2]*m00+u[3]*m10, u[2]*m01+u[3]*m11
	}
	st := gstep{op: sGeneric, u: [4]complex128{m00, m01, m10, m11}}
	if m01 == 0 && m10 == 0 {
		if m00 == 1 {
			st.op = sDiag1
		} else {
			st.op = sDiag
		}
	}
	return st
}

// foldDiagRuns merges repeated phases per qubit and cancels CZ pairs
// inside each diagonal run.
func foldDiagRuns(ks []kernel) []kernel {
	for i, k := range ks {
		dk, ok := k.(*diagRunKernel)
		if !ok {
			continue
		}
		var folded []dstep
		for _, st := range dk.steps {
			if st.op == dD2 {
				folded = append(folded, st)
				continue
			}
			if st.op == dCZ {
				dup := -1
				for j, f := range folded {
					if f.op == dCZ && f.mask == st.mask {
						dup = j
						break
					}
				}
				if dup >= 0 {
					folded = append(folded[:dup], folded[dup+1:]...)
				} else {
					folded = append(folded, st)
				}
				continue
			}
			dup := -1
			for j, f := range folded {
				if f.op != dCZ && f.op != dD2 && f.bit == st.bit {
					dup = j
					break
				}
			}
			s0, s1 := diagVals(st)
			if dup >= 0 {
				f0, f1 := diagVals(folded[dup])
				folded[dup] = mkDiagStep(st.bit, f0*s0, f1*s1)
			} else {
				folded = append(folded, mkDiagStep(st.bit, s0, s1))
			}
		}
		// Drop folded steps that became the identity.
		live := folded[:0]
		for _, f := range folded {
			if f.op != dCZ && f.op != dD2 {
				if f0, f1 := diagVals(f); f0 == 1 && f1 == 1 {
					continue
				}
			}
			live = append(live, f)
		}
		if len(live) == 0 {
			ks[i] = &nopKernel{ops: dk.ops}
			continue
		}
		dk.steps = live
	}
	return ks
}

func diagVals(st dstep) (complex128, complex128) {
	switch st.op {
	case dZ:
		return 1, -1
	case dD1:
		return 1, st.d1
	default:
		return st.d0, st.d1
	}
}

func mkDiagStep(bit int, d0, d1 complex128) dstep {
	switch {
	case d0 == 1 && d1 == -1:
		return dstep{op: dZ, bit: bit}
	case d0 == 1:
		return dstep{op: dD1, bit: bit, d0: 1, d1: d1}
	default:
		return dstep{op: dD, bit: bit, d0: d0, d1: d1}
	}
}

// foldDiagTables converts each surviving diagonal run into a precomputed
// phase table: one complex multiply per amplitude regardless of how many
// diagonal gates the run absorbed. Runs on more than 16 qubits (a 1M+
// entry table) stay interpreted.
func foldDiagTables(ks []kernel) []kernel {
	for i, k := range ks {
		dk, ok := k.(*diagRunKernel)
		if !ok || len(dk.qubits) > 16 {
			continue
		}
		if len(dk.steps) < 2 && !(len(dk.steps) == 1 && dk.steps[0].op == dD2) {
			continue
		}
		ks[i] = newDiagTableKernel(dk)
	}
	return ks
}

// as4x4 views a kernel as a 4x4 unitary on an ordered qubit pair, if it
// is one.
func as4x4(k kernel) (q0, q1 int, m [16]complex128, ops int, ok bool) {
	switch t := k.(type) {
	case *twoQKernel:
		return t.q0, t.q1, t.m, t.ops, true
	case *cxKernel:
		mat2Flat(gate.CX().Matrix(), &m)
		return t.ctrl, t.tgt, m, 1, true
	case *czKernel:
		mat2Flat(gate.CZ().Matrix(), &m)
		return t.q0, t.q1, m, 1, true
	case *swapKernel:
		mat2Flat(gate.Swap().Matrix(), &m)
		return t.q0, t.q1, m, 1, true
	}
	return 0, 0, m, 0, false
}

// as2x2 views a kernel as a single 2x2 on one qubit, if it is one.
func as2x2(k kernel) (q int, u [4]complex128, ops int, ok bool) {
	ck, isChain := k.(*chainKernel)
	if !isChain || len(ck.steps) != 1 {
		return 0, u, 0, false
	}
	st := ck.steps[0]
	return ck.q, st.u, ck.ops, true
}

// mul4 returns a·b for flat row-major 4x4 matrices.
func mul4(a, b [16]complex128) [16]complex128 {
	var out [16]complex128
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			var acc complex128
			for j := 0; j < 4; j++ {
				acc += a[r*4+j] * b[j*4+c]
			}
			out[r*4+c] = acc
		}
	}
	return out
}

// embed2 lifts a 2x2 onto one slot of a pair: slot 0 is the matrix MSB
// (q0), slot 1 the LSB (q1).
func embed2(u [4]complex128, slot int) [16]complex128 {
	var out [16]complex128
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			r0, r1 := r>>1, r&1
			c0, c1 := c>>1, c&1
			var v complex128
			if slot == 0 {
				if r1 == c1 {
					v = u[r0*2+c0]
				}
			} else {
				if r0 == c0 {
					v = u[r1*2+c1]
				}
			}
			out[r*4+c] = v
		}
	}
	return out
}

// swapConj returns P·m·P where P is the SWAP permutation: the same
// unitary with the pair's qubit order reversed.
func swapConj(m [16]complex128) [16]complex128 {
	perm := [4]int{0, 2, 1, 3}
	var out [16]complex128
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			out[r*4+c] = m[perm[r]*4+perm[c]]
		}
	}
	return out
}

// foldPairs fuses kernels acting on an overlapping qubit pair into a
// single 4x4 apply. A single-qubit chain folds forward into the first later
// kernel on its qubit (see foldForward); a 1q after a 2q and a 2q after a
// 2q on the same pair fold when adjacent.
func foldPairs(ks []kernel) []kernel {
	var out []kernel
	for i, k := range ks {
		if foldForward(ks, i) {
			continue
		}
		if len(out) > 0 {
			if merged, ok := tryFoldPair(out[len(out)-1], k); ok {
				out[len(out)-1] = merged
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// foldForward folds ks[i], if it is a single-step chain on qubit q, into
// the first later kernel on q: a 4x4 becomes M · embed2(U), a chain its
// 2x2 product with U (which later folds on in turn). The scan crosses only
// kernels on disjoint qubits, at most fuseScanDepth of them, so the chain
// commutes exactly to just before its target. It reports whether ks[i]
// was absorbed and must be dropped.
func foldForward(ks []kernel, i int) bool {
	ck, ok := ks[i].(*chainKernel)
	if !ok || len(ck.steps) != 1 {
		return false
	}
	q, st := ck.q, ck.steps[0]
	for j := i + 1; j < len(ks) && j-i <= fuseScanDepth; j++ {
		if kernelMask(ks[j])&ck.bit == 0 {
			continue
		}
		if next, ok := ks[j].(*chainKernel); ok && next.q == q && len(next.steps) == 1 {
			ks[j] = &chainKernel{q: q, bit: ck.bit, steps: []gstep{stepProduct([]gstep{st, next.steps[0]})}, ops: ck.ops + next.ops}
			return true
		}
		p0, p1, m, ops2, ok := as4x4(ks[j])
		if !ok || (q != p0 && q != p1) {
			return false
		}
		slot := 1
		if q == p0 {
			slot = 0
		}
		ks[j] = &twoQKernel{q0: p0, q1: p1, m: mul4(m, embed2(st.u, slot)), ops: ck.ops + ops2}
		return true
	}
	return false
}

func tryFoldPair(prev, cur kernel) (kernel, bool) {
	if p0, p1, mp, ops1, ok := as4x4(prev); ok {
		// 2q then 1q: fold the 1q in from the left.
		if q, u, ops2, ok2 := as2x2(cur); ok2 && (q == p0 || q == p1) {
			slot := 1
			if q == p0 {
				slot = 0
			}
			return &twoQKernel{q0: p0, q1: p1, m: mul4(embed2(u, slot), mp), ops: ops1 + ops2}, true
		}
		// 2q then 2q on the same unordered pair.
		if c0, c1, mc, ops2, ok2 := as4x4(cur); ok2 {
			if c0 == p0 && c1 == p1 {
				return &twoQKernel{q0: p0, q1: p1, m: mul4(mc, mp), ops: ops1 + ops2}, true
			}
			if c0 == p1 && c1 == p0 {
				return &twoQKernel{q0: p0, q1: p1, m: mul4(swapConj(mc), mp), ops: ops1 + ops2}, true
			}
		}
	}
	return nil, false
}
