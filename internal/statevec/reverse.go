package statevec

import (
	"fmt"

	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Reverse execution: a compiled program can run a layer range backwards,
// applying the dagger of every gate in reverse order, which rolls a state
// that has been advanced through [from, to) back to where it was at layer
// `from`. The uncompute executor in internal/sim uses this as a
// near-zero-memory alternative to snapshot/restore.
//
// Reverse segments are lowered through the same fusion pipeline as
// forward segments — the reversed layer list is handed to lowerSegment —
// and cached both per-program and in the content-addressed global cache,
// keyed by the forward content digest plus a direction bit.
//
// Bit-exactness: reverse execution undoes forward execution bit-for-bit
// only when every op in the range is exactly invertible (see
// ExactlyInvertible) and fusion is off. Those gates lower to pure
// amplitude swaps and sign flips, both of which are exact in IEEE 754
// (including signed zeros), so the composition reverse(forward(x)) == x
// for every bit pattern. Gates whose kernels multiply (H, S/T phases, Y,
// rotations, customs) round: their round trip is only accurate to ~1 ulp
// per op and the uncompute executor must not use reverse execution for
// them on the bit-exact path.

// ExactlyInvertible reports whether applying g and then gate.Dagger(g)
// returns every amplitude bit-for-bit identical on any state. True only
// for the signed-permutation gates — I, X, Z, CX, CZ, Swap, CCX — whose
// kernels exclusively swap amplitudes and flip signs (exact IEEE
// operations). Gates involving genuine multiplication (H, Y, S/Sdg,
// T/Tdg, SX, rotations, U-gates, customs) are excluded: a multiply by
// ±i or 1/√2 rounds, and even exact ±1 diagonal factors can flip the
// sign of zero through complex-multiply cross terms.
func ExactlyInvertible(g gate.Gate) bool {
	switch g.Kind() {
	case gate.KindI, gate.KindX, gate.KindZ, gate.KindCX, gate.KindCZ, gate.KindSwap, gate.KindCCX:
		return true
	}
	return false
}

// ExactlyInvertiblePauli reports whether injecting p and then injecting
// it again (Paulis are self-inverse) round-trips bit-exactly. X is an
// amplitude swap and Z a sign flip — both exact; Y multiplies by ±i,
// which moves zeros through 0·r cross terms and is excluded.
func ExactlyInvertiblePauli(p gate.Pauli) bool {
	return p == gate.PauliX || p == gate.PauliZ
}

// SegmentExactlyInvertible reports whether every op in layers [from, to)
// is exactly invertible, i.e. whether RunReverse undoes Run bit-for-bit
// on this range (under FuseOff).
func (p *Program) SegmentExactlyInvertible(from, to int) bool {
	if from < 0 || to > len(p.layers) || from > to {
		panic(fmt.Sprintf("statevec: segment [%d,%d) outside [0,%d]", from, to, len(p.layers)))
	}
	for l := from; l < to; l++ {
		if !p.layerExact[l] {
			return false
		}
	}
	return true
}

// reverseSegment returns the compiled reverse of layers [from, to),
// lowering and caching on first use exactly like the forward segment
// cache.
func (p *Program) reverseSegment(from, to int) *segment {
	if from < 0 || to > len(p.layers) || from > to {
		panic(fmt.Sprintf("statevec: segment [%d,%d) outside [0,%d]", from, to, len(p.layers)))
	}
	key := segKey{from, to}
	p.mu.RLock()
	seg := p.revSegs[key]
	p.mu.RUnlock()
	if seg != nil {
		return seg
	}
	ck := p.contentKeyRev(from, to)
	disc := p.discriminators(from, to)
	rec := p.opt.Recorder
	shared, collided := sharedSegment(ck, disc)
	if shared != nil {
		seg = shared
		segHits.Add(1)
		if rec != nil {
			rec.Add(obs.SegCacheHits, 1)
		}
	} else {
		segMisses.Add(1)
		if rec != nil {
			rec.Add(obs.SegCacheMisses, 1)
			if collided {
				rec.Add(obs.SegCacheCollisions, 1)
			}
		}
		csp := compileSpan(p.opt.Span, "reverse", from, to, collided)
		rev := reverseLayers(p.layers[from:to])
		ks, ops := lowerSegment(rev, 0, len(rev), p.opt.Fuse)
		seg = &segment{kernels: ks, ops: ops}
		if !collided {
			var evicted int64
			seg, evicted = publishSegment(ck, disc, seg)
			if rec != nil && evicted > 0 {
				rec.Add(obs.SegCacheEvictions, evicted)
			}
		}
		csp.SetAttr(trace.Int("kernels", int64(len(seg.kernels))))
		csp.End()
	}
	p.mu.Lock()
	if prior := p.revSegs[key]; prior != nil {
		p.mu.Unlock()
		return prior
	}
	p.revSegs[key] = seg
	p.mu.Unlock()
	return seg
}

// reverseLayers builds the layer list of the adjoint circuit fragment:
// layer order reversed, ops reversed within each layer, every gate
// replaced by its dagger. Ops within one layer touch disjoint qubits, so
// reversing their order changes nothing semantically; it keeps the
// lowering symmetric with the forward direction.
func reverseLayers(layers [][]loweredOp) [][]loweredOp {
	rev := make([][]loweredOp, len(layers))
	for i, lops := range layers {
		rl := make([]loweredOp, len(lops))
		for j, op := range lops {
			rl[len(lops)-1-j] = loweredOp{g: gate.Dagger(op.g), qubits: op.qubits}
		}
		rev[len(layers)-1-i] = rl
	}
	return rev
}

// CompileReverse lowers (or fetches from cache) the reverse of layers
// [from, to) and returns its logical-op count, which always equals the
// forward SegmentOps of the same range. Executors call it once up front
// so the first rollback does not pay lowering latency.
func (p *Program) CompileReverse(from, to int) int {
	return p.reverseSegment(from, to).ops
}

// RunReverse applies the adjoint of layers [from, to) to the state —
// undoing a prior Run(s, from, to) — and returns the number of logical
// ops that represents (equal to the forward count of the range).
func (p *Program) RunReverse(s *State, from, to int) int {
	p.checkState(s)
	return p.execSeg(p.reverseSegment(from, to), s)
}

// ReverseSegmentKernels returns descriptions of the compiled reverse
// kernels for layers [from, to), in application order (test hook).
func (p *Program) ReverseSegmentKernels(from, to int) []KernelInfo {
	seg := p.reverseSegment(from, to)
	infos := make([]KernelInfo, len(seg.kernels))
	for i, k := range seg.kernels {
		infos[i] = k.info()
	}
	return infos
}
