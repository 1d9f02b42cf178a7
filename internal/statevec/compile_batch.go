package statevec

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file holds the batched (structure-of-arrays) sweep variants of the
// compiled kernels: one kernel applied across K independent lanes in a
// single pass. Lanes are independent amplitude vectors, so any per-lane
// replay of the serial formulas — in any unit/lane interleaving — is
// bit-identical to running the kernel on each lane alone; what batching
// buys is amortized dispatch, index arithmetic (spread chains, phase-table
// lookups) and scratch reuse across the lanes.
//
// Two loop shapes appear below:
//
//   - lane-outer (chain, diagonal-run and 2q kernels): the serial sweep
//     is already in-register per lane, so the batch variant replays it per
//     lane over the caller's cache-sized unit block. A 2q sweep is a
//     unit routine's assembly (an FMA routine in FuseNumeric programs),
//     which a Go replay could neither match in speed nor, under FMA, in
//     rounding;
//   - lane-inner (phase tables, controlled kernels, kq matrices): the
//     per-unit index math and table lookups are computed once and applied
//     to every lane, which is where the SoA layout genuinely saves work.

// batchBlockAmps is the cache-blocking granule of Program.RunBatch, in
// amplitudes per lane: kernels sweep all K lanes of one ~256 KiB block
// (2^14 complex128) before advancing, keeping per-lane blocks resident
// while the batch walks the lanes.
const batchBlockAmps = 1 << 14

func (k *chainKernel) runBatch(lanes [][]complex128, lo, hi int) {
	for _, amp := range lanes {
		k.run(amp, lo, hi)
	}
}

func (k *diagRunKernel) runBatch(lanes [][]complex128, lo, hi int) {
	for _, amp := range lanes {
		k.run(amp, lo, hi)
	}
}

func (k *diagTableKernel) runBatch(lanes [][]complex128, lo, hi int) {
	tab := k.table
	if k.span >= 0 {
		shift, mask := uint(k.span), k.spanMask
		for i := lo; i < hi; i++ {
			t := tab[i>>shift&mask]
			for _, amp := range lanes {
				amp[i] *= t
			}
		}
		return
	}
	bits := k.bits
	for i := lo; i < hi; i++ {
		p := 0
		for j, b := range bits {
			if i&b != 0 {
				p |= 1 << uint(j)
			}
		}
		t := tab[p]
		for _, amp := range lanes {
			amp[i] *= t
		}
	}
}

func (k *cxKernel) runBatch(lanes [][]complex128, lo, hi int) {
	cb, tb := 1<<uint(k.ctrl), 1<<uint(k.tgt)
	lowb, highb := sort2(cb, tb)
	for u := lo; u < hi; u++ {
		j := spreadBit(spreadBit(u, lowb), highb) | cb
		for _, amp := range lanes {
			amp[j], amp[j|tb] = amp[j|tb], amp[j]
		}
	}
}

func (k *czKernel) runBatch(lanes [][]complex128, lo, hi int) {
	b0, b1 := 1<<uint(k.q0), 1<<uint(k.q1)
	lowb, highb := sort2(b0, b1)
	mask := b0 | b1
	for u := lo; u < hi; u++ {
		j := spreadBit(spreadBit(u, lowb), highb) | mask
		for _, amp := range lanes {
			amp[j] = -amp[j]
		}
	}
}

func (k *swapKernel) runBatch(lanes [][]complex128, lo, hi int) {
	b0, b1 := 1<<uint(k.q0), 1<<uint(k.q1)
	lowb, highb := sort2(b0, b1)
	for u := lo; u < hi; u++ {
		j := spreadBit(spreadBit(u, lowb), highb) | b0
		jk := j ^ b0 ^ b1
		for _, amp := range lanes {
			amp[j], amp[jk] = amp[jk], amp[j]
		}
	}
}

func (k *ccxKernel) runBatch(lanes [][]complex128, lo, hi int) {
	c0, c1, tb := 1<<uint(k.c0), 1<<uint(k.c1), 1<<uint(k.t)
	lb, mb, hb := sort3(c0, c1, tb)
	set := c0 | c1
	for u := lo; u < hi; u++ {
		j := spreadBit(spreadBit(spreadBit(u, lb), mb), hb) | set
		for _, amp := range lanes {
			amp[j], amp[j|tb] = amp[j|tb], amp[j]
		}
	}
}

func (k *twoQKernel) runBatch(lanes [][]complex128, lo, hi int) {
	for _, amp := range lanes {
		k.run(amp, lo, hi)
	}
}

func (k *kqKernel) runBatch(lanes [][]complex128, lo, hi int) {
	kk := len(k.qubits)
	sub := 1 << uint(kk)
	scratchIn := make([]complex128, sub)
	scratchOut := make([]complex128, sub)
	idx := make([]int, sub)
	for u := lo; u < hi; u++ {
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
		}
		for _, amp := range lanes {
			for v := 0; v < sub; v++ {
				scratchIn[v] = amp[idx[v]]
			}
			k.m.MulVec(scratchOut, scratchIn)
			for v := 0; v < sub; v++ {
				amp[idx[v]] = scratchOut[v]
			}
		}
	}
}

func (k *nopKernel) runBatch(lanes [][]complex128, lo, hi int) {}

// RunBatch applies layers [from, to) to K independent states given as
// per-lane amplitude slices (statevec.BatchState.LaneAmps, or any slice of
// full-width amplitude vectors). Each compiled kernel sweeps all K lanes
// across cache-sized unit blocks before the next kernel starts; per-lane
// arithmetic is exactly RunSerial's, so results are bit-identical to
// running each lane alone in any fusion mode.
//
// The return value is the segment's logical op count per lane — the caller
// accounts it once per lane it executes. A recorder observes K logical
// kernel sweeps per kernel (a batched sweep over K states is K sweeps, so
// obs.KernelSweeps matches per-state accounting exactly) plus one batched
// sweep per kernel under obs.BatchSweeps.
func (p *Program) RunBatch(amps [][]complex128, from, to int) int {
	dim := 1 << uint(p.n)
	for _, amp := range amps {
		if len(amp) != dim {
			panic(fmt.Sprintf("statevec: program compiled for %d qubits run on batch lane of %d amplitudes", p.n, len(amp)))
		}
	}
	seg := p.segment(from, to)
	if len(amps) == 0 {
		return seg.ops
	}
	rec := p.opt.Recorder
	for _, k := range seg.kernels {
		units := k.units(dim)
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		if units > 0 {
			block := batchBlockAmps / (dim / units)
			if block < 1 {
				block = 1
			}
			for lo := 0; lo < units; lo += block {
				hi := lo + block
				if hi > units {
					hi = units
				}
				k.runBatch(amps, lo, hi)
			}
		}
		if rec != nil {
			// One batched sweep is K logical sweeps; attribute the wall
			// time equally so the histogram count matches the counter.
			per := int64(time.Since(t0)) / int64(len(amps))
			for range amps {
				rec.Observe(obs.HistKernelSweep, per)
			}
		}
	}
	if rec != nil {
		rec.Add(obs.KernelSweeps, int64(len(seg.kernels)*len(amps)))
		rec.Add(obs.BatchSweeps, int64(len(seg.kernels)))
		rec.Observe(obs.HistBatchLanes, int64(len(amps)))
	}
	return seg.ops
}
