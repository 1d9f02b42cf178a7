package statevec

import (
	"math"
	"sync"
	"sync/atomic"
)

// Content-addressed segment sharing. The per-Program segment cache keys
// compiled kernels by plan identity — the (from, to) layer range within
// one Program — so two Programs lowered from identical circuits each pay
// the full lowering cost. That redundancy dominates batch workloads: a
// PEC/ZNE batch's per-variant reference plans, every difftest executor,
// and every repeated harness scenario compile the same circuit again.
//
// This cache keys segments by *content* instead: a 64-bit FNV-1a digest
// of the lowered ops in the range (gate name, params, qubit list, and the
// matrix entries bit-by-bit — everything that determines the kernels and
// their exact floating-point behavior), together with the fusion mode and
// register width. Any Program whose [from, to) range lowers to the same
// content reuses the one compiled segment. Segments are immutable and
// kernels are stateless over the amplitude slice they are run on, so
// sharing is safe across programs and goroutines.
//
// The cache is process-global. Two properties matter for long-running
// processes (cmd/qsimd) that a one-shot CLI run never exercised:
//
//   - Bounded growth. An unbounded map grows with every distinct circuit
//     a daemon ever serves. SetSegmentCacheCapacity bounds the entry
//     count; eviction is second-chance (clock): every hit sets a
//     reference bit, the clock hand clears bits until it finds an
//     unreferenced entry and evicts it. The default capacity is
//     unbounded, preserving one-shot behavior.
//
//   - Verified hits. A 64-bit digest can collide, and a collision would
//     silently hand one tenant's compiled kernels to another tenant's
//     different circuit. Every entry therefore stores cheap
//     discriminators of the content that produced it — the layer count
//     and the lowered-op count of the range — and a hit is served only
//     when they match the requesting program's range. A mismatch is
//     counted as a collision and the requester compiles privately
//     (without publishing: the key is poisoned for its content).
//
// ResetSegmentCache exists for tests and for long-lived processes that
// switch workloads.

// segContentKey identifies a compiled segment by what it computes, not
// where it came from. The rev bit distinguishes the reverse lowering of a
// range (layer order reversed, ops reversed within each layer, every gate
// replaced by its dagger) from the forward one: the reverse content is
// fully determined by the forward content, so the same forward digest
// serves both directions.
type segContentKey struct {
	fuse FuseMode
	n    int // register width, out of caution (kernels are width-agnostic by construction)
	rev  bool
	hash uint64
}

// segDiscriminators are the cheap content properties a requester can
// compute without lowering, checked on every hit to reject 64-bit digest
// collisions. Layer count and lowered-op count are independent of the
// digest chain, so two ranges that collide in FNV-1a still disagree here
// unless they are structurally near-identical.
type segDiscriminators struct {
	layers int // range length, to - from
	ops    int // lowered ops in the range (identity gates included)
}

// segEntry is one cached segment plus its verification discriminators and
// second-chance reference bit. The ref bit is atomic so hits (read lock)
// can set it while the clock hand (write lock) clears it.
type segEntry struct {
	seg  *segment
	disc segDiscriminators
	ref  atomic.Bool
}

var (
	segShareMu    sync.RWMutex
	segShare      = make(map[segContentKey]*segEntry)
	segRing       []segContentKey // clock ring over the cached keys
	segHand       int             // clock hand index into segRing
	segCap        int             // max entries; 0 = unbounded
	segHits       atomic.Int64
	segMisses     atomic.Int64
	segEvictions  atomic.Int64
	segCollisions atomic.Int64
)

// SegmentCacheStats returns the cumulative hit and miss counts of the
// content-addressed segment cache since process start (or the last
// ResetSegmentCache). A collision-rejected lookup counts as a miss (the
// requester lowers privately).
func SegmentCacheStats() (hits, misses int64) {
	return segHits.Load(), segMisses.Load()
}

// SegmentCacheEvictions returns the number of entries the bounded cache
// has evicted since process start (or the last ResetSegmentCache).
func SegmentCacheEvictions() int64 { return segEvictions.Load() }

// SegmentCacheCollisions returns the number of lookups that matched a
// 64-bit content digest but failed discriminator verification.
func SegmentCacheCollisions() int64 { return segCollisions.Load() }

// SegmentCacheSize returns the current number of cached segments.
func SegmentCacheSize() int {
	segShareMu.RLock()
	defer segShareMu.RUnlock()
	return len(segShare)
}

// SetSegmentCacheCapacity bounds the content-addressed segment cache to
// at most cap entries (0 restores the unbounded default) and returns the
// previous capacity. Shrinking below the current size evicts immediately.
// Long-running processes serving varied circuits should set a bound; the
// working set of a one-shot run is its distinct circuit content, so the
// CLIs leave it unbounded.
func SetSegmentCacheCapacity(capacity int) int {
	if capacity < 0 {
		capacity = 0
	}
	segShareMu.Lock()
	defer segShareMu.Unlock()
	prev := segCap
	segCap = capacity
	if segCap > 0 {
		for len(segShare) > segCap {
			evictLocked()
		}
	}
	return prev
}

// SegmentCacheCapacity returns the configured capacity (0 = unbounded).
func SegmentCacheCapacity() int {
	segShareMu.RLock()
	defer segShareMu.RUnlock()
	return segCap
}

// ResetSegmentCache empties the content-addressed segment cache and
// zeroes its statistics. The configured capacity survives. Intended for
// tests and for long-lived processes that switch workloads.
func ResetSegmentCache() {
	segShareMu.Lock()
	segShare = make(map[segContentKey]*segEntry)
	segRing = nil
	segHand = 0
	segShareMu.Unlock()
	segHits.Store(0)
	segMisses.Store(0)
	segEvictions.Store(0)
	segCollisions.Store(0)
}

// segmentCacheLen returns the number of cached segments (test hook).
func segmentCacheLen() int { return SegmentCacheSize() }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashBytes folds a byte slice into an FNV-1a digest.
func hashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// hashU64 folds one 64-bit word, byte by byte, into an FNV-1a digest.
func hashU64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ (v >> s & 0xff)) * fnvPrime64
	}
	return h
}

// hashLayer digests one lowered layer: every op's gate identity (name and
// parameters), qubit list, and full matrix, in order. Matrix entries are
// hashed by their exact float bit patterns because FuseOff's guarantee
// is bit-identity: two gates are interchangeable only if every float they
// contribute is identical.
func hashLayer(ops []loweredOp) uint64 {
	h := uint64(fnvOffset64)
	h = hashU64(h, uint64(len(ops)))
	for _, op := range ops {
		h = hashBytes(h, []byte(op.g.Name()))
		ps := op.g.Params()
		h = hashU64(h, uint64(len(ps)))
		for _, p := range ps {
			h = hashU64(h, math.Float64bits(p))
		}
		h = hashU64(h, uint64(len(op.qubits)))
		for _, q := range op.qubits {
			h = hashU64(h, uint64(q))
		}
		m := op.g.Matrix()
		d := m.Dim()
		h = hashU64(h, uint64(d))
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				e := m.At(i, j)
				h = hashU64(h, math.Float64bits(real(e)))
				h = hashU64(h, math.Float64bits(imag(e)))
			}
		}
	}
	return h
}

// contentKey digests layers [from, to) of the program by chaining the
// precomputed per-layer hashes (layer boundaries matter to fusion, so the
// chain is over whole layers, not a flat op stream).
func (p *Program) contentKey(from, to int) segContentKey {
	h := uint64(fnvOffset64)
	for l := from; l < to; l++ {
		h = hashU64(h, p.layerHash[l])
	}
	return segContentKey{fuse: p.opt.Fuse, n: p.n, hash: h}
}

// contentKeyRev is contentKey for the reverse lowering of the same range.
// The reverse content is a pure function of the forward content, so the
// forward digest plus the direction bit addresses it. The discriminators
// of the reverse range equal the forward ones (reversal permutes ops, it
// does not add or remove any).
func (p *Program) contentKeyRev(from, to int) segContentKey {
	ck := p.contentKey(from, to)
	ck.rev = true
	return ck
}

// discriminators computes the verification discriminators of layers
// [from, to) without lowering anything: O(layers) slice-length sums.
func (p *Program) discriminators(from, to int) segDiscriminators {
	ops := 0
	for l := from; l < to; l++ {
		ops += len(p.layers[l])
	}
	return segDiscriminators{layers: to - from, ops: ops}
}

// sharedSegment looks up a content key in the global cache and verifies
// the stored discriminators against the requester's. It returns the
// segment on a verified hit; (nil, true) when the digest matched but the
// discriminators did not (a 64-bit collision — the caller must compile
// privately and must not publish under this key); and (nil, false) on a
// plain miss.
func sharedSegment(ck segContentKey, disc segDiscriminators) (*segment, bool) {
	segShareMu.RLock()
	e := segShare[ck]
	segShareMu.RUnlock()
	if e == nil {
		return nil, false
	}
	if e.disc != disc {
		segCollisions.Add(1)
		return nil, true
	}
	e.ref.Store(true)
	return e.seg, false
}

// publishSegment stores a freshly lowered segment under its content key,
// returning the winner if another goroutine published the same content
// first (both lowered identical kernels; keeping one maximizes sharing)
// and the number of entries evicted to make room. When the prior entry
// under the key has different discriminators — a collision discovered at
// publish time — the caller's segment is returned unpublished.
func publishSegment(ck segContentKey, disc segDiscriminators, seg *segment) (*segment, int64) {
	segShareMu.Lock()
	defer segShareMu.Unlock()
	if prior := segShare[ck]; prior != nil {
		if prior.disc != disc {
			segCollisions.Add(1)
			return seg, 0
		}
		return prior.seg, 0
	}
	var evicted int64
	if segCap > 0 {
		for len(segShare) >= segCap {
			evictLocked()
			evicted++
		}
	}
	e := &segEntry{seg: seg, disc: disc}
	segShare[ck] = e
	segRing = append(segRing, ck)
	return seg, evicted
}

// evictLocked removes one entry chosen by the second-chance clock sweep:
// advance the hand, clearing reference bits, until an unreferenced entry
// is found. Ring slots whose key was already removed (stale after a
// previous eviction swap) are compacted on the way. Caller holds the
// write lock; the cache must be non-empty.
func evictLocked() {
	for {
		if len(segRing) == 0 {
			return
		}
		if segHand >= len(segRing) {
			segHand = 0
		}
		k := segRing[segHand]
		e := segShare[k]
		if e == nil {
			// Stale slot: the key was displaced earlier; drop the slot.
			segRing[segHand] = segRing[len(segRing)-1]
			segRing = segRing[:len(segRing)-1]
			continue
		}
		if e.ref.Load() {
			e.ref.Store(false)
			segHand++
			continue
		}
		delete(segShare, k)
		segRing[segHand] = segRing[len(segRing)-1]
		segRing = segRing[:len(segRing)-1]
		segEvictions.Add(1)
		return
	}
}
