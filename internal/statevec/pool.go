package statevec

import (
	"sync"
	"sync/atomic"
)

// BufferPool is a size-classed arena of amplitude buffers shared by every
// consumer of 2^n-sized storage in a run: snapshot stacks, subtree entry
// clones and uncompute journal frames. One pool serves all goroutines of
// a run (the trunk clones entry states that workers later release, so
// per-goroutine free lists would strand buffers); after warm-up every
// acquisition is a free-list pop and the steady-state hot loop performs
// zero heap allocations. Reuse within one goroutine does not come here: a
// plan walk (internal/sim) keeps the registers its pops discard as spares for its
// next pushes and returns them when its plan, trunk or task ends, so the
// pool sees a walk's first draws and the cross-goroutine entry clones,
// and its hit and miss counts measure that traffic only.
//
// Each size class retains at most a bounded number of idle buffers
// (DefaultPoolRetain unless NewBufferPoolRetain says otherwise); releases
// beyond the cap are dropped to the GC and counted in Drops. Without the
// cap, a long-lived arena serving mixed job sizes — the cmd/qsimd daemon —
// retains the high-water mark of every size class it ever saw, forever.
// The cap is far above the steady-state working set of a single run, so
// one-shot behavior (and the steady-state allocation contract that
// internal/sim's TestSteadyStateAllocsFlatAcrossWorkers checks) is
// unchanged.
//
// Buffers come back with unspecified contents — callers overwrite them via
// CopyFrom or Reset. The zero value is not usable; use NewBufferPool.
type BufferPool struct {
	mu     sync.Mutex
	retain int
	bufs   map[int][][]complex128 // raw buffers by length
	states map[int][]*State       // state registers by qubit count
	hits   atomic.Int64
	misses atomic.Int64
	drops  atomic.Int64
}

// DefaultPoolRetain is the default per-size-class retention cap: the
// maximum number of idle buffers (or states) one size
// class keeps. A run's concurrent buffer demand is bounded by its MSV plus
// per-worker scratch, comfortably below this; the cap only bites when a
// long-lived arena outlives the workload that filled it.
const DefaultPoolRetain = 128

// NewBufferPool returns an empty pool with the default retention cap.
func NewBufferPool() *BufferPool { return NewBufferPoolRetain(DefaultPoolRetain) }

// NewBufferPoolRetain returns an empty pool retaining at most perClass
// idle buffers in each size class. perClass <= 0 means unbounded (the
// pre-cap behavior, for callers that manage lifetime themselves).
func NewBufferPoolRetain(perClass int) *BufferPool {
	return &BufferPool{
		retain: perClass,
		bufs:   make(map[int][][]complex128),
		states: make(map[int][]*State),
	}
}

// full reports whether a size class holding n idle entries is at its
// retention cap. Caller holds mu.
func (p *BufferPool) full(n int) bool { return p.retain > 0 && n >= p.retain }

// Get returns a buffer of exactly size elements with unspecified contents.
func (p *BufferPool) Get(size int) []complex128 {
	p.mu.Lock()
	list := p.bufs[size]
	if n := len(list); n > 0 {
		buf := list[n-1]
		list[n-1] = nil
		p.bufs[size] = list[:n-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return buf
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return make([]complex128, size)
}

// Put returns a buffer to its size class, dropping it when the class is
// at its retention cap. nil is ignored.
func (p *BufferPool) Put(buf []complex128) {
	if buf == nil {
		return
	}
	p.mu.Lock()
	if p.full(len(p.bufs[len(buf)])) {
		p.mu.Unlock()
		p.drops.Add(1)
		return
	}
	p.bufs[len(buf)] = append(p.bufs[len(buf)], buf)
	p.mu.Unlock()
}

// GetState returns an n-qubit state register with unspecified amplitudes
// (callers overwrite via CopyFrom or Reset before reading). Like NewState
// it panics for n outside [1, MaxQubits].
func (p *BufferPool) GetState(n int) *State {
	checkWidth(n)
	p.mu.Lock()
	list := p.states[n]
	if ln := len(list); ln > 0 {
		s := list[ln-1]
		list[ln-1] = nil
		p.states[n] = list[:ln-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return s
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return &State{n: n, amp: make([]complex128, 1<<uint(n))}
}

// PutState returns a state register to the pool, dropping it when the
// class is at its retention cap. nil is ignored.
func (p *BufferPool) PutState(s *State) {
	if s == nil {
		return
	}
	p.mu.Lock()
	if p.full(len(p.states[s.n])) {
		p.mu.Unlock()
		p.drops.Add(1)
		return
	}
	p.states[s.n] = append(p.states[s.n], s)
	p.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts across Get and
// GetState. A miss allocates; a steady-state run shows hits only.
func (p *BufferPool) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// Drops returns the number of releases discarded because their size class
// was at its retention cap.
func (p *BufferPool) Drops() int64 { return p.drops.Load() }

// Retained returns the current number of idle buffers held across all
// size classes (raw buffers + state registers), for
// bound checks and daemon stats.
func (p *BufferPool) Retained() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.bufs {
		n += len(l)
	}
	for _, l := range p.states {
		n += len(l)
	}
	return n
}
