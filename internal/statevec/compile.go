package statevec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/qmath"
	"repro/internal/trace"
)

// This file implements the kernel-compilation layer: a circuit is lowered
// once into a Program of fused kernels, and every Monte Carlo trial (and
// every worker) replays the compiled kernels instead of re-dispatching
// gate-by-gate. Injected Pauli errors are not part of the program — they
// stay individual ApplyPauli calls between layer ranges — so the paper's
// basic-operation accounting is untouched: Run returns the number of
// *logical* circuit ops in the executed range (including identity gates,
// which are counted but compiled away), never the number of kernels.
//
// Two fusion modes exist because the differential harness compares final
// states by Float64bits:
//
//   - FuseOff lowers one kernel per op, each sweeping exactly the routine
//     dispatch would, so the result is bit-identical to gate-by-gate
//     ApplyOp. Reverse execution (the uncompute and adaptive restore
//     policies) exists only on compiled programs, and runs FuseOff
//     programs for the dispatch path.
//
//   - FuseNumeric folds matrices algebraically: single-qubit runs collapse
//     to one 2x2 product, diagonal runs collapse to one phase per touched
//     qubit (or one phase table), and adjacent gates on an overlapping
//     qubit pair fold into a single 4x4. This changes rounding
//     (fl(VU)·a ≠ V·(U·a) in general), so it is mathematically equivalent
//     within ~1 ulp per fold but not bit-identical; it is validated against
//     brute-force Kronecker products and kept out of the bit-exact
//     differential registry.
//
// Every segment runs through one serial sweep path (execSeg); the subtree
// executor's worker pool is the only parallelism.

// FuseMode selects how CompileWith fuses adjacent gates.
type FuseMode int

const (
	// FuseOff lowers one kernel per circuit op.
	FuseOff FuseMode = iota
	// FuseNumeric folds matrices algebraically: fastest, equivalent
	// within rounding, not bit-identical.
	FuseNumeric
)

// Deprecated: exact sweep fusion is removed. FuseExact promised output
// bit-identical to dispatch, which FuseOff keeps.
const FuseExact = FuseOff

// String names the mode as the CLI spells it.
func (m FuseMode) String() string {
	switch m {
	case FuseOff:
		return "off"
	case FuseNumeric:
		return "numeric"
	default:
		return fmt.Sprintf("fuse(%d)", int(m))
	}
}

// ParseFuseMode parses the CLI spelling of a fusion mode.
func ParseFuseMode(s string) (FuseMode, error) {
	switch s {
	case "off":
		return FuseOff, nil
	case "numeric":
		return FuseNumeric, nil
	}
	return FuseOff, fmt.Errorf("unknown fuse mode %q (off, numeric)", s)
}

// CompileOptions configures CompileWith.
type CompileOptions struct {
	// Fuse selects the fusion mode.
	Fuse FuseMode
	// Recorder, when non-nil, counts kernel sweeps (obs.KernelSweeps) at
	// one Add per Run call and times each sweep (obs.HistKernelSweep).
	// It never affects the logical-op counts Run returns.
	Recorder obs.Recorder
	// Span, when non-nil, parents one "segment_compile" span per
	// segment-cache miss (tagged miss vs. collision, forward vs.
	// reverse). Segments compile lazily during execution, so callers
	// pass the span that covers the whole execute phase; cache hits
	// open no span, keeping the span count reconcilable against
	// obs.SegCacheMisses exactly.
	Span *trace.Span
}

// loweredOp is one circuit op captured at compile time.
type loweredOp struct {
	g      gate.Gate
	qubits []int
}

// segment is the compiled form of a half-open layer range.
type segment struct {
	kernels []kernel
	ops     int // logical circuit ops in the range, identity gates included
}

type segKey struct{ from, to int }

// Program is a circuit compiled into fused kernels. Programs are
// immutable after creation apart from the internal segment cache, and are
// safe for concurrent use by any number of goroutines: plan executors
// share one Program across all trials and workers.
type Program struct {
	n          int
	layers     [][]loweredOp
	layerHash  []uint64 // per-layer content digests for the cross-program segment cache
	layerExact []bool   // per-layer: every op is exactly invertible (see ExactlyInvertible)
	opt        CompileOptions

	mu      sync.RWMutex
	segs    map[segKey]*segment
	revSegs map[segKey]*segment // reverse lowerings, cached like forward segments
}

// CompileWith lowers the circuit with explicit options. The circuit's
// layer structure and ops are snapshotted; later mutation of the circuit
// does not affect the program.
func CompileWith(c *circuit.Circuit, opt CompileOptions) *Program {
	layers := c.Layers()
	ops := c.Ops()
	p := &Program{
		n:       c.NumQubits(),
		layers:  make([][]loweredOp, len(layers)),
		opt:     opt,
		segs:    make(map[segKey]*segment),
		revSegs: make(map[segKey]*segment),
	}
	for l, idxs := range layers {
		lops := make([]loweredOp, len(idxs))
		for i, oi := range idxs {
			op := ops[oi]
			lops[i] = loweredOp{g: op.Gate, qubits: append([]int(nil), op.Qubits...)}
		}
		p.layers[l] = lops
	}
	p.layerHash = make([]uint64, len(p.layers))
	p.layerExact = make([]bool, len(p.layers))
	for l, lops := range p.layers {
		p.layerHash[l] = hashLayer(lops)
		exact := true
		for _, op := range lops {
			if !ExactlyInvertible(op.g) {
				exact = false
				break
			}
		}
		p.layerExact[l] = exact
	}
	return p
}

// NumQubits returns the register width the program was compiled for.
func (p *Program) NumQubits() int { return p.n }

// NumLayers returns the number of circuit layers.
func (p *Program) NumLayers() int { return len(p.layers) }

// Options returns the compile options.
func (p *Program) Options() CompileOptions { return p.opt }

// Run applies layers [from, to) to the state and returns the number of
// logical circuit ops that represents.
func (p *Program) Run(s *State, from, to int) int {
	p.checkState(s)
	return p.execSeg(p.segment(from, to), s)
}

// execSeg applies one compiled segment to the state and returns the
// segment's logical-op count.
func (p *Program) execSeg(seg *segment, s *State) int {
	amp := s.amp
	if rec := p.opt.Recorder; rec != nil {
		// Recorder path times every sweep individually; the nil path
		// below stays untimed so benchmarks see zero overhead.
		for _, k := range seg.kernels {
			t0 := time.Now()
			k.run(amp)
			rec.Observe(obs.HistKernelSweep, int64(time.Since(t0)))
		}
		rec.Add(obs.KernelSweeps, int64(len(seg.kernels)))
		return seg.ops
	}
	for _, k := range seg.kernels {
		k.run(amp)
	}
	return seg.ops
}

// RunAll applies the whole circuit.
func (p *Program) RunAll(s *State) int { return p.Run(s, 0, len(p.layers)) }

func (p *Program) checkState(s *State) {
	if s.n != p.n {
		panic(fmt.Sprintf("statevec: program compiled for %d qubits run on %d-qubit state", p.n, s.n))
	}
}

// segment returns the compiled kernels for layers [from, to), compiling
// and caching on first use. Plans advance between arbitrary layer
// boundaries, but the same ranges recur across every trial and branch, so
// each distinct range is lowered exactly once per program.
func (p *Program) segment(from, to int) *segment {
	if from < 0 || to > len(p.layers) || from > to {
		panic(fmt.Sprintf("statevec: segment [%d,%d) outside [0,%d]", from, to, len(p.layers)))
	}
	key := segKey{from, to}
	p.mu.RLock()
	seg := p.segs[key]
	p.mu.RUnlock()
	if seg != nil {
		return seg
	}
	// Cross-program content lookup: any program whose [from, to) range
	// lowers to identical kernels (same gates, same floats, same fusion
	// mode) shares the one compiled segment. Hits are verified against
	// cheap content discriminators; a 64-bit digest collision falls back
	// to a private compile without publishing.
	ck := p.contentKey(from, to)
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
		csp := compileSpan(p.opt.Span, "forward", from, to, collided)
		ks, ops := lowerSegment(p.layers, from, to, p.opt.Fuse)
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
	if prior := p.segs[key]; prior != nil {
		p.mu.Unlock()
		return prior
	}
	p.segs[key] = seg
	p.mu.Unlock()
	return seg
}

// compileSpan opens one segment-compile span under the execute-phase
// parent. Nil parent (tracing off) returns nil, which absorbs all use.
// Called only on the miss path so that the number of "segment_compile"
// spans in a trace equals the obs.SegCacheMisses the run recorded.
func compileSpan(parent *trace.Span, dir string, from, to int, collided bool) *trace.Span {
	if parent == nil {
		return nil
	}
	cache := "miss"
	if collided {
		cache = "collision"
	}
	return parent.Child("segment_compile",
		trace.String("dir", dir),
		trace.Int("from", int64(from)),
		trace.Int("to", int64(to)),
		trace.String("cache", cache))
}

// SegmentOps returns the logical-op count of layers [from, to) without
// executing anything.
func (p *Program) SegmentOps(from, to int) int { return p.segment(from, to).ops }

// KernelInfo describes one compiled kernel for tests and analysis.
// Qubits uses the gate library's convention: Qubits[0] is the
// most-significant bit of Matrix's index. Nop kernels (fully cancelled
// fusions in numeric mode) have no matrix.
type KernelInfo struct {
	Kind   string
	Qubits []int
	Ops    int
	Matrix qmath.Matrix
}

// SegmentKernels returns descriptions of the compiled kernels for layers
// [from, to), in application order.
func (p *Program) SegmentKernels(from, to int) []KernelInfo {
	seg := p.segment(from, to)
	infos := make([]KernelInfo, len(seg.kernels))
	for i, k := range seg.kernels {
		infos[i] = k.info()
	}
	return infos
}
