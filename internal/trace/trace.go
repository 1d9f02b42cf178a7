// Package trace is the request-scoped causal-tracing layer: span trees
// with monotonic start/duration, typed attributes, W3C traceparent
// propagation, Chrome trace-event export (Perfetto-loadable) and a
// bounded in-memory ring of finished traces under tail-based sampling.
//
// The design follows the obs.Recorder discipline so tracing never shows
// up on the paper's hot path:
//
//   - Executors hold a *Span that is nil when tracing is off; every
//     method on *Span (Child, SetAttr, Event, End, ...) no-ops on a nil
//     receiver, so an instrumented site costs one nil-check when
//     disabled and Child propagates the nil downward for free.
//   - Spans are opened only at structural boundaries (phases, executor
//     entry, subtree tasks, segment compiles) — never per gate — so a
//     live trace stays small; a per-trace span cap bounds the worst
//     case and drops are counted, never silently absorbed.
//   - Finished traces pass through a tail sampler: errored traces and
//     traces at or above the running p99 duration are always kept,
//     the rest are kept at a configurable rate, and the keep ring is a
//     bounded FIFO — memory is O(ring x span cap) regardless of load.
//
// Like obs metrics, tracing is strictly an observer: executors report
// ops == plan.OptimizedOps() with or without a span attached (the sim
// test suite enforces it).
package trace

import (
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TraceID is a 128-bit W3C trace identifier.
type TraceID [16]byte

// SpanID is a 64-bit W3C span identifier.
type SpanID [8]byte

// String returns the 32-digit lowercase hex form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String returns the 16-digit lowercase hex form.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// SpanContext identifies a position in a distributed trace — the parsed
// form of a traceparent header. The zero value is "no context": Start
// mints a fresh root trace for it.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context carries usable IDs.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one typed span attribute: a string or int64 value under a
// key. Build with String/Int; the zero Attr is ignored on export.
type Attr struct {
	Key   string
	str   string
	num   int64
	isNum bool
}

// String builds a string-valued attribute.
func String(key, val string) Attr { return Attr{Key: key, str: val} }

// Int builds an integer-valued attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, num: val, isNum: true} }

// Value returns the attribute's value as a string or int64.
func (a Attr) Value() any {
	if a.isNum {
		return a.num
	}
	return a.str
}

// SpanEvent is one point-in-time annotation inside a span.
type SpanEvent struct {
	Name  string
	At    time.Time
	Attrs []Attr
}

// Span is one node of a trace's causal tree. All methods are safe on a
// nil receiver (tracing off) and safe for concurrent use: subtree
// workers create sibling spans under the shared trace lock.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	lane   int32 // export thread track: 1 = main, 2+w = pool worker w
	start  time.Time
	end    time.Time // zero until End
	errMsg string
	attrs  []Attr
	events []SpanEvent
}

// Trace is one request's span tree, owned by the Tracer that started
// it. It is mutated under mu until the root span ends, after which it
// is immutable and may sit in the keep ring.
type Trace struct {
	tracer *Tracer
	id     TraceID
	start  time.Time

	mu            sync.Mutex
	root          *Span
	spans         []*Span
	dropped       int64 // child spans refused at the span cap
	droppedEvents int64 // span events refused at the per-span cap
	errored       bool
	done          bool
	dur           time.Duration
	verdict       string // sampling verdict once finished: error|slow|sampled|discarded|dropped
}

// Config parameterizes a Tracer. The zero value is a usable default:
// keep every finished trace (rate 1), ring of 64, 4096 spans per trace,
// 256 events per span.
type Config struct {
	// SampleRate is the keep probability for finished traces that are
	// neither errored nor in the slow tail. 0 means the default (1.0 —
	// keep everything); negative means 0 (keep only errored/slow).
	SampleRate float64
	// RingCap bounds the FIFO of kept traces (0 → 64).
	RingCap int
	// MaxSpans bounds spans per trace; Child returns nil past the cap
	// and the drop is counted (0 → 4096).
	MaxSpans int
	// MaxEvents bounds events per span; excess events are dropped and
	// counted against the trace, apart from its dropped spans (0 → 256).
	MaxEvents int
	// Seed fixes ID generation for deterministic tests (0 → from the
	// wall clock).
	Seed uint64
	// Recorder, when set, mirrors trace/span counters into obs
	// (traces_started/kept/dropped, spans_started/dropped).
	Recorder obs.Recorder
}

// DefaultRingCap is the kept-trace ring bound when Config.RingCap is 0.
const DefaultRingCap = 64

// DefaultMaxSpans is the per-trace span cap when Config.MaxSpans is 0.
const DefaultMaxSpans = 4096

// DefaultMaxEvents is the per-span event cap when Config.MaxEvents is 0.
const DefaultMaxEvents = 256

// tailMinSamples is how many finished traces the duration histogram
// needs before the p99 slow-tail rule activates (below it every
// duration would trivially sit at the estimated tail).
const tailMinSamples = 16

// Tracer starts traces, applies tail-based sampling when they finish
// and retains the kept ones in a bounded ring. A nil *Tracer is valid
// and means tracing is off: Start returns a nil *Span.
type Tracer struct {
	sampleRate float64
	ringCap    int
	maxSpans   int
	maxEvents  int
	seed       uint64
	rec        obs.Recorder

	ctr  atomic.Uint64
	durs obs.Histogram // finished trace durations (ns) → running p99

	started      atomic.Int64
	kept         atomic.Int64
	droppedTr    atomic.Int64
	spans        atomic.Int64
	spansDropped atomic.Int64

	mu   sync.Mutex
	ring []*Trace // finished, kept traces, oldest first
}

// New builds a Tracer from cfg, applying the documented defaults.
func New(cfg Config) *Tracer {
	t := &Tracer{
		sampleRate: cfg.SampleRate,
		ringCap:    cfg.RingCap,
		maxSpans:   cfg.MaxSpans,
		maxEvents:  cfg.MaxEvents,
		seed:       cfg.Seed,
		rec:        cfg.Recorder,
	}
	if t.sampleRate == 0 {
		t.sampleRate = 1
	} else if t.sampleRate < 0 {
		t.sampleRate = 0
	} else if t.sampleRate > 1 {
		t.sampleRate = 1
	}
	if t.ringCap <= 0 {
		t.ringCap = DefaultRingCap
	}
	if t.maxSpans <= 0 {
		t.maxSpans = DefaultMaxSpans
	}
	if t.maxEvents <= 0 {
		t.maxEvents = DefaultMaxEvents
	}
	if t.seed == 0 {
		t.seed = uint64(time.Now().UnixNano())
	}
	return t
}

// splitmix64 is the SplitMix64 finalizer — the same generator the
// harness uses for seed derivation; here it turns a counter into
// well-distributed span/trace IDs without math/rand state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextWord draws one nonzero 64-bit ID word.
func (t *Tracer) nextWord() uint64 {
	for {
		if w := splitmix64(t.seed ^ t.ctr.Add(1)*0x9e3779b97f4a7c15); w != 0 {
			return w
		}
	}
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	w := t.nextWord()
	for i := 0; i < 8; i++ {
		id[i] = byte(w >> (8 * (7 - i)))
	}
	return id
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	hi, lo := t.nextWord(), t.nextWord()
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (8 * (7 - i)))
		id[8+i] = byte(lo >> (8 * (7 - i)))
	}
	return id
}

// Start opens a new trace rooted at a span called name. A valid parent
// context (from an incoming traceparent) is adopted: the trace keeps
// the caller's trace ID and the root span records the remote parent
// span. An invalid or zero context mints a fresh trace ID. On a nil
// Tracer, Start returns nil — the span tree stays disabled downstream.
func (t *Tracer) Start(name string, parent SpanContext, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	tid := parent.TraceID
	var pid SpanID
	if parent.Valid() {
		pid = parent.SpanID
	} else {
		tid = t.newTraceID()
	}
	now := time.Now()
	tr := &Trace{tracer: t, id: tid, start: now}
	sp := &Span{tr: tr, id: t.newSpanID(), parent: pid, name: name, lane: 1, start: now, attrs: attrs}
	tr.root = sp
	tr.spans = []*Span{sp}
	t.started.Add(1)
	t.spans.Add(1)
	if t.rec != nil {
		t.rec.Add(obs.TracesStarted, 1)
		t.rec.Add(obs.SpansStarted, 1)
	}
	return sp
}

// finish applies the tail-sampling verdict to a finished trace and, if
// kept, pushes it onto the bounded ring. Called exactly once, when the
// root span ends (or is discarded).
func (t *Tracer) finish(tr *Trace, discard bool) {
	tr.mu.Lock()
	durNs := tr.dur.Nanoseconds()
	errored := tr.errored
	tr.mu.Unlock()
	verdict := ""
	switch {
	case discard:
		verdict = "discarded"
	case errored:
		verdict = "error"
	case t.durs.Count() >= tailMinSamples && float64(durNs) >= t.durs.Quantile(0.99):
		verdict = "slow"
	case t.sampleHash(tr.id) < t.sampleRate:
		verdict = "sampled"
	}
	// Observe after the verdict so the trace competes against the tail
	// of its predecessors, not against itself.
	t.durs.Observe(durNs)
	tr.mu.Lock()
	tr.verdict = verdict
	if verdict == "" {
		tr.verdict = "dropped"
	}
	tr.mu.Unlock()
	if verdict == "" || discard {
		t.droppedTr.Add(1)
		if t.rec != nil {
			t.rec.Add(obs.TracesDropped, 1)
		}
		return
	}
	t.kept.Add(1)
	if t.rec != nil {
		t.rec.Add(obs.TracesKept, 1)
	}
	t.mu.Lock()
	t.ring = append(t.ring, tr)
	if len(t.ring) > t.ringCap {
		over := len(t.ring) - t.ringCap
		copy(t.ring, t.ring[over:])
		for i := len(t.ring) - over; i < len(t.ring); i++ {
			t.ring[i] = nil
		}
		t.ring = t.ring[:len(t.ring)-over]
	}
	t.mu.Unlock()
}

// sampleHash maps a trace ID to [0, 1) deterministically, so the keep
// decision for a given rate is a pure function of the ID.
func (t *Tracer) sampleHash(id TraceID) float64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w = w<<8 | uint64(id[8+i])
	}
	return float64(splitmix64(w)>>11) / float64(1<<53)
}

// Summary is one kept trace's listing entry (GET /v1/traces).
type Summary struct {
	TraceID     string `json:"trace_id"`
	Root        string `json:"root"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurationNs  int64  `json:"duration_ns"`
	Spans       int    `json:"spans"`
	Dropped     int64  `json:"dropped_spans,omitempty"`
	Error       bool   `json:"error,omitempty"`
	Verdict     string `json:"verdict"`
}

// Traces lists the kept ring, oldest first. Nil-safe.
func (t *Tracer) Traces() []Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ring := make([]*Trace, len(t.ring))
	copy(ring, t.ring)
	t.mu.Unlock()
	out := make([]Summary, 0, len(ring))
	for _, tr := range ring {
		out = append(out, tr.Summary())
	}
	return out
}

// Get returns a kept trace by its 32-hex-digit ID. Nil-safe.
func (t *Tracer) Get(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ring) - 1; i >= 0; i-- {
		if t.ring[i].id.String() == id {
			return t.ring[i], true
		}
	}
	return nil, false
}

// Stats is a Tracer health snapshot (served in qsimd's /v1/stats).
type Stats struct {
	Started      int64 `json:"started"`
	Kept         int64 `json:"kept"`
	Dropped      int64 `json:"dropped"`
	Spans        int64 `json:"spans"`
	SpansDropped int64 `json:"spans_dropped"`
	Ring         int   `json:"ring"`
}

// Stats returns the tracer's lifetime counters. Nil-safe.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	ring := len(t.ring)
	t.mu.Unlock()
	return Stats{
		Started:      t.started.Load(),
		Kept:         t.kept.Load(),
		Dropped:      t.droppedTr.Load(),
		Spans:        t.spans.Load(),
		SpansDropped: t.spansDropped.Load(),
		Ring:         ring,
	}
}

// ID returns the trace's 32-hex-digit identifier.
func (tr *Trace) ID() string { return tr.id.String() }

// Summary builds the trace's listing entry.
func (tr *Trace) Summary() Summary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return Summary{
		TraceID:     tr.id.String(),
		Root:        tr.root.name,
		StartUnixNs: tr.start.UnixNano(),
		DurationNs:  tr.dur.Nanoseconds(),
		Spans:       len(tr.spans),
		Dropped:     tr.dropped,
		Error:       tr.errored,
		Verdict:     tr.verdict,
	}
}

// Spans returns a snapshot of the trace's spans in creation order.
func (tr *Trace) Spans() []*Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Span, len(tr.spans))
	copy(out, tr.spans)
	return out
}

// Child opens a child span under s. Returns nil when s is nil (tracing
// off) or the trace is at its span cap (the drop is counted) — either
// way the returned span absorbs all use. Safe to call concurrently
// from sibling workers.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	tr := s.tr
	t := tr.tracer
	now := time.Now()
	tr.mu.Lock()
	if len(tr.spans) >= t.maxSpans {
		tr.dropped++
		tr.mu.Unlock()
		t.spansDropped.Add(1)
		if t.rec != nil {
			t.rec.Add(obs.SpansDropped, 1)
		}
		return nil
	}
	sp := &Span{tr: tr, id: t.newSpanID(), parent: s.id, name: name, lane: s.lane, start: now, attrs: attrs}
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	t.spans.Add(1)
	if t.rec != nil {
		t.rec.Add(obs.SpansStarted, 1)
	}
	return sp
}

// SetAttr appends attributes to the span. Nil-safe.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
}

// Event records a point-in-time annotation inside the span, bounded by
// the tracer's per-span event cap. Nil-safe.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	tr := s.tr
	now := time.Now()
	tr.mu.Lock()
	if len(s.events) >= tr.tracer.maxEvents {
		tr.droppedEvents++
		tr.mu.Unlock()
		return
	}
	s.events = append(s.events, SpanEvent{Name: name, At: now, Attrs: attrs})
	tr.mu.Unlock()
}

// SetError marks the span (and therefore its trace) as errored; errored
// traces are always kept by the tail sampler. Nil-safe, nil-error-safe.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.tr.mu.Lock()
	s.errMsg = err.Error()
	s.tr.errored = true
	s.tr.mu.Unlock()
}

// SetWorker assigns the span to a pool worker's export track so
// concurrent subtree tasks render on distinct Perfetto threads.
// Negative workers (the trunk, sequential executors) stay on the main
// track. Nil-safe.
func (s *Span) SetWorker(w int) {
	if s == nil {
		return
	}
	lane := int32(1)
	if w >= 0 {
		lane = int32(w) + 2
	}
	s.tr.mu.Lock()
	s.lane = lane
	s.tr.mu.Unlock()
}

// End closes the span (idempotent). Ending the root span finishes the
// trace: its duration is fixed and the tail sampler decides whether it
// enters the keep ring. Nil-safe.
func (s *Span) End() { s.endOrDiscard(false) }

// Discard ends the span, and — when s is a root — finishes its trace
// with an unconditional drop verdict, bypassing sampling. Admission
// control uses it so rejected submissions can carry spans without ever
// flooding the keep ring. Nil-safe.
func (s *Span) Discard() { s.endOrDiscard(true) }

func (s *Span) endOrDiscard(discard bool) {
	if s == nil {
		return
	}
	now := time.Now()
	tr := s.tr
	tr.mu.Lock()
	if !s.end.IsZero() {
		tr.mu.Unlock()
		return
	}
	s.end = now
	isRoot := s == tr.root && !tr.done
	if isRoot {
		tr.done = true
		tr.dur = now.Sub(tr.start)
	}
	tr.mu.Unlock()
	if isRoot {
		tr.tracer.finish(tr, discard)
	}
}

// Context returns the span's position for propagation (outgoing
// traceparent). Nil-safe: a nil span yields the invalid zero context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tr.id, SpanID: s.id, Sampled: true}
}

// Trace returns the span's owning trace (nil for a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// IDString returns the span's 16-hex-digit ID ("" for nil), for slog
// correlation.
func (s *Span) IDString() string {
	if s == nil {
		return ""
	}
	return s.id.String()
}

// TraceIDString returns the owning trace's 32-hex-digit ID ("" for
// nil), for slog correlation.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.tr.id.String()
}
