package trace

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// A nil tracer and nil spans must absorb the whole API without
// allocating or panicking — the disabled hot path.
func TestNilTracerDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("root", SpanContext{})
	if sp != nil {
		t.Fatalf("nil tracer Start returned %v, want nil", sp)
	}
	child := sp.Child("child", Int("k", 1))
	if child != nil {
		t.Fatalf("nil span Child returned %v, want nil", child)
	}
	sp.SetAttr(String("k", "v"))
	sp.Event("ev")
	sp.SetError(errors.New("boom"))
	sp.SetWorker(3)
	sp.End()
	sp.Discard()
	if got := sp.Context(); got.Valid() {
		t.Fatalf("nil span Context is valid: %+v", got)
	}
	if sp.IDString() != "" || sp.TraceIDString() != "" || sp.Name() != "" {
		t.Fatal("nil span ID accessors not empty")
	}
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer Traces = %v", got)
	}
	if _, ok := tr.Get("deadbeef"); ok {
		t.Fatal("nil tracer Get found a trace")
	}
	if got := tr.Stats(); got != (Stats{}) {
		t.Fatalf("nil tracer Stats = %+v", got)
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	rec := obs.NewMetrics()
	tr := New(Config{Seed: 7, Recorder: rec})
	root := tr.Start("request", SpanContext{}, String("tenant", "a"))
	if root == nil {
		t.Fatal("Start returned nil with live tracer")
	}
	q := root.Child("queue_wait")
	q.End()
	ex := root.Child("execute", Int("workers", 4))
	seg := ex.Child("segment_compile", String("cache", "miss"))
	seg.End()
	ex.Event("snapshot_push", Int("depth", 1))
	ex.End()
	root.End()

	trace := root.Trace()
	if trace == nil {
		t.Fatal("root.Trace() nil")
	}
	spans := trace.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	sum := trace.Summary()
	if sum.Root != "request" || sum.Spans != 4 || sum.Error || sum.Verdict != "sampled" {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.DurationNs <= 0 {
		t.Fatalf("duration %d, want > 0", sum.DurationNs)
	}
	// The kept ring serves the trace back by ID.
	got, ok := tr.Get(trace.ID())
	if !ok || got != trace {
		t.Fatalf("Get(%s) = %v, %v", trace.ID(), got, ok)
	}
	if ls := tr.Traces(); len(ls) != 1 || ls[0].TraceID != trace.ID() {
		t.Fatalf("Traces() = %+v", ls)
	}
	st := tr.Stats()
	if st.Started != 1 || st.Kept != 1 || st.Dropped != 0 || st.Spans != 4 || st.Ring != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Counters mirror into the obs recorder.
	for _, c := range []struct {
		c    obs.Counter
		want int64
	}{
		{obs.TracesStarted, 1}, {obs.TracesKept, 1}, {obs.TracesDropped, 0},
		{obs.SpansStarted, 4}, {obs.SpansDropped, 0},
	} {
		if got := rec.Counter(c.c); got != c.want {
			t.Errorf("%s = %d, want %d", c.c, got, c.want)
		}
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Config{Seed: 1})
	root := tr.Start("r", SpanContext{})
	root.End()
	root.End()
	root.Discard()
	if st := tr.Stats(); st.Kept != 1 || st.Dropped != 0 {
		t.Fatalf("double End changed the verdict: %+v", st)
	}
}

func TestSpanCapDropsChildren(t *testing.T) {
	rec := obs.NewMetrics()
	tr := New(Config{Seed: 1, MaxSpans: 3, Recorder: rec})
	root := tr.Start("r", SpanContext{})
	a := root.Child("a")
	b := root.Child("b")
	over := root.Child("over")
	if a == nil || b == nil {
		t.Fatal("children under the cap were dropped")
	}
	if over != nil {
		t.Fatalf("child past MaxSpans = %v, want nil", over)
	}
	// The dropped span absorbs further use.
	if over.Child("grand") != nil {
		t.Fatal("grandchild of dropped span not nil")
	}
	a.End()
	b.End()
	root.End()
	if st := tr.Stats(); st.Spans != 3 || st.SpansDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := rec.Counter(obs.SpansDropped); got != 1 {
		t.Fatalf("spans_dropped counter = %d, want 1", got)
	}
	if sum := root.Trace().Summary(); sum.Dropped != 1 {
		t.Fatalf("trace dropped = %d, want 1", sum.Dropped)
	}
}

func TestEventCap(t *testing.T) {
	tr := New(Config{Seed: 1, MaxEvents: 2})
	root := tr.Start("r", SpanContext{})
	for i := 0; i < 5; i++ {
		root.Event("ev", Int("i", int64(i)))
	}
	root.End()
	spans := root.Trace().Spans()
	if got := len(spans[0].events); got != 2 {
		t.Fatalf("events = %d, want 2 (capped)", got)
	}
}

// Tail sampling: errored traces always kept, normal traces dropped
// entirely at a negative rate, and a trace far beyond the running p99
// kept as "slow" even then.
func TestTailSampling(t *testing.T) {
	tr := New(Config{Seed: 1, SampleRate: -1})

	// The errored trace ends after the fast ones: ended first, its
	// duration would arm the tail rule one trace early, and the last fast
	// trace would be kept as slow whenever it reached the running p99.
	fail := tr.Start("failing", SpanContext{})
	fail.SetError(errors.New("boom"))

	// Feed the duration histogram enough fast traces to arm the tail
	// rule; all are dropped by the negative rate.
	for i := 0; i < tailMinSamples; i++ {
		sp := tr.Start("fast", SpanContext{})
		sp.End()
	}
	st := tr.Stats()
	if st.Dropped != int64(tailMinSamples) {
		t.Fatalf("dropped = %d, want %d", st.Dropped, tailMinSamples)
	}

	fail.End()
	if sum := fail.Trace().Summary(); sum.Verdict != "error" || !sum.Error {
		t.Fatalf("errored trace verdict = %+v", sum)
	}

	slow := tr.Start("slow", SpanContext{})
	time.Sleep(20 * time.Millisecond) // far beyond the sub-µs fast traces' p99
	slow.End()
	if sum := slow.Trace().Summary(); sum.Verdict != "slow" {
		t.Fatalf("slow trace verdict = %q, want slow", sum.Verdict)
	}
	if _, ok := tr.Get(slow.Trace().ID()); !ok {
		t.Fatal("slow trace not in ring")
	}
}

func TestDiscardBypassesRing(t *testing.T) {
	tr := New(Config{Seed: 1})
	root := tr.Start("rejected", SpanContext{})
	root.SetError(errors.New("queue full"))
	root.Discard()
	if st := tr.Stats(); st.Kept != 0 || st.Dropped != 1 {
		t.Fatalf("stats after Discard = %+v", st)
	}
	if sum := root.Trace().Summary(); sum.Verdict != "discarded" {
		t.Fatalf("verdict = %q, want discarded", sum.Verdict)
	}
}

func TestRingBound(t *testing.T) {
	tr := New(Config{Seed: 1, RingCap: 4})
	var last string
	for i := 0; i < 10; i++ {
		sp := tr.Start(fmt.Sprintf("t%d", i), SpanContext{})
		last = sp.TraceIDString()
		sp.End()
	}
	ls := tr.Traces()
	if len(ls) != 4 {
		t.Fatalf("ring holds %d, want 4", len(ls))
	}
	if ls[len(ls)-1].TraceID != last {
		t.Fatal("ring did not keep the newest trace")
	}
	if ls[0].Root != "t6" {
		t.Fatalf("oldest kept = %q, want t6", ls[0].Root)
	}
}

func TestAdoptedParentContext(t *testing.T) {
	tr := New(Config{Seed: 1})
	parent, ok := ParseTraceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("reference traceparent did not parse")
	}
	root := tr.Start("request", parent)
	if got := root.TraceIDString(); got != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("trace ID %s not adopted from parent", got)
	}
	if root.Context().SpanID == parent.SpanID {
		t.Fatal("root reused the remote span ID")
	}
	root.End()
}

func TestDeterministicIDs(t *testing.T) {
	a := New(Config{Seed: 42})
	b := New(Config{Seed: 42})
	sa := a.Start("r", SpanContext{})
	sb := b.Start("r", SpanContext{})
	if sa.TraceIDString() != sb.TraceIDString() || sa.IDString() != sb.IDString() {
		t.Fatal("same seed produced different IDs")
	}
	c := New(Config{Seed: 43})
	if sc := c.Start("r", SpanContext{}); sc.TraceIDString() == sa.TraceIDString() {
		t.Fatal("different seeds produced the same trace ID")
	}
}

// Concurrent span creation from many workers — the subtree-pool shape —
// must be race-free and lose nothing under the cap. Run with -race.
func TestConcurrentSpanCreation(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			const perWorker = 200
			tr := New(Config{Seed: 9})
			root := tr.Start("request", SpanContext{})
			ex := root.Child("execute")
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						sp := ex.Child("subtree_task", Int("task", int64(i)))
						sp.SetWorker(w)
						sp.Event("snapshot_push", Int("depth", int64(i%4)))
						sp.End()
					}
				}(w)
			}
			wg.Wait()
			ex.End()
			root.End()
			want := 2 + workers*perWorker
			if got := len(root.Trace().Spans()); got != want {
				t.Fatalf("spans = %d, want %d", got, want)
			}
			ids := map[string]bool{}
			for _, sp := range root.Trace().Spans() {
				if ids[sp.IDString()] {
					t.Fatalf("duplicate span ID %s", sp.IDString())
				}
				ids[sp.IDString()] = true
			}
		})
	}
}
