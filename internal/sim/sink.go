package sim

import (
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// stepSink is the observability of one plan walk: a sequential plan, a
// subtree trunk, or a worker's subtree tasks (one sink per worker, reused
// across its tasks). The walk reports each step event to it once. Step
// counters and the trial-latency, snapshot-lifetime and restore-depth
// histograms accumulate in a Tally the sink owns; step events accumulate
// as pointer-free trace.StepEvents. flush hands the tally to the
// Recorder in one Merge call and the events to the span in one AddSteps
// call. The owner flushes when its walk ends (a worker flushes its events
// at each task's end, its tally when it exits), and the sink flushes
// itself every sinkFlushEvery step events, so a long walk's counters
// reach /metrics while it runs.
//
// A walk with neither a Recorder nor a span has no sink (nil), so the
// untraced path pays one nil check per instrumented step.
type stepSink struct {
	rec    obs.Recorder
	span   *trace.Span // where events go; a worker's changes per task
	base   time.Time   // clock origin: the trace's start, else the sink's creation
	tally  obs.Tally
	events []trace.StepEvent

	pending  int   // step events since the last flush
	emitMark int64 // Recorder only: when the previous emit batch ended
}

// sinkFlushEvery bounds the step events between flushes, and with it how
// far a Recorder lags a running walk.
const sinkFlushEvery = 4096

// sinkEventsHint is the initial capacity of a traced sink's event buffer.
const sinkEventsHint = 64

// newStepSink returns the sink of a walk that records into rec and
// traces into span, or nil when both are nil.
func newStepSink(rec obs.Recorder, span *trace.Span) *stepSink {
	if rec == nil && span == nil {
		return nil
	}
	s := &stepSink{rec: rec, span: span, base: span.TraceStart()}
	if span == nil {
		s.base = time.Now()
	} else {
		s.events = make([]trace.StepEvent, 0, sinkEventsHint)
	}
	return s
}

// clock reads the time on the sink's clock: nanoseconds since base, so
// a step event's time is its trace.StepEvent.At.
func (s *stepSink) clock() int64 { return int64(time.Since(s.base)) }

// event buffers a step event for the span, if the walk has one.
func (s *stepSink) event(k trace.StepKind, at, v int64) {
	if s.span != nil {
		s.events = append(s.events, trace.StepEvent{At: at, Kind: k, Value: v})
	}
}

// step counts one step event, flushing every sinkFlushEvery.
func (s *stepSink) step() {
	if s.pending++; s.pending >= sinkFlushEvery {
		s.flush()
	}
}

// start marks the beginning of a walk: trial latency is the wall time
// since the previous emit, the first emit's since the walk started.
func (s *stepSink) start() {
	if s.rec != nil {
		s.emitMark = s.clock()
	}
}

// emit records an emit batch of n trials: n trials emitted and n equal
// trial latencies, the time since the previous emit amortized over the
// batch, so the histogram's count always equals the trials emitted.
func (s *stepSink) emit(n int) {
	if s.rec == nil {
		return
	}
	s.tally.Add(obs.TrialsEmitted, int64(n))
	now := s.clock()
	if n > 0 {
		s.tally.ObserveN(obs.HistTrialLatency, (now-s.emitMark)/int64(n), int64(n))
	}
	s.emitMark = now
	s.step()
}

// push records a stored snapshot at frame depth depth; decided says a
// restore policy chose it ("policy_decision"), not the plan
// ("snapshot_push"). It returns the push time for drop.
func (s *stepSink) push(depth int, decided bool) int64 {
	now := s.clock()
	s.tally.Add(obs.SnapshotPushes, 1)
	kind := trace.StepSnapshotPush
	if decided {
		s.tally.Add(obs.PolicySnapshotDecisions, 1)
		kind = trace.StepPolicySnapshot
	}
	s.event(kind, now, int64(depth))
	s.step()
	return now
}

// virtual records a branch point the policy left to uncomputation.
func (s *stepSink) virtual(depth int) {
	s.tally.Add(obs.PolicyUncomputeDecisions, 1)
	if s.span != nil {
		s.event(trace.StepPolicyUncompute, s.clock(), int64(depth))
	}
	s.step()
}

// drop records a popped snapshot pushed at pushT.
func (s *stepSink) drop(pushT int64) {
	if s.rec == nil {
		return
	}
	s.tally.Add(obs.SnapshotDrops, 1)
	s.tally.ObserveN(obs.HistSnapshotLifetime, s.clock()-pushT, 1)
	s.step()
}

// restore records a budget-forced restore with stored real frames
// stored (the restore-depth histogram) at frame depth depth (the event).
func (s *stepSink) restore(stored, depth int) {
	s.tally.Add(obs.SnapshotRestores, 1)
	s.tally.ObserveN(obs.HistRestoreDepth, int64(stored), 1)
	if s.span != nil {
		s.event(trace.StepSnapshotRestore, s.clock(), int64(depth))
	}
	s.step()
}

// uncompute records one reverse-executed rollback of ops ops. Its
// uncompute-depth observation goes to the Recorder directly, one call
// per rollback, so a Recorder sees each rollback's exact size.
func (s *stepSink) uncompute(ops int64) {
	s.tally.Add(obs.UncomputeSegments, 1)
	s.tally.Add(obs.UncomputeOps, ops)
	if s.rec != nil {
		s.rec.Observe(obs.HistUncomputeDepth, ops)
	}
	if s.span != nil {
		s.event(trace.StepUncompute, s.clock(), ops)
	}
	s.step()
}

// spawn records a subtree task handed to the worker pool.
func (s *stepSink) spawn(task int) {
	s.tally.Add(obs.TasksSpawned, 1)
	if s.span != nil {
		s.event(trace.StepSpawn, s.clock(), int64(task))
	}
	s.step()
}

// flushEvents hands the buffered step events to the span. Nil-safe.
func (s *stepSink) flushEvents() {
	if s == nil {
		return
	}
	s.span.AddSteps(s.events)
	s.events = s.events[:0]
}

// flush merges the tally into the Recorder and hands the buffered step
// events to the span. Nil-safe.
func (s *stepSink) flush() {
	if s == nil {
		return
	}
	if s.rec != nil {
		s.rec.Merge(&s.tally)
		s.tally.Reset()
	}
	s.flushEvents()
	s.pending = 0
}
