package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trace"
)

// The tracing contract mirrors the observability contract: a span tree
// attached to any executor never changes a Result, and the structural
// spans it records reconcile exactly with the obs counters — one
// "segment_compile" span per segment-cache miss, no spans for hits.

// countSpans tallies span names across a finished trace.
func countSpans(tr *trace.Trace) map[string]int {
	out := make(map[string]int)
	for _, sp := range tr.Spans() {
		out[sp.Name()]++
	}
	return out
}

// spanEvent is one exported span event with the name of the span it
// sits on.
type spanEvent struct {
	name, span string
	args       map[string]any
}

// spanEvents lists a finished trace's span events, joined to their
// spans through the exported span IDs.
func spanEvents(tr *trace.Trace) []spanEvent {
	evs := tr.Chrome().TraceEvents
	spanName := make(map[any]string)
	for _, ev := range evs {
		if ev.Ph == "X" {
			spanName[ev.Args["span_id"]] = ev.Name
		}
	}
	var out []spanEvent
	for _, ev := range evs {
		if ev.Cat == "event" {
			out = append(out, spanEvent{name: ev.Name, span: spanName[ev.Args["span_id"]], args: ev.Args})
		}
	}
	return out
}

// digestRow returns the count column of the digest row named name, and
// the header's dropped-event figure.
func digestRow(t *testing.T, digest, name string) (count, droppedEvents int64) {
	t.Helper()
	count = -1
	for i, line := range strings.Split(digest, "\n") {
		if i == 0 {
			var spans, droppedSpans, events int64
			if _, err := fmt.Sscanf(line, "span trace: %d spans (%d dropped), %d events (%d dropped)",
				&spans, &droppedSpans, &events, &droppedEvents); err != nil {
				t.Fatalf("digest header %q: %v", line, err)
			}
			continue
		}
		if f := strings.Fields(line); len(f) >= 2 && f[0] == name {
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("digest row %q: %v", line, err)
			}
			count = n
		}
	}
	return count, droppedEvents
}

// TestTraceDigestMatchesCounters pins the qsim -trace-summary digest to
// the counters of the same run: with the event cap raised its
// snapshot_push count is obs.SnapshotPushes and nothing is dropped;
// under the default cap of 256 events per span it shows the cap and
// reports every push it dropped.
func TestTraceDigestMatchesCounters(t *testing.T) {
	c := bench.QV(5, 3, rand.New(rand.NewSource(2)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 2000, 8)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	run := func(maxEvents int) (string, int64) {
		t.Helper()
		rec := obs.NewMetrics()
		root := trace.New(trace.Config{Seed: 1, MaxEvents: maxEvents}).Start("test", trace.SpanContext{})
		if _, err := ExecutePlan(c, plan, Options{Recorder: rec, Span: root}); err != nil {
			t.Fatal(err)
		}
		root.End()
		return root.Trace().Digest(), rec.Counter(obs.SnapshotPushes)
	}

	digest, pushes := run(1 << 20)
	if pushes <= trace.DefaultMaxEvents {
		t.Fatalf("workload pushes %d snapshots, need more than %d to hit the cap", pushes, trace.DefaultMaxEvents)
	}
	if got, dropped := digestRow(t, digest, "snapshot_push"); got != pushes || dropped != 0 {
		t.Errorf("uncapped digest: snapshot_push %d (%d dropped), counter %d\n%s", got, dropped, pushes, digest)
	}
	if got, _ := digestRow(t, digest, "execute_plan"); got != 1 {
		t.Errorf("digest lists %d execute_plan spans, want 1\n%s", got, digest)
	}

	digest, pushes = run(0)
	got, dropped := digestRow(t, digest, "snapshot_push")
	if got != trace.DefaultMaxEvents || dropped != pushes-trace.DefaultMaxEvents {
		t.Errorf("capped digest: snapshot_push %d (%d dropped), counter %d, cap %d\n%s",
			got, dropped, pushes, trace.DefaultMaxEvents, digest)
	}
}

// TestSegmentCompileSpansMatchMisses is the agreement gate: the number
// of segment_compile spans equals obs.SegCacheMisses exactly, on a cold
// cache and (vacuously, zero == zero) on a warm one.
func TestSegmentCompileSpansMatchMisses(t *testing.T) {
	c := bench.QV(5, 3, rand.New(rand.NewSource(7)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 300, 11)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	statevec.ResetSegmentCache()
	t.Cleanup(statevec.ResetSegmentCache)

	run := func(policy RestorePolicy) (map[string]int, int64, *Result) {
		t.Helper()
		tracer := trace.New(trace.Config{Seed: 1})
		rec := obs.NewMetrics()
		root := tracer.Start("test", trace.SpanContext{})
		res, err := ExecutePlan(c, plan, Options{
			Fuse:     statevec.FuseNumeric,
			Policy:   policy,
			Recorder: rec,
			Span:     root,
		})
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		return countSpans(root.Trace()), rec.Counter(obs.SegCacheMisses), res
	}

	// Cold cache: every segment compile is a miss, and every miss opens
	// exactly one span.
	names, misses, cold := run(PolicySnapshot)
	if misses == 0 {
		t.Fatal("cold run recorded no segment-cache misses")
	}
	if got := int64(names["segment_compile"]); got != misses {
		t.Fatalf("segment_compile spans = %d, segcache misses = %d", got, misses)
	}

	// Warm cache: all hits, so zero misses and zero compile spans.
	names, misses, warm := run(PolicySnapshot)
	if misses != 0 {
		t.Fatalf("warm run recorded %d misses, want 0", misses)
	}
	if got := names["segment_compile"]; got != 0 {
		t.Fatalf("warm run opened %d segment_compile spans, want 0", got)
	}
	if cold.Ops != warm.Ops || cold.Ops != plan.OptimizedOps() {
		t.Fatalf("ops cold %d warm %d, want %d", cold.Ops, warm.Ops, plan.OptimizedOps())
	}

	// The uncompute policy compiles reverse segments too; the agreement
	// must hold across both compile directions.
	statevec.ResetSegmentCache()
	names, misses, _ = run(PolicyUncompute)
	if misses == 0 {
		t.Fatal("uncompute run recorded no segment-cache misses")
	}
	if got := int64(names["segment_compile"]); got != misses {
		t.Fatalf("uncompute: segment_compile spans = %d, segcache misses = %d", got, misses)
	}
}

// TestTracedExecutorsInvariant attaches a live span tree to the
// subtree-parallel executor at several worker counts: results must be
// bit-identical to the untraced run, ops must stay at the static plan
// count, and sibling workers creating spans concurrently must be clean
// under -race.
func TestTracedExecutorsInvariant(t *testing.T) {
	c := bench.QV(5, 4, rand.New(rand.NewSource(3)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 300, 5)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	static := plan.OptimizedOps()

	base, err := ExecutePlan(c, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		tracer := trace.New(trace.Config{Seed: uint64(workers)})
		root := tracer.Start("test", trace.SpanContext{})
		res, err := ParallelSubtree(c, trials, workers, Options{Span: root})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		root.End()
		if res.Ops != static {
			t.Errorf("workers=%d: traced ops = %d, want %d", workers, res.Ops, static)
		}
		if len(res.Outcomes) != len(base.Outcomes) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(res.Outcomes), len(base.Outcomes))
		}
		for i := range res.Outcomes {
			if res.Outcomes[i] != base.Outcomes[i] {
				t.Fatalf("workers=%d: outcome %d differs with tracing attached", workers, i)
			}
		}
		names := countSpans(root.Trace())
		if workers > 1 {
			if names["execute_subtree"] != 1 {
				t.Errorf("workers=%d: %d execute_subtree spans, want 1", workers, names["execute_subtree"])
			}
			if names["subtree_task"] == 0 {
				t.Errorf("workers=%d: no subtree_task spans", workers)
			}
		}
		// Every span must carry a unique ID even when sibling workers
		// race to create them.
		seen := make(map[string]bool)
		for _, sp := range root.Trace().Spans() {
			id := sp.IDString()
			if seen[id] {
				t.Fatalf("workers=%d: duplicate span id %s", workers, id)
			}
			seen[id] = true
		}
	}
}

// TestSpanEventsMatchCounters reconciles the span events every executor
// emits with the obs counters of the same run: one snapshot_push event
// per snapshot push under PolicySnapshot, one policy_decision event per
// counted decision under the other policies, and one event per restore,
// reverse-executed segment and spawned task.
func TestSpanEventsMatchCounters(t *testing.T) {
	c := bench.QV(5, 4, rand.New(rand.NewSource(9)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 300, 13)
	executors := map[string]func(opt Options) (*Result, error){
		"plan": func(opt Options) (*Result, error) {
			plan, err := reorder.BuildPlanBudget(c, trials, opt.planBudget())
			if err != nil {
				return nil, err
			}
			return ExecutePlan(c, plan, opt)
		},
		"subtree": func(opt Options) (*Result, error) { return ParallelSubtreeCut(c, trials, 2, 2, opt) },
	}
	configs := map[string]Options{
		"snapshot":         {Policy: PolicySnapshot},
		"snapshot-budget1": {Policy: PolicySnapshot, SnapshotBudget: 1},
		"uncompute":        {Policy: PolicyUncompute},
		"adaptive-budget1": {Policy: PolicyAdaptive, SnapshotBudget: 1},
	}
	for ename, exec := range executors {
		for cname, opt := range configs {
			name := ename + "/" + cname
			// Numeric fusion reverse-executes every rollback, so the
			// uncompute counts below are not vacuously zero.
			opt.Fuse = statevec.FuseNumeric
			rec := obs.NewMetrics()
			opt.Recorder = rec
			tracer := trace.New(trace.Config{Seed: 1, MaxEvents: 1 << 20, MaxSpans: 1 << 16})
			root := tracer.Start("test", trace.SpanContext{})
			opt.Span = root
			if _, err := exec(opt); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			root.End()
			events := make(map[string]int64)
			for _, ev := range root.Trace().Chrome().TraceEvents {
				if ev.Cat != "event" {
					continue
				}
				key := ev.Name
				if d, ok := ev.Args["decision"]; ok {
					key += "/" + d.(string)
				}
				events[key]++
			}
			check := func(event string, counter obs.Counter) {
				t.Helper()
				if got, want := events[event], rec.Counter(counter); got != want {
					t.Errorf("%s: %d %s events, counter %s = %d", name, got, event, counter, want)
				}
			}
			if opt.Policy == PolicySnapshot {
				check("snapshot_push", obs.SnapshotPushes)
				if rec.Counter(obs.SnapshotPushes) == 0 {
					t.Errorf("%s: no snapshot pushes", name)
				}
				if n := rec.Counter(obs.PolicySnapshotDecisions); n != 0 {
					t.Errorf("%s: policy_snapshot = %d under PolicySnapshot", name, n)
				}
			} else {
				if n := events["snapshot_push"]; n != 0 {
					t.Errorf("%s: %d snapshot_push events under a decision policy", name, n)
				}
				check("policy_decision/snapshot", obs.PolicySnapshotDecisions)
				check("policy_decision/uncompute", obs.PolicyUncomputeDecisions)
				if rec.Counter(obs.PolicyUncomputeDecisions) == 0 || rec.Counter(obs.UncomputeSegments) == 0 {
					t.Errorf("%s: no uncompute decisions or segments", name)
				}
			}
			check("snapshot_restore", obs.SnapshotRestores)
			check("uncompute", obs.UncomputeSegments)
			check("spawn", obs.TasksSpawned)
			if ename == "subtree" && rec.Counter(obs.TasksSpawned) == 0 {
				t.Errorf("%s: no tasks spawned", name)
			}
			if cname == "snapshot-budget1" && rec.Counter(obs.SnapshotRestores) == 0 {
				t.Errorf("%s: budgeted run performed no restores", name)
			}
		}
	}
}
