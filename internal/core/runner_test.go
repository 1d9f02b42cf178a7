package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// runnerJobs are jobs of growing and shrinking shape for one Runner:
// trials from 64 to 4,096, transpiled and not, every restore policy, a
// snapshot budget, two workers, both fuse modes and every run mode.
func runnerJobs(t *testing.T) []Config {
	t.Helper()
	build := func(name string) *circuit.Circuit {
		c, err := bench.Build(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dev := device.Yorktown()
	qv10 := bench.QV(10, 3, rand.New(rand.NewSource(5)))
	wide := noise.Uniform("u10", 10, 2e-3, 2e-2, 1e-2)
	noisy := noise.Uniform("noisy", 5, 1e-2, 5e-2, 2e-2)
	return []Config{
		{Circuit: build("bv5"), Device: dev, Trials: 64, Seed: 1, Mode: ModeReordered},
		{Circuit: build("qv_n5d5"), Device: dev, Transpile: true, Trials: 4096, Seed: 2, Mode: ModeReordered},
		{Circuit: build("qft5"), Model: noisy, Trials: 256, Seed: 3, Mode: ModeReordered, Policy: sim.PolicyUncompute},
		{Circuit: qv10, Model: wide, Trials: 128, Seed: 4, Mode: ModeReordered, Fuse: statevec.FuseNumeric},
		{Circuit: build("qv_n5d4"), Model: noisy, Trials: 2048, Seed: 5, Mode: ModeReordered, SnapshotBudget: 2},
		{Circuit: build("grover"), Device: dev, Transpile: true, Trials: 512, Seed: 6, Mode: ModeBoth, Policy: sim.PolicyAdaptive, SnapshotBudget: 1},
		{Circuit: build("qv_n5d3"), Model: noisy, Trials: 1024, Seed: 7, Mode: ModeReordered, Workers: 2},
		{Circuit: build("bv4"), Device: dev, Trials: 64, Seed: 8, Mode: ModeReordered, ErrorMode: trial.PerQubit},
		{Circuit: build("qft5"), Device: dev, Transpile: true, Trials: 4096, Seed: 9, Mode: ModeReordered, Workers: 2, Fuse: statevec.FuseNumeric},
		{Circuit: build("7x1mod15"), Device: dev, Trials: 96, Seed: 10, Mode: ModeStatic},
		{Circuit: build("qv_n5d5"), Model: noisy, Trials: 3000, Seed: 11, Mode: ModeReordered, Fuse: statevec.FuseNumeric, Policy: sim.PolicyAdaptive, SnapshotBudget: 2},
		{Circuit: build("rb"), Device: dev, Trials: 100, Seed: 12, Mode: ModeBaseline},
		{Circuit: build("bv5"), Device: dev, Trials: 64, Seed: 1, Mode: ModeReordered},
	}
}

// sameReport fails t unless got, a Runner's report, equals want, a fresh
// Run's, field by field, and a snapshot-policy job executed its plan's
// ops. Executed MSV is compared only for sequential runs: with workers,
// the trunk and the tasks store vectors concurrently.
func sameReport(t *testing.T, label string, got, want *Report, workers int, policy sim.RestorePolicy) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	gq, err := circuit.WriteQASM(got.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	wq, err := circuit.WriteQASM(want.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if gq != wq {
		fail("circuits differ")
	}
	if len(got.Trials) != len(want.Trials) {
		fail("%d trials, want %d", len(got.Trials), len(want.Trials))
	}
	for i, tr := range got.Trials {
		w := want.Trials[i]
		if tr.ID != w.ID || !slices.Equal(tr.Inj, w.Inj) || tr.MeasFlips != w.MeasFlips || tr.SampleU != w.SampleU {
			fail("trial %d is %v, want %v", i, tr, w)
		}
	}
	if got.TrialStats != want.TrialStats {
		fail("trial stats %+v, want %+v", got.TrialStats, want.TrialStats)
	}
	if got.Analysis != want.Analysis {
		fail("analysis %+v, want %+v", got.Analysis, want.Analysis)
	}
	gp, wp := got.Plan, want.Plan
	if !slices.Equal(gp.Steps, wp.Steps) {
		fail("plan has %d steps, want %d, or they differ", len(gp.Steps), len(wp.Steps))
	}
	if !slices.EqualFunc(gp.Order, wp.Order, func(a, b *trial.Trial) bool { return a.ID == b.ID }) {
		fail("plan order differs")
	}
	if gp.OptimizedOps() != wp.OptimizedOps() || gp.MSV() != wp.MSV() || gp.Copies() != wp.Copies() ||
		gp.GatesInLayers(0, gp.NumLayers()) != wp.GatesInLayers(0, wp.NumLayers()) {
		fail("plan counters differ")
	}
	for _, r := range []struct {
		name      string
		got, want *sim.Result
	}{{"baseline", got.Baseline, want.Baseline}, {"reordered", got.Reordered, want.Reordered}} {
		if (r.got == nil) != (r.want == nil) {
			fail("%s result present %v, want %v", r.name, r.got != nil, r.want != nil)
		}
		if r.got == nil {
			continue
		}
		if !maps.Equal(r.got.Counts, r.want.Counts) || !slices.Equal(r.got.Outcomes, r.want.Outcomes) {
			fail("%s histogram or outcomes differ", r.name)
		}
		if r.got.Ops != r.want.Ops || r.got.UncomputeOps != r.want.UncomputeOps || r.got.Copies != r.want.Copies {
			fail("%s ops/uncompute/copies %d/%d/%d, want %d/%d/%d", r.name,
				r.got.Ops, r.got.UncomputeOps, r.got.Copies, r.want.Ops, r.want.UncomputeOps, r.want.Copies)
		}
		if workers <= 1 && r.got.MSV != r.want.MSV {
			fail("%s MSV %d, want %d", r.name, r.got.MSV, r.want.MSV)
		}
	}
	if got.Reordered != nil && policy == sim.PolicySnapshot && got.Reordered.Ops != got.Plan.OptimizedOps() {
		fail("executed %d ops, plan has %d", got.Reordered.Ops, got.Plan.OptimizedOps())
	}
}

// sameSteps fails t unless two runs recorded the same step counts and
// trial-latency observations: a reused sink starts each walk empty.
func sameSteps(t *testing.T, label string, got, want *obs.Metrics) {
	t.Helper()
	for _, c := range []obs.Counter{obs.Ops, obs.Copies, obs.TrialsEmitted, obs.SnapshotPushes, obs.SnapshotDrops,
		obs.SnapshotRestores, obs.UncomputeSegments, obs.UncomputeOps, obs.PolicySnapshotDecisions,
		obs.PolicyUncomputeDecisions, obs.TasksSpawned} {
		if g, w := got.Counter(c), want.Counter(c); g != w {
			t.Fatalf("%s: %s %d, want %d", label, c, g, w)
		}
	}
	if g, w := got.Hist(obs.HistTrialLatency).Count(), want.Hist(obs.HistTrialLatency).Count(); g != w {
		t.Fatalf("%s: %d trial latencies, want %d", label, g, w)
	}
}

// mergePanics is a Recorder that panics at its first Merge, after
// merging, so a walk that flushes its sink mid-walk fails there.
type mergePanics struct{ obs.Metrics }

func (m *mergePanics) Merge(t *obs.Tally) {
	m.Metrics.Merge(t)
	panic("recorder failed")
}

// TestRunnerMatchesRun: one Runner runs jobs of growing and shrinking
// shape, and each report equals a fresh Run's field by field. Between
// them, a job whose Recorder panics mid-walk leaves the Runner exact for
// the next job, and every register it drew goes back to the arena.
func TestRunnerMatchesRun(t *testing.T) {
	var r Runner
	pool := statevec.NewBufferPool()
	for i, cfg := range runnerJobs(t) {
		label := fmt.Sprintf("job %d (%s, %d trials)", i, cfg.Circuit.Name(), cfg.Trials)
		cfg.Pool = pool
		gotRec, wantRec := obs.NewMetrics(), obs.NewMetrics()
		cfg.Recorder = gotRec
		got, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("%s: runner: %v", label, err)
		}
		cfg.Recorder = wantRec
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", label, err)
		}
		sameReport(t, label, got, want, cfg.Workers, cfg.Policy)
		sameSteps(t, label, gotRec, wantRec)
	}

	// A walk of more step events than the sink holds between flushes
	// merges mid-walk and panics there.
	c, err := bench.Build("qv_n5d5", 1)
	if err != nil {
		t.Fatal(err)
	}
	noisy := noise.Uniform("noisy", 5, 2e-2, 8e-2, 2e-2)
	fresh := statevec.NewBufferPool()
	rec := &mergePanics{}
	bad := Config{Circuit: c, Model: noisy, Trials: 4096, Seed: 21, Mode: ModeReordered, Pool: fresh, Recorder: rec,
		Span: trace.New(trace.Config{Seed: 1}).Start("job", trace.SpanContext{})}
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("the panicking recorder's job did not panic")
			}
		}()
		_, _ = r.Run(bad)
	}()
	if emitted := rec.Counter(obs.TrialsEmitted); emitted >= int64(bad.Trials) {
		t.Fatalf("the recorder panicked after the walk (%d of %d trials emitted), want mid-walk", emitted, bad.Trials)
	}
	_, misses := fresh.Stats()
	if back := int64(fresh.Retained()) + fresh.Drops(); back != misses {
		t.Errorf("panicked job drew %d registers, %d back in the pool or dropped", misses, back)
	}
	gotRec := obs.NewMetrics()
	next := Config{Circuit: c, Model: noisy, Trials: 2048, Seed: 22, Mode: ModeReordered, Pool: fresh,
		Recorder: gotRec, Span: trace.New(trace.Config{Seed: 2}).Start("job", trace.SpanContext{})}
	got, err := r.Run(next)
	if err != nil {
		t.Fatalf("after the panic: %v", err)
	}
	wantRec := obs.NewMetrics()
	next.Recorder, next.Span = wantRec, nil
	want, err := Run(next)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "after the panic", got, want, 1, sim.PolicySnapshot)
	sameSteps(t, "after the panic", gotRec, wantRec)
	_, misses = fresh.Stats()
	if back := int64(fresh.Retained()) + fresh.Drops(); back != misses {
		t.Errorf("after the panic: drew %d registers, %d back in the pool or dropped", misses, back)
	}
}

// TestRunnerDropsLargeSlabs: after a job whose slabs exceed RetainBytes,
// the Runner keeps none of that layer's slabs, while a small job's stay.
func TestRunnerDropsLargeSlabs(t *testing.T) {
	c, err := bench.Build("bv5", 1)
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	cfg := Config{Circuit: c, Device: device.Yorktown(), Trials: 256, Seed: 1, Mode: ModeReordered}
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if r.trials.Bytes() == 0 || r.order.Bytes() == 0 || r.exec.Bytes() == 0 {
		t.Fatalf("a small job left slabs of %d, %d and %d bytes, want all kept", r.trials.Bytes(), r.order.Bytes(), r.exec.Bytes())
	}
	cfg.Trials = 1 << 18
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"trial": r.trials.Bytes(), "reorder": r.order.Bytes(), "execute": r.exec.Bytes()} {
		if n != 0 {
			t.Errorf("after a %d-trial job the %s layer keeps %d bytes, want none (RetainBytes = %d)", cfg.Trials, name, n, RetainBytes)
		}
	}
}

// runnerJobAllocs is the bound TestRunnerSteadyStateAllocs holds a warm
// Runner's daemon-shape job to. Of its allocations, the trace's (the root
// span, five phase spans, the executor's span, their attributes and the
// step events' slab) and obs.Multi's are the caller's; the Runner makes
// the Report, Plan and Result structs and nothing that grows with the
// job.
const runnerJobAllocs = 30

// TestRunnerSteadyStateAllocs: a warm Runner's job of qsimd's default
// shape (FuseOff, one worker, a shared pool, an aggregate and a tenant
// Recorder and a traced root span) allocates at most runnerJobAllocs
// times, whatever its trial count.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	dev := device.Yorktown()
	pool := statevec.NewBufferPool()
	agg, tenant := obs.NewMetrics(), obs.NewMetrics()
	tracer := trace.New(trace.Config{Seed: 1})
	var r Runner
	for _, name := range []string{"bv5", "qft5", "qv_n5d5", "grover"} {
		c, err := bench.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, trials := range []int{640, 64, 256} {
			job := func() {
				root := tracer.Start("request", trace.SpanContext{})
				rep, err := r.Run(Config{
					Circuit: c, Device: dev, Trials: trials, Seed: 1, Mode: ModeReordered,
					Workers: 1, Pool: pool, Recorder: obs.Multi(agg, tenant), Span: root,
				})
				root.End()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := rep.Reordered.Ops, rep.Plan.OptimizedOps(); got != want {
					t.Fatalf("%s: executed %d ops, plan has %d", name, got, want)
				}
			}
			job() // the largest shape first grows the slabs
			allocs := testing.AllocsPerRun(10, job)
			t.Logf("%s/%d: %.0f allocations per job", name, trials, allocs)
			if allocs > runnerJobAllocs {
				t.Errorf("%s/%d: a warm Runner's job made %.0f allocations, want at most %d", name, trials, allocs, runnerJobAllocs)
			}
		}
	}
}
