package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// The observability contract: a Recorder attached to any executor reports
// counters that agree exactly with the Result it returns — and for the
// sharing-preserving executors, with the plan's static analysis. These
// tests are the acceptance gate for "ops == plan.OptimizedOps() in every
// mode with metrics enabled".

func TestMetricsAgreeSequential(t *testing.T) {
	c := bench.QV(5, 3, rand.New(rand.NewSource(7)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 400, 11)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewMetrics()
	res, err := ExecutePlan(c, plan, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(obs.Ops); got != res.Ops {
		t.Errorf("metrics ops = %d, Result.Ops = %d", got, res.Ops)
	}
	if res.Ops != plan.OptimizedOps() {
		t.Errorf("Result.Ops = %d, plan.OptimizedOps() = %d", res.Ops, plan.OptimizedOps())
	}
	if got := rec.Counter(obs.Copies); got != res.Copies {
		t.Errorf("metrics copies = %d, Result.Copies = %d", got, res.Copies)
	}
	if got := rec.Gauge(obs.MSVHighWater); got != int64(res.MSV) {
		t.Errorf("metrics MSV high-water = %d, Result.MSV = %d", got, res.MSV)
	}
	if got := rec.Counter(obs.TrialsEmitted); got != int64(len(trials)) {
		t.Errorf("metrics trials emitted = %d, want %d", got, len(trials))
	}
	pushes, drops := rec.Counter(obs.SnapshotPushes), rec.Counter(obs.SnapshotDrops)
	if pushes != drops {
		t.Errorf("pushes %d != drops %d: a sequential plan drops every snapshot", pushes, drops)
	}
	if pushes != res.Copies {
		// Unbudgeted sequential plans never restore, so every copy is a
		// snapshot push.
		t.Errorf("pushes %d != copies %d", pushes, res.Copies)
	}
	if rec.Counter(obs.SnapshotRestores) != 0 {
		t.Errorf("unbudgeted plan restored %d times, want 0", rec.Counter(obs.SnapshotRestores))
	}
}

// TestMetricsAgreeAllExecutors runs every executor with a live Metrics
// recorder and checks the counter/Result agreement that qsim's
// -verify-metrics flag enforces in production.
func TestMetricsAgreeAllExecutors(t *testing.T) {
	c := bench.QV(5, 4, rand.New(rand.NewSource(3)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 300, 5)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	static := plan.OptimizedOps()

	cases := []struct {
		name string
		// sharing reports whether the executor preserves all prefix
		// sharing (ops must equal the static plan count).
		sharing bool
		run     func(Options) (*Result, error)
	}{
		{"ExecutePlan", true, func(o Options) (*Result, error) {
			return ExecutePlan(c, plan, o)
		}},
		{"Reordered/budget3", false, func(o Options) (*Result, error) {
			o.SnapshotBudget = 3
			return Reordered(c, trials, o)
		}},
		{"ExecutePlan/fuseNumeric", true, func(o Options) (*Result, error) {
			o.Fuse = statevec.FuseNumeric
			return ExecutePlan(c, plan, o)
		}},
		{"ParallelSubtree4", true, func(o Options) (*Result, error) {
			return ParallelSubtree(c, trials, 4, o)
		}},
		{"Baseline", false, func(o Options) (*Result, error) {
			return Baseline(c, trials, o)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewMetrics()
			res, err := tc.run(Options{Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Counter(obs.Ops); got != res.Ops {
				t.Errorf("metrics ops = %d, Result.Ops = %d", got, res.Ops)
			}
			if tc.sharing && res.Ops != static {
				t.Errorf("ops = %d, want static plan count %d", res.Ops, static)
			}
			if got := rec.Counter(obs.TrialsEmitted); got != int64(len(trials)) {
				t.Errorf("metrics trials emitted = %d, want %d", got, len(trials))
			}
			if got := rec.Gauge(obs.MSVHighWater); got != int64(res.MSV) {
				t.Errorf("metrics MSV high-water = %d, Result.MSV = %d", got, res.MSV)
			}
			if tc.name != "Baseline" {
				if got := rec.Counter(obs.Copies); got != res.Copies {
					t.Errorf("metrics copies = %d, Result.Copies = %d", got, res.Copies)
				}
			}
		})
	}
}

// TestRecorderDoesNotPerturbResults runs each executor with and without a
// recorder and demands bit-identical outcomes and identical accounting.
// The subtree executor's MSV is a concurrent high-water mark that depends
// on goroutine interleaving even with no recorder, so for it it is only
// held to the bound the plan and worker count allow.
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	c := bench.QV(4, 3, rand.New(rand.NewSource(9)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 200, 21)
	const workers = 3
	runs := map[string]struct {
		run func(Options) (*Result, error)
		// msvBound is the largest MSV a concurrent run may report; 0
		// marks a sequential executor, whose MSV must match exactly.
		msvBound int
	}{
		"Reordered": {func(o Options) (*Result, error) { return Reordered(c, trials, o) }, 0},
		"Subtree":   {func(o Options) (*Result, error) { return ParallelSubtree(c, trials, workers, o) }, subtreeMSVBound(t, c, trials, workers)},
		"Baseline":  {func(o Options) (*Result, error) { return Baseline(c, trials, o) }, 0},
	}
	for name, r := range runs {
		t.Run(name, func(t *testing.T) {
			bare, err := r.run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			root := trace.New(trace.Config{Seed: 1}).Start("test", trace.SpanContext{})
			instrumented, err := r.run(Options{Recorder: obs.NewMetrics(), Span: root})
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			if !EqualOutcomes(bare, instrumented) {
				t.Error("recorder changed per-trial outcomes")
			}
			if bare.Ops != instrumented.Ops || bare.Copies != instrumented.Copies {
				t.Errorf("recorder changed accounting: ops %d/%d copies %d/%d",
					bare.Ops, instrumented.Ops, bare.Copies, instrumented.Copies)
			}
			if r.msvBound == 0 {
				if bare.MSV != instrumented.MSV {
					t.Errorf("recorder changed MSV: %d/%d", bare.MSV, instrumented.MSV)
				}
				return
			}
			for _, res := range []*Result{bare, instrumented} {
				if res.MSV < 1 || res.MSV > r.msvBound {
					t.Errorf("MSV %d outside [1, %d]", res.MSV, r.msvBound)
				}
			}
		})
	}
}

// subtreeMSVBound is the most vectors an unbudgeted ParallelSubtree can
// hold at once: the trunk's peak stack, up to 2x workers queued entry
// clones, and every worker at the deepest task's peak.
func subtreeMSVBound(t *testing.T, c *circuit.Circuit, trials []*trial.Trial, workers int) int {
	t.Helper()
	ordered := reorder.Sort(trials)
	sp, err := reorder.SplitPlanOrderedCut(c, ordered, chooseCut(ordered, workers), planBudgetFor(0))
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
	for _, st := range sp.Subtrees {
		deepest = max(deepest, st.MSV)
	}
	return sp.TrunkMSV() + 2*workers + workers*deepest
}

// TestTraceDepthMatchesMSV checks the trace's structural view against the
// executor's accounting: for a sequential unbudgeted run, the peak depth
// of the snapshot_push span events is exactly Result.MSV, every push
// event sits on the run's execute_plan span, and pushes and drops
// balance.
func TestTraceDepthMatchesMSV(t *testing.T) {
	c := bench.QV(5, 3, rand.New(rand.NewSource(2)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 350, 8)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewMetrics()
	root := trace.New(trace.Config{Seed: 1, MaxEvents: 1 << 20}).Start("test", trace.SpanContext{})
	res, err := ExecutePlan(c, plan, Options{Recorder: rec, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	peak, pushes := 0, 0
	for _, ev := range spanEvents(root.Trace()) {
		if ev.name != "snapshot_push" {
			continue
		}
		pushes++
		peak = max(peak, int(ev.args["depth"].(int64)))
		if ev.span != "execute_plan" {
			t.Fatalf("sequential snapshot_push event on span %q", ev.span)
		}
	}
	if peak != res.MSV {
		t.Errorf("trace peak depth = %d, Result.MSV = %d", peak, res.MSV)
	}
	if got := rec.Counter(obs.SnapshotPushes); int64(pushes) != got {
		t.Errorf("%d snapshot_push events, snapshot_pushes = %d", pushes, got)
	}
	if p, d := rec.Counter(obs.SnapshotPushes), rec.Counter(obs.SnapshotDrops); p != d {
		t.Errorf("snapshot pushes %d != drops %d", p, d)
	}
	if res.MSV != plan.MSV() {
		t.Errorf("Result.MSV = %d, plan.MSV() = %d", res.MSV, plan.MSV())
	}
}

// TestKernelSweepsRecorded checks that compiled-program execution reports
// kernel sweeps without disturbing the logical-op invariant.
func TestKernelSweepsRecorded(t *testing.T) {
	c := bench.QV(5, 3, rand.New(rand.NewSource(4)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 150, 3)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewMetrics()
	res, err := ExecutePlan(c, plan, Options{
		Fuse: statevec.FuseNumeric, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != plan.OptimizedOps() {
		t.Errorf("fused ops = %d, want %d", res.Ops, plan.OptimizedOps())
	}
	if rec.Counter(obs.KernelSweeps) == 0 {
		t.Error("no kernel sweeps recorded under fused execution")
	}
}

// TestSubtreeSpawnAccounting: the subtree executor's spawn counter equals
// the split plan's task count, and every spawn event sits on the trunk
// span.
func TestSubtreeSpawnAccounting(t *testing.T) {
	c := bench.QV(5, 4, rand.New(rand.NewSource(6)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 300, 17)
	ordered := reorder.Sort(trials)
	sp, err := reorder.SplitPlanOrderedCut(c, ordered, 1, planBudgetFor(0))
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewMetrics()
	root := trace.New(trace.Config{Seed: 1, MaxEvents: 1 << 20}).Start("test", trace.SpanContext{})
	res, err := ExecuteSplitPlan(c, sp, 4, Options{Recorder: metrics, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if got := metrics.Counter(obs.TasksSpawned); got != int64(len(sp.Subtrees)) {
		t.Errorf("tasks spawned = %d, split plan has %d subtrees", got, len(sp.Subtrees))
	}
	if got := metrics.Counter(obs.Ops); got != res.Ops {
		t.Errorf("metrics ops = %d, Result.Ops = %d", got, res.Ops)
	}
	spawns := 0
	for _, ev := range spanEvents(root.Trace()) {
		if ev.name != "spawn" {
			continue
		}
		spawns++
		if ev.span != "trunk" {
			t.Errorf("spawn event on span %q, want trunk", ev.span)
		}
	}
	if spawns == 0 || spawns != len(sp.Subtrees) {
		t.Errorf("trace has %d spawn events, want %d", spawns, len(sp.Subtrees))
	}
}
