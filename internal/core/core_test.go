package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trial"
)

func TestRunValidation(t *testing.T) {
	d := device.Yorktown()
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-3, 1e-2, 1e-2)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no circuit", Config{Device: d, Trials: 10}},
		{"both device and model", Config{Circuit: c, Device: d, Model: m, Trials: 10}},
		{"neither device nor model", Config{Circuit: c, Trials: 10}},
		{"zero trials", Config{Circuit: c, Model: m}},
		{"bad mode", Config{Circuit: c, Model: m, Trials: 10, Mode: Mode(99)}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestRunRejectsRemovedExecutors: the deprecated fields that selected the
// batched SoA lane executor and the chunked parallel executor make Run
// fail with an error naming the field, instead of running another
// executor in their place.
func TestRunRejectsRemovedExecutors(t *testing.T) {
	base := Config{Circuit: bench.BV(4, 0b111), Model: noise.Uniform("u", 4, 1e-3, 1e-2, 1e-2),
		Trials: 16, Seed: 1, Mode: ModeReordered}
	for _, tc := range []struct {
		name, field string
		set         func(*Config)
	}{
		{"lanes-4", "BatchLanes", func(c *Config) { c.BatchLanes = 4 }},
		{"lanes-4/2w", "BatchLanes", func(c *Config) { c.BatchLanes, c.Workers = 4, 2 }},
		{"chunked/2w", "ChunkedParallel", func(c *Config) { c.ChunkedParallel, c.Workers = true, 2 }},
	} {
		cfg := base
		tc.set(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.field)
		}
	}
	if _, err := Run(base); err != nil {
		t.Fatalf("plain config: %v", err)
	}
}

func TestRunStatic(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-3, 1e-2, 1e-2)
	rep, err := Run(Config{Circuit: c, Model: m, Trials: 512, Seed: 1, Mode: ModeStatic})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline != nil || rep.Reordered != nil {
		t.Error("static mode executed a simulation")
	}
	if rep.Analysis.Trials != 512 {
		t.Errorf("analysis trials = %d", rep.Analysis.Trials)
	}
	if rep.Analysis.Saving <= 0 {
		t.Errorf("saving = %g, want > 0", rep.Analysis.Saving)
	}
	if len(rep.Trials) != 512 {
		t.Errorf("trials = %d", len(rep.Trials))
	}
}

func TestRunBothModesAgree(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", 3, 5e-3, 5e-2, 2e-2)
	rep, err := Run(Config{Circuit: c, Model: m, Trials: 200, Seed: 2, Mode: ModeBoth})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline == nil || rep.Reordered == nil {
		t.Fatal("both mode missing a result")
	}
	if !sim.EqualOutcomes(rep.Baseline, rep.Reordered) {
		t.Error("baseline and reordered outcomes differ")
	}
	if rep.Reordered.Ops != rep.Analysis.OptimizedOps {
		t.Errorf("executed ops %d != static %d", rep.Reordered.Ops, rep.Analysis.OptimizedOps)
	}
	if rep.MeasuredSaving() <= 0 {
		t.Errorf("measured saving = %g", rep.MeasuredSaving())
	}
}

// TestParallelRunCountsPlan: a parallel run's Report.Plan is counted,
// not built. Its Analysis equals a sequential run's on the same seed,
// unbudgeted and under a snapshot budget, its Steps are nil, and the
// parallel executor still runs exactly its OptimizedOps.
func TestParallelRunCountsPlan(t *testing.T) {
	c := bench.QFT(5)
	m := noise.Uniform("u", 5, 5e-3, 3e-2, 1e-2)
	for _, budget := range []int{0, 2} {
		run := func(workers int) *Report {
			rep, err := Run(Config{Circuit: c, Model: m, Trials: 1024, Seed: 9, Mode: ModeReordered, Workers: workers, SnapshotBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		seq, par := run(1), run(3)
		if par.Analysis != seq.Analysis {
			t.Errorf("budget %d: 3-worker analysis %+v, sequential %+v", budget, par.Analysis, seq.Analysis)
		}
		if par.Plan.Steps != nil {
			t.Errorf("budget %d: 3-worker plan has %d steps, want none", budget, len(par.Plan.Steps))
		}
		if len(seq.Plan.Steps) == 0 {
			t.Errorf("budget %d: sequential plan has no steps", budget)
		}
		if budget == 0 && par.Reordered.Ops != par.Plan.OptimizedOps() {
			t.Errorf("3 workers executed %d ops, plan has %d", par.Reordered.Ops, par.Plan.OptimizedOps())
		}
		if !sim.EqualOutcomes(seq.Reordered, par.Reordered) {
			t.Errorf("budget %d: 3-worker outcomes differ from sequential", budget)
		}
	}
}

func TestRunWithTranspile(t *testing.T) {
	d := device.Yorktown()
	c := bench.QFT(5)
	rep, err := Run(Config{Circuit: c, Device: d, Transpile: true, Trials: 128, Seed: 3, Mode: ModeReordered})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transpile == nil {
		t.Fatal("transpile result missing")
	}
	for _, op := range rep.Circuit.Ops() {
		if op.Gate.Qubits() == 2 && !d.Coupled(op.Qubits[0], op.Qubits[1]) {
			t.Errorf("uncoupled op in mapped circuit: %s", op)
		}
	}
	if rep.Reordered == nil {
		t.Error("reordered result missing")
	}
}

func TestRunDeterministicSeeds(t *testing.T) {
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 2e-2)
	a, err := Run(Config{Circuit: c, Model: m, Trials: 300, Seed: 7, Mode: ModeStatic})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Circuit: c, Model: m, Trials: 300, Seed: 7, Mode: ModeStatic})
	if err != nil {
		t.Fatal(err)
	}
	if a.Analysis != b.Analysis {
		t.Errorf("same seed gave different analyses: %+v vs %+v", a.Analysis, b.Analysis)
	}
	c2, err := Run(Config{Circuit: c, Model: m, Trials: 300, Seed: 8, Mode: ModeStatic})
	if err != nil {
		t.Fatal(err)
	}
	if a.Analysis == c2.Analysis {
		t.Error("different seeds gave identical analyses (suspicious)")
	}
}

func TestRunBaselineOnly(t *testing.T) {
	c := bench.RB2()
	m := noise.Uniform("u", 2, 1e-2, 5e-2, 1e-2)
	rep, err := Run(Config{Circuit: c, Model: m, Trials: 100, Seed: 4, Mode: ModeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline == nil || rep.Reordered != nil {
		t.Error("baseline mode results wrong")
	}
	if rep.MeasuredSaving() != rep.Analysis.Saving {
		t.Error("MeasuredSaving should fall back to static analysis")
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeStatic: "static", ModeBaseline: "baseline",
		ModeReordered: "reordered", ModeBoth: "both",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Mode %d = %q, want %q", m, m.String(), want)
		}
	}
}

func TestRunParallelWorkers(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 5e-3, 5e-2, 1e-2)
	seq, err := Run(Config{Circuit: c, Model: m, Trials: 400, Seed: 5, Mode: ModeReordered})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Config{Circuit: c, Model: m, Trials: 400, Seed: 5, Mode: ModeReordered, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.EqualOutcomes(seq.Reordered, par.Reordered) {
		t.Error("parallel workers changed outcomes")
	}
}

func TestRunSnapshotBudget(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", 3, 5e-3, 5e-2, 1e-2)
	rep, err := Run(Config{Circuit: c, Model: m, Trials: 300, Seed: 6, Mode: ModeReordered, SnapshotBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reordered.MSV > 1 {
		t.Errorf("MSV %d exceeds budget 1", rep.Reordered.MSV)
	}
	// Budget and workers combine: each parallel component's stack is
	// capped, and outcomes stay identical to the sequential run.
	par, err := Run(Config{Circuit: c, Model: m, Trials: 300, Seed: 6, Mode: ModeReordered, SnapshotBudget: 2, Workers: 3})
	if err != nil {
		t.Fatalf("budget+workers: %v", err)
	}
	if !sim.EqualOutcomes(rep.Reordered, par.Reordered) {
		t.Error("budgeted parallel outcomes differ from budgeted sequential")
	}
}

func TestRunErrorModeOption(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 0)
	pg, err := Run(Config{Circuit: c, Model: m, Trials: 2000, Seed: 7, Mode: ModeStatic, ErrorMode: trial.PerGate})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := Run(Config{Circuit: c, Model: m, Trials: 2000, Seed: 7, Mode: ModeStatic, ErrorMode: trial.PerQubit})
	if err != nil {
		t.Fatal(err)
	}
	// Per-qubit mode doubles the two-qubit slots, so more errors per
	// trial and less saving.
	if pq.TrialStats.MeanErrors <= pg.TrialStats.MeanErrors {
		t.Errorf("per-qubit mean errors %g not above per-gate %g",
			pq.TrialStats.MeanErrors, pg.TrialStats.MeanErrors)
	}
}

// TestRunSpanChildrenInOrder: a traced Run opens one child span per
// pipeline phase under the caller's span, in pipeline order, sequential
// or parallel.
func TestRunSpanChildrenInOrder(t *testing.T) {
	want := []string{"transpile", "trial_gen", "sort", "plan_build", "execute"}
	for _, workers := range []int{1, 2} {
		tracer := trace.New(trace.Config{Seed: 1})
		root := tracer.Start("job", trace.SpanContext{})
		_, err := Run(Config{
			Circuit: bench.BV(5, 0b1111), Device: device.Yorktown(), Transpile: true,
			Trials: 256, Seed: 1, Mode: ModeReordered, Workers: workers, Span: root,
		})
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ev := range root.Trace().Chrome().TraceEvents {
			if ev.Cat == "span" && ev.Args["parent_id"] == root.IDString() {
				got = append(got, ev.Name)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("workers=%d: Run's child spans are %v, want %v", workers, got, want)
		}
	}
}
