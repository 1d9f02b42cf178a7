package sim

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// callCounter is a Recorder that counts every call made to it and
// forwards each to a Metrics.
type callCounter struct {
	m     obs.Metrics
	calls atomic.Int64
}

func (r *callCounter) Add(c obs.Counter, d int64)  { r.calls.Add(1); r.m.Add(c, d) }
func (r *callCounter) SetMax(g obs.Gauge, v int64) { r.calls.Add(1); r.m.SetMax(g, v) }
func (r *callCounter) PhaseDone(p obs.Phase, d time.Duration) {
	r.calls.Add(1)
	r.m.PhaseDone(p, d)
}
func (r *callCounter) Observe(h obs.Hist, v int64) { r.calls.Add(1); r.m.Observe(h, v) }
func (r *callCounter) Merge(t *obs.Tally)          { r.calls.Add(1); r.m.Merge(t) }

// TestRecorderCallsIndependentOfSteps: a walk's step events reach the
// Recorder through its sink, one Merge per flush, so the number of
// Recorder calls does not grow with the steps. Two snapshot plans over
// the same circuit and trial count, whose snapshot pushes differ more
// than tenfold (both below the sink's flush interval), make the same
// number of calls, sequentially and subtree-parallel.
func TestRecorderCallsIndependentOfSteps(t *testing.T) {
	c := bench.QV(5, 3, rand.New(rand.NewSource(4)))
	const n = 400
	quiet := genTrials(t, c, noise.Uniform("quiet", 5, 2e-4, 2e-4, 0), n, 1)
	noisy := genTrials(t, c, noise.Uniform("noisy", 5, 1e-2, 1e-2, 0), n, 1)
	executors := map[string]func(trials []*trial.Trial, rec obs.Recorder) (*Result, error){
		"plan": func(trials []*trial.Trial, rec obs.Recorder) (*Result, error) {
			plan, err := reorder.BuildPlan(c, trials)
			if err != nil {
				return nil, err
			}
			return ExecutePlan(c, plan, Options{Recorder: rec})
		},
		"subtree": func(trials []*trial.Trial, rec obs.Recorder) (*Result, error) {
			return ParallelSubtree(c, trials, 2, Options{Recorder: rec})
		},
	}
	for name, exec := range executors {
		var calls, pushes [2]int64
		for i, trials := range [][]*trial.Trial{quiet, noisy} {
			rec := &callCounter{}
			if _, err := exec(trials, rec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			calls[i], pushes[i] = rec.calls.Load(), rec.m.Counter(obs.SnapshotPushes)
			if got := rec.m.Counter(obs.TrialsEmitted); got != n {
				t.Errorf("%s: %d trials emitted, want %d", name, got, n)
			}
		}
		t.Logf("%s: %d and %d pushes, %d and %d Recorder calls", name, pushes[0], pushes[1], calls[0], calls[1])
		if pushes[0] == 0 || pushes[1] < 10*pushes[0] || pushes[1] >= sinkFlushEvery/4 {
			t.Fatalf("%s: pushes %d and %d, want a tenfold spread below the flush interval", name, pushes[0], pushes[1])
		}
		if calls[0] != calls[1] {
			t.Errorf("%s: %d Recorder calls for %d pushes, %d calls for %d pushes", name, calls[0], pushes[0], calls[1], pushes[1])
		}
	}
}

var updateStepEvents = flag.Bool("update-step-events", false, "rewrite testdata/step_events.golden from the current executors")

const stepEventsFile = "testdata/step_events.golden"

// stepEventLines runs the step-event workloads, each under a tracer at
// the default event cap, and returns one line per span that carries
// events — its event count and a digest of its exported events' names and
// attributes in export order — and one line per workload with the
// dropped-event count. It fails unless every span lists its events in
// time order.
func stepEventLines(t *testing.T) []string {
	t.Helper()
	c := bench.QV(5, 4, rand.New(rand.NewSource(9)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 600, 13)
	plan := func(opt Options) (*Result, error) {
		p, err := reorder.BuildPlanBudget(c, trials, opt.planBudget())
		if err != nil {
			return nil, err
		}
		return ExecutePlan(c, p, opt)
	}
	subtree := func(opt Options) (*Result, error) { return ParallelSubtreeCut(c, trials, 2, 2, opt) }
	cases := []struct {
		name string
		exec func(Options) (*Result, error)
		opt  Options
	}{
		{"plan/snapshot", plan, Options{}},
		{"plan/snapshot-budget1", plan, Options{SnapshotBudget: 1}},
		{"plan/uncompute", plan, Options{Policy: PolicyUncompute, Fuse: statevec.FuseNumeric}},
		{"plan/adaptive-budget2", plan, Options{Policy: PolicyAdaptive, SnapshotBudget: 2, Fuse: statevec.FuseNumeric}},
		{"subtree/snapshot-budget1", subtree, Options{SnapshotBudget: 1}},
		{"subtree/adaptive-budget1", subtree, Options{Policy: PolicyAdaptive, SnapshotBudget: 1, Fuse: statevec.FuseNumeric}},
	}
	var lines []string
	for _, tc := range cases {
		root := trace.New(trace.Config{Seed: 1}).Start("test", trace.SpanContext{})
		opt := tc.opt
		opt.Recorder, opt.Span = obs.NewMetrics(), root
		if _, err := tc.exec(opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		root.End()
		tr := root.Trace()
		evs := tr.Chrome().TraceEvents
		type spanEvents struct {
			key    string
			lines  []string
			lastTS float64
		}
		spans := map[any]*spanEvents{}
		for _, ev := range evs {
			if ev.Ph == "X" {
				key := ev.Name
				if task, ok := ev.Args["task"]; ok {
					key = fmt.Sprintf("%s task=%v", key, task)
				}
				spans[ev.Args["span_id"]] = &spanEvents{key: key}
			}
		}
		for _, ev := range evs {
			if ev.Cat != "event" {
				continue
			}
			sp := spans[ev.Args["span_id"]]
			if ev.TS < sp.lastTS {
				t.Errorf("%s: %s lists %s at %.3f us after an event at %.3f us", tc.name, sp.key, ev.Name, ev.TS, sp.lastTS)
			}
			sp.lastTS = ev.TS
			keys := make([]string, 0, len(ev.Args))
			for k := range ev.Args {
				if k != "span_id" {
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			line := ev.Name
			for _, k := range keys {
				line += fmt.Sprintf(" %s=%v", k, ev.Args[k])
			}
			sp.lines = append(sp.lines, line)
		}
		var rows []string
		for _, sp := range spans {
			if len(sp.lines) > 0 {
				sum := sha256.Sum256([]byte(strings.Join(sp.lines, "\n")))
				rows = append(rows, fmt.Sprintf("%s %s events=%d sha=%x", tc.name, sp.key, len(sp.lines), sum[:8]))
			}
		}
		slices.Sort(rows)
		var spansN, spansDropped, events, dropped int64
		header := strings.SplitN(tr.Digest(), "\n", 2)[0]
		if _, err := fmt.Sscanf(header, "span trace: %d spans (%d dropped), %d events (%d dropped)",
			&spansN, &spansDropped, &events, &dropped); err != nil {
			t.Fatalf("%s: digest header %q: %v", tc.name, header, err)
		}
		lines = append(lines, rows...)
		lines = append(lines, fmt.Sprintf("%s events=%d dropped=%d", tc.name, events, dropped))
	}
	return lines
}

// TestStepEventsMatchGolden pins the step events of the Chrome export —
// every span's event names and attributes in time order, and the events
// the per-span cap dropped — to testdata/step_events.golden, recorded
// when every step event was a separate Span.Event call. Run with
// -update-step-events to rewrite the file when a change to the events is
// intended.
func TestStepEventsMatchGolden(t *testing.T) {
	got := stepEventLines(t)
	if *updateStepEvents {
		if err := os.MkdirAll(filepath.Dir(stepEventsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stepEventsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(stepEventsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		for i := 0; i < max(len(got), len(want)); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("line %d:\ngot  %s\nwant %s", i+1, g, w)
			}
		}
	}
}
