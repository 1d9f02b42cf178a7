package obs

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestMetricsCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	m.Add(Ops, 5)
	m.Add(Ops, 7)
	m.Add(SnapshotPushes, 3)
	m.SetMax(MSVHighWater, 4)
	m.SetMax(MSVHighWater, 2) // must not lower the high-water
	m.PhaseDone(PhaseExecute, 10*time.Millisecond)
	m.PhaseDone(PhaseExecute, 5*time.Millisecond)

	if got := m.Counter(Ops); got != 12 {
		t.Errorf("Ops = %d, want 12", got)
	}
	if got := m.Counter(SnapshotPushes); got != 3 {
		t.Errorf("SnapshotPushes = %d, want 3", got)
	}
	if got := m.Gauge(MSVHighWater); got != 4 {
		t.Errorf("MSVHighWater = %d, want 4", got)
	}
	if got := m.PhaseNanos(PhaseExecute); got != int64(15*time.Millisecond) {
		t.Errorf("PhaseExecute = %d ns, want 15ms", got)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add(Copies, 1)
				m.SetMax(MSVHighWater, int64(w*per+i))
			}
		}(w)
	}
	wg.Wait()
	if got := m.Counter(Copies); got != workers*per {
		t.Errorf("Copies = %d, want %d", got, workers*per)
	}
	if got := m.Gauge(MSVHighWater); got != workers*per-1 {
		t.Errorf("MSVHighWater = %d, want %d", got, workers*per-1)
	}
}

func TestSnapshotStableSchema(t *testing.T) {
	s := NewMetrics().Snapshot()
	for c := Counter(0); c < numCounters; c++ {
		if _, ok := s.Counters[c.String()]; !ok {
			t.Errorf("snapshot missing counter %q", c)
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		if _, ok := s.PhaseNs[p.String()]; !ok {
			t.Errorf("snapshot missing phase %q", p)
		}
	}
	if _, ok := s.Gauges[MSVHighWater.String()]; !ok {
		t.Error("snapshot missing msv_high_water")
	}
}

func TestNamesAreUniqueAndNonEmpty(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		if c.String() == "" || seen[c.String()] {
			t.Errorf("counter %d name %q empty or duplicate", c, c)
		}
		seen[c.String()] = true
	}
	for p := Phase(0); p < numPhases; p++ {
		if p.String() == "" || seen[p.String()] {
			t.Errorf("phase %d name %q empty or duplicate", p, p)
		}
		seen[p.String()] = true
	}
}

func TestStartPhaseNilRecorder(t *testing.T) {
	done := StartPhase(nil, PhaseSort)
	done() // must not panic
}

func TestMultiComposition(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live recorders should be nil")
	}
	m := NewMetrics()
	if got := Multi(nil, m); got != Recorder(m) {
		t.Error("Multi with one live recorder should return it directly")
	}
	a, b := NewMetrics(), NewMetrics()
	both := Multi(a, nil, b)
	both.Add(Ops, 2)
	both.SetMax(MSVHighWater, 9)
	both.PhaseDone(PhaseTrialGen, time.Millisecond)
	if a.Counter(Ops) != 2 || b.Counter(Ops) != 2 {
		t.Error("Multi did not fan out Add")
	}
	if a.Gauge(MSVHighWater) != 9 || b.Gauge(MSVHighWater) != 9 {
		t.Error("Multi did not fan out SetMax")
	}
}

func TestRunMetricsRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Add(Ops, 42)
	rm := &RunMetrics{
		Binary:  "qsim",
		Circuit: "qv_n5d3",
		Qubits:  5,
		Trials:  256,
		Seed:    1,
		Mode:    "reordered",
		Plan:    &PlanStatics{BaselineOps: 100, OptimizedOps: 42, Normalized: 0.42, MSV: 3, Copies: 7},
		Result:  &ExecStatics{Ops: 42, Copies: 7, MSV: 3},
		Metrics: m.Snapshot(),
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := WriteRunMetrics(path, rm); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunMetrics(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Binary != "qsim" || got.Plan.OptimizedOps != 42 || got.Result.MSV != 3 {
		t.Errorf("round trip mangled envelope: %+v", got)
	}
	if got.Metrics.Counters[Ops.String()] != 42 {
		t.Errorf("counters lost: %v", got.Metrics.Counters)
	}
}

func TestSuiteScenarios(t *testing.T) {
	s := NewSuite()
	e1 := s.Scenario("fig5", "bv5/1024")
	e1.Metrics.Add(Ops, 10)
	e1.Plan = &PlanStatics{OptimizedOps: 10}
	e2 := s.Scenario("fig5", "bv5/1024")
	if e1 != e2 {
		t.Error("Scenario did not return the existing entry")
	}
	s.Scenario("fig6", "bv5")
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	scs := s.Scenarios()
	if len(scs) != 2 || scs[0].Scenario != "bv5/1024" || scs[0].Metrics.Counters[Ops.String()] != 10 {
		t.Errorf("Scenarios wrong: %+v", scs)
	}
	if scs[1].Plan != nil {
		t.Error("fig6 entry should have no plan statics")
	}
}

func TestStartPprofServesVars(t *testing.T) {
	m := NewMetrics()
	m.Add(KernelSweeps, 3)
	PublishExpvar("obs_test_metrics", m)
	PublishExpvar("obs_test_metrics", m) // duplicate must not panic

	addr, closeFn, err := StartPprof("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn() //nolint:errcheck
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	raw, ok := doc["obs_test_metrics"]
	if !ok {
		t.Fatalf("expvar missing published metrics: have %d keys", len(doc))
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[KernelSweeps.String()] != 3 {
		t.Errorf("scraped KernelSweeps = %d, want 3", snap.Counters[KernelSweeps.String()])
	}
	// pprof index should answer as well.
	pp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", pp.StatusCode)
	}
}
