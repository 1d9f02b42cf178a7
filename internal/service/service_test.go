package service

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/statevec"
	"repro/internal/trace"
)

// newTestServer starts a Server plus an httptest front end and returns a
// client bound to it. The process-global segment cache is reset so each
// test observes its own sharing.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	statevec.ResetSegmentCache()
	t.Cleanup(statevec.ResetSegmentCache)
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, NewClient(ts.URL, ts.Client())
}

func testReq(tenant string, seed int64) JobRequest {
	return JobRequest{Tenant: tenant, Bench: "bv5", Trials: 192, Seed: seed}
}

// numericReq is testReq with fuse "numeric", the mode that compiles
// segments through the shared cache; the default, "off", compiles nothing.
func numericReq(tenant string, seed int64) JobRequest {
	r := testReq(tenant, seed)
	r.Fuse = "numeric"
	return r
}

// TestSubmitPollResultBitIdentical: a job submitted over HTTP produces
// exactly the histogram a direct in-process core.Run gives for the same
// configuration — the daemon adds scheduling and sharing, never changes
// results.
func TestSubmitPollResultBitIdentical(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	v, err := c.Run(ctx, testReq("alice", 7))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", v.State, v.Error)
	}
	if v.Fuse != "off" || v.Policy != "snapshot" {
		t.Fatalf("job reports fuse %q policy %q, want the defaults off and snapshot", v.Fuse, v.Policy)
	}

	circ, err := bench.Build("bv5", 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(core.Config{
		Circuit: circ,
		Device:  device.Yorktown(),
		Trials:  192,
		Seed:    7,
		Mode:    core.ModeReordered,
		Fuse:    statevec.FuseOff,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := FormatCounts(rep.Reordered.Counts, rep.Circuit)
	if len(v.Counts) != len(want) {
		t.Fatalf("daemon histogram has %d outcomes, direct run %d", len(v.Counts), len(want))
	}
	for bits, n := range want {
		if v.Counts[bits] != n {
			t.Fatalf("outcome %s: daemon %d, direct %d", bits, v.Counts[bits], n)
		}
	}
	if v.Ops != rep.Reordered.Ops {
		t.Fatalf("daemon ops %d, direct %d", v.Ops, rep.Reordered.Ops)
	}
}

// TestCrossRequestSegmentSharing: the second identical submission reuses
// every compiled segment the first one published — segcache hits > 0 and
// zero misses — and still returns a bit-identical histogram.
func TestCrossRequestSegmentSharing(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	first, err := c.Run(ctx, numericReq("alice", 3))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.SegCacheMisses == 0 {
		t.Fatalf("first job compiled nothing (misses 0) — cache not exercised")
	}
	second, err := c.Run(ctx, numericReq("bob", 3))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if second.SegCacheHits == 0 {
		t.Fatalf("second identical job had 0 segcache hits, want > 0 (first: %d misses)", first.SegCacheMisses)
	}
	if second.SegCacheMisses != 0 {
		t.Fatalf("second identical job recompiled %d segments, want 0", second.SegCacheMisses)
	}
	for bits, n := range first.Counts {
		if second.Counts[bits] != n {
			t.Fatalf("outcome %s differs across tenants: %d vs %d", bits, n, second.Counts[bits])
		}
	}
}

// TestConcurrentSubmissionsShare: two tenants submitting the same circuit
// concurrently against a warm cache both hit, and their histograms agree
// bit-for-bit.
func TestConcurrentSubmissionsShare(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.Run(ctx, numericReq("warmup", 3)); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	var wg sync.WaitGroup
	views := make([]*JobView, 2)
	errs := make([]error, 2)
	for i, tenant := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			views[i], errs[i] = c.Run(ctx, numericReq(tenant, 3))
		}(i, tenant)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	for i, v := range views {
		if v.SegCacheHits == 0 || v.SegCacheMisses != 0 {
			t.Fatalf("concurrent job %d: (hits %d, misses %d), want all-hit", i, v.SegCacheHits, v.SegCacheMisses)
		}
	}
	for bits, n := range views[0].Counts {
		if views[1].Counts[bits] != n {
			t.Fatalf("concurrent outcome %s differs: %d vs %d", bits, n, views[1].Counts[bits])
		}
	}
	if st := s.Stats(); st.SegCache.Hits == 0 {
		t.Fatalf("daemon stats show 0 segcache hits after shared runs")
	}
}

// TestDefaultRequestRunsDispatch: a request that names no fuse mode runs
// FuseOff — it makes no segment-cache lookups — and its histogram, ops and
// copies equal a direct core.Run under FuseOff.
func TestDefaultRequestRunsDispatch(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req := JobRequest{Tenant: "alice", Bench: "qv_n5d3", Trials: 256, Seed: 11}
	v, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", v.State, v.Error)
	}
	if v.SegCacheHits != 0 || v.SegCacheMisses != 0 {
		t.Fatalf("default job made segcache lookups (hits %d, misses %d), want none", v.SegCacheHits, v.SegCacheMisses)
	}
	if st := s.Stats(); st.SegCache.Hits != 0 || st.SegCache.Misses != 0 {
		t.Fatalf("daemon segcache (hits %d, misses %d) after a default job, want untouched", st.SegCache.Hits, st.SegCache.Misses)
	}

	circ, err := bench.Build(req.Bench, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(core.Config{
		Circuit: circ,
		Device:  device.Yorktown(),
		Trials:  req.Trials,
		Seed:    req.Seed,
		Mode:    core.ModeReordered,
		Fuse:    statevec.FuseOff,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := FormatCounts(rep.Reordered.Counts, rep.Circuit)
	if !maps.Equal(v.Counts, want) {
		t.Fatalf("daemon histogram %v, direct %v", v.Counts, want)
	}
	if v.Ops != rep.Reordered.Ops || v.Copies != rep.Reordered.Copies {
		t.Fatalf("daemon ops %d copies %d, direct ops %d copies %d",
			v.Ops, v.Copies, rep.Reordered.Ops, rep.Reordered.Copies)
	}
}

// TestWorkersServeMixedShapes: two workers, each reusing one Runner
// across its jobs, serve jobs whose shapes grow and shrink (trials 64 to
// 2,048, five circuits, both fuse modes, every restore policy, a budget,
// executor workers), and every histogram, op and copy count equals a
// direct core.Run of the same configuration.
func TestWorkersServeMixedShapes(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	benches := []string{"qv_n5d5", "bv5", "qft5", "grover", "qv_n5d3"}
	trials := []int{2048, 64, 1024, 128, 512, 96}
	var reqs []JobRequest
	for i := range 18 {
		req := JobRequest{Tenant: []string{"alice", "bob"}[i%2], Bench: benches[i%len(benches)],
			Trials: trials[i%len(trials)], Seed: int64(i + 1)}
		switch i % 6 {
		case 1:
			req.Fuse = "numeric"
		case 2:
			req.Policy = "uncompute"
		case 3:
			req.Policy, req.Budget = "adaptive", 1
		case 4:
			req.Budget = 2
		case 5:
			req.Workers = 2
		}
		reqs = append(reqs, req)
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		id, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		v, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if v.State != StateDone {
			t.Fatalf("job %d: state %q (err %q), want done", i, v.State, v.Error)
		}
		req := reqs[i]
		cfg, err := s.buildConfig(&req)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := FormatCounts(rep.Reordered.Counts, rep.Circuit); !maps.Equal(v.Counts, want) {
			t.Fatalf("job %d (%s, %d trials): daemon histogram %v, direct %v", i, req.Bench, req.Trials, v.Counts, want)
		}
		if v.Ops != rep.Reordered.Ops || v.Copies != rep.Reordered.Copies {
			t.Fatalf("job %d: daemon ops %d copies %d, direct ops %d copies %d",
				i, v.Ops, v.Copies, rep.Reordered.Ops, rep.Reordered.Copies)
		}
	}
}

// TestQueueFull429: with no workers draining the queue, submissions
// beyond QueueCap are rejected with 429 and counted.
func TestQueueFull429(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 0, QueueCap: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, testReq("alice", int64(i+1))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := c.Submit(ctx, testReq("alice", 9))
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("third submit: got %v, want HTTP 429", err)
	}
	st := s.Stats()
	if st.Jobs.Rejected != 1 || st.Jobs.Accepted != 2 {
		t.Fatalf("counters (accepted %d, rejected %d), want (2, 1)", st.Jobs.Accepted, st.Jobs.Rejected)
	}
	if st.Queue.Depth != 2 || st.Queue.HighWater != 2 {
		t.Fatalf("queue (depth %d, high-water %d), want (2, 2)", st.Queue.Depth, st.Queue.HighWater)
	}
}

// TestBadRequest400: malformed submissions fail synchronously.
func TestBadRequest400(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 0, QueueCap: 2})
	ctx := context.Background()
	for name, req := range map[string]JobRequest{
		"no circuit":  {Trials: 8},
		"both":        {Bench: "bv5", QASM: "OPENQASM 2.0;", Trials: 8},
		"zero trials": {Bench: "bv5"},
		"bad bench":   {Bench: "no-such-bench", Trials: 8},
		"fuse bad":    {Bench: "bv5", Trials: 8, Fuse: "sideways"},
		"fuse exact":  {Bench: "bv5", Trials: 8, Fuse: "exact"}, // the removed exact fusion
	} {
		_, err := c.Submit(ctx, req)
		var ae *APIError
		if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("%s: got %v, want HTTP 400", name, err)
		}
		if strings.HasPrefix(name, "fuse") && !strings.Contains(ae.Msg, "(off, numeric)") {
			t.Errorf("%s: message %q does not name the valid modes", name, ae.Msg)
		}
	}
}

// TestTooWideCircuit400: a circuit wider than a state vector can hold is
// refused at admission, before anything sizes an allocation from it.
func TestTooWideCircuit400(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ctx := context.Background()
	wide := fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n",
		statevec.MaxQubits+10)
	for name, req := range map[string]JobRequest{
		"qreg":           {QASM: wide, Trials: 8},
		"device qubits":  {Bench: "bv5", Trials: 8, Device: "artificial", Qubits: 1 << 20},
		"negative width": {Bench: "bv5", Trials: 8, Device: "artificial", Qubits: -1},
	} {
		_, err := c.Submit(ctx, req)
		var ae *APIError
		if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("%s: got %v, want HTTP 400", name, err)
		}
	}
}

// TestRunCaps400: trials and workers above their statevec caps are
// rejected at admission with HTTP 400 naming the limit; at the cap they
// are admitted.
func TestRunCaps400(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	ctx := context.Background()
	for name, tc := range map[string]struct {
		req   JobRequest
		limit string
	}{
		"trials":  {JobRequest{Bench: "bv5", Trials: statevec.MaxTrials + 1}, "MaxTrials"},
		"workers": {JobRequest{Bench: "bv5", Trials: 8, Workers: statevec.MaxWorkers + 1}, "MaxWorkers"},
	} {
		_, err := c.Submit(ctx, tc.req)
		var ae *APIError
		if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("%s: got %v, want HTTP 400", name, err)
		}
		if !strings.Contains(ae.Error(), tc.limit) {
			t.Errorf("%s: error %q does not name %s", name, ae.Error(), tc.limit)
		}
	}
	for name, req := range map[string]JobRequest{
		"workers": {Bench: "bv5", Trials: 8, Workers: statevec.MaxWorkers},
	} {
		if _, err := c.Submit(ctx, req); err != nil {
			t.Errorf("%s at the cap: %v", name, err)
		}
	}
}

// TestFinishedJobDropsWorkingSet: a finished job still answers GET
// /v1/jobs/{id} with its counts and ops, but no longer holds its circuit,
// its QASM source or its spans.
func TestFinishedJobDropsWorkingSet(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, TraceSeed: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	qasm := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
	id, err := c.Submit(ctx, JobRequest{QASM: qasm, Trials: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.WaitJob(ctx, id)
	if err != nil || done.State != StateDone {
		t.Fatalf("WaitJob: %+v, %v", done, err)
	}
	v, err := c.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || len(v.Counts) == 0 || v.Ops == 0 || v.Trials != 64 {
		t.Fatalf("finished job view %+v, want done with counts, ops and 64 trials", v)
	}
	s.mu.Lock()
	j := s.jobs[id]
	circ, span, queueSpan, src := j.cfg.Circuit, j.span, j.queueSpan, j.req.QASM
	s.mu.Unlock()
	if circ != nil || span != nil || queueSpan != nil || src != "" {
		t.Errorf("finished job still references circuit %v, span %v, queue span %v, qasm %d bytes",
			circ != nil, span != nil, queueSpan != nil, len(src))
	}
}

// TestJobPanicRecovered: a job that panics fails alone — its error is on
// the job and its trace — and the daemon goes on serving the next job.
func TestJobPanicRecovered(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, TraceSeed: 3})
	s.run = func(r *core.Runner, cfg core.Config) (*core.Report, error) {
		if cfg.Seed == 13 {
			panic("boom")
		}
		return r.Run(cfg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	v, err := c.Run(ctx, testReq("alice", 13))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v.State != StateFailed || !strings.Contains(v.Error, "boom") {
		t.Fatalf("panicking job: state %q error %q, want failed with the panic", v.State, v.Error)
	}
	var sums []trace.Summary
	getJSON(t, c, "/v1/traces", &sums)
	kept := false
	for _, sum := range sums {
		kept = kept || (sum.TraceID == v.TraceID && sum.Error)
	}
	if !kept {
		t.Fatalf("trace %s of the panicking job not kept as an error trace (%d summaries)", v.TraceID, len(sums))
	}
	if body := getBody(t, c, "/v1/traces/"+v.TraceID); !strings.Contains(string(body), "boom") {
		t.Fatal("exported trace does not carry the panic")
	}

	v, err = c.Run(ctx, testReq("bob", 5))
	if err != nil || v.State != StateDone {
		t.Fatalf("job after the panic: %v, state %q (err %q), want done", err, v.State, v.Error)
	}
	if st := s.Stats(); st.Jobs.Failed != 1 || st.Jobs.Completed != 1 {
		t.Fatalf("jobs failed %d completed %d, want 1 and 1", st.Jobs.Failed, st.Jobs.Completed)
	}
}

// TestRoundRobinFairness: workers pop tenants in rotation, so one
// tenant's backlog cannot starve another's single job.
func TestRoundRobinFairness(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 0, QueueCap: 16})
	submit := func(tenant string, seed int64) string {
		t.Helper()
		id, err := s.Submit(testReq(tenant, seed))
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		return id
	}
	a1 := submit("alice", 1)
	a2 := submit("alice", 2)
	a3 := submit("alice", 3)
	b1 := submit("bob", 1)
	c1 := submit("carol", 1)

	want := []string{a1, b1, c1, a2, a3}
	for i, wantID := range want {
		j := s.next(0)
		if j == nil {
			t.Fatalf("next %d: nil", i)
		}
		if j.id != wantID {
			t.Fatalf("pop %d: got %s (tenant %s), want %s", i, j.id, j.tenant, wantID)
		}
	}
}

// TestDrainCompletesAdmittedJobs: drain finishes everything already
// admitted (running and queued), then refuses new work with 503.
func TestDrainCompletesAdmittedJobs(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	ids := make([]string, 3)
	for i := range ids {
		id, err := c.Submit(ctx, testReq("alice", int64(i+1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		v, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("job %s finished drain in state %q, want done", id, v.State)
		}
	}
	_, err := c.Submit(ctx, testReq("alice", 99))
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: got %v, want HTTP 503", err)
	}
	resp, err := http.Get(strings.TrimSuffix(c.base, "/") + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}
}

// TestMetricsExposition: /metrics serves a valid Prometheus document with
// the aggregate job and one job per tenant, and the daemon counters
// (jobs_completed, segcache hits) appear in it.
func TestMetricsExposition(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for _, tenant := range []string{"alice", "bob"} {
		if _, err := c.Run(ctx, numericReq(tenant, 3)); err != nil {
			t.Fatalf("%s: %v", tenant, err)
		}
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		`repro_jobs_completed_total{job="qsimd"} 2`,
		`repro_jobs_completed_total{job="tenant:alice"} 1`,
		`repro_jobs_completed_total{job="tenant:bob"} 1`,
		`repro_job_latency_ns_count{job="qsimd"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	// The shared caches must show activity for the second tenant.
	if !strings.Contains(body, `repro_segcache_hits_total{job="tenant:bob"}`) {
		t.Fatalf("exposition missing per-tenant segcache series")
	}
}

// TestJobFailureReported: a job that fails at run time (not admission)
// lands in state failed with its error and bumps jobs_failed.
func TestJobFailureReported(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// An 8-qubit QASM program parses at admission but fails at run time
	// on the 5-qubit Yorktown device.
	qasm := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[8];\ncreg c[8];\nh q[0];\nmeasure q[0] -> c[0];\n"
	v, err := c.Run(ctx, JobRequest{Tenant: "alice", QASM: qasm, Trials: 4})
	if err != nil {
		var ae *APIError
		if asAPIError(err, &ae) && ae.Status == http.StatusBadRequest {
			t.Skip("width mismatch rejected at admission; run-time failure path covered elsewhere")
		}
		t.Fatalf("run: %v", err)
	}
	if v.State != StateFailed {
		t.Fatalf("state %q, want failed", v.State)
	}
	if v.Error == "" {
		t.Fatal("failed job carries no error")
	}
	if st := s.Stats(); st.Jobs.Failed != 1 {
		t.Fatalf("jobs failed %d, want 1", st.Jobs.Failed)
	}
}

// TestPoolSharedAcrossJobs: the daemon's arena stays warm across jobs —
// the second job's run draws buffers the first released — and stays
// within its retention bound.
func TestPoolSharedAcrossJobs(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, PoolRetain: 16})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.Run(ctx, testReq("alice", 3)); err != nil {
		t.Fatal(err)
	}
	h1, _ := s.Pool().Stats()
	if _, err := c.Run(ctx, testReq("alice", 3)); err != nil {
		t.Fatal(err)
	}
	h2, _ := s.Pool().Stats()
	if h2 <= h1 {
		t.Fatalf("second job drew no pooled buffers (hits %d -> %d)", h1, h2)
	}
	if got := s.Pool().Retained(); got > 16*8 {
		t.Fatalf("pool retains %d buffers across classes; retention cap 16 per class not biting", got)
	}
}

// TestStatsEndpoint: /v1/stats reflects the shared state.
func TestStatsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.Run(ctx, numericReq("alice", 3)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegCache.Misses == 0 {
		t.Fatal("stats report no segment compilations after a job")
	}
	if st.Jobs.Completed != 1 {
		t.Fatalf("stats completed %d, want 1", st.Jobs.Completed)
	}
	if len(st.Tenants) != 1 || st.Tenants[0] != "alice" {
		t.Fatalf("tenants %v, want [alice]", st.Tenants)
	}
}

// TestJobListing: GET /v1/jobs returns all jobs in admission order.
func TestJobListing(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 0, QueueCap: 8})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		req := testReq(fmt.Sprintf("t%d", i), 1)
		if i == 1 {
			req.Fuse, req.Policy = "numeric", "uncompute"
		}
		id, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var views []JobView
	if err := c.getJSON(ctx, "/v1/jobs", &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(views))
	}
	for i, v := range views {
		if v.ID != ids[i] {
			t.Fatalf("listing order: got %s at %d, want %s", v.ID, i, ids[i])
		}
		if v.State != StateQueued {
			t.Fatalf("job %s state %q, want queued (no workers)", v.ID, v.State)
		}
		wantFuse, wantPolicy := "off", "snapshot"
		if i == 1 {
			wantFuse, wantPolicy = "numeric", "uncompute"
		}
		if v.Fuse != wantFuse || v.Policy != wantPolicy {
			t.Fatalf("job %s lists fuse %q policy %q, want %q %q", v.ID, v.Fuse, v.Policy, wantFuse, wantPolicy)
		}
	}
}

// TestJobRetentionBounded: over many more jobs than the retention cap the
// job table and the listing stay bounded, the oldest finished jobs are
// evicted first and answer 404, and queued and running jobs are never
// evicted however old they are.
func TestJobRetentionBounded(t *testing.T) {
	const keep = 3
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	s.mu.Lock()
	s.retain = keep
	s.mu.Unlock()
	// Jobs with seed 1 and 2 run until their gate closes.
	gates := map[int64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	s.run = func(r *core.Runner, cfg core.Config) (*core.Report, error) {
		if g := gates[cfg.Seed]; g != nil {
			<-g
		}
		return r.Run(cfg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	opened := map[int64]bool{}
	open := func(seed int64) {
		if !opened[seed] {
			opened[seed] = true
			close(gates[seed])
		}
	}
	defer open(1)
	defer open(2)
	submit := func(seed int64) string {
		t.Helper()
		id, err := c.Submit(ctx, testReq("alice", seed))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	state := func(id string) JobState {
		t.Helper()
		v, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("GET %s: %v", id, err)
		}
		return v.State
	}
	waitState := func(id string, want JobState) {
		t.Helper()
		for state(id) != want {
			if ctx.Err() != nil {
				t.Fatalf("job %s never reached %q", id, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	retained := func() (int, int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs), len(s.order)
	}

	// A running job older than everything else, then N >> keep jobs
	// through the other worker.
	running := submit(1)
	waitState(running, StateRunning)
	const n = 40
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submit(int64(10 + i))
		if _, err := s.WaitJob(ctx, ids[i]); err != nil {
			t.Fatal(err)
		}
		if jobs, order := retained(); jobs > keep+1 || order > keep+1 {
			t.Fatalf("after %d jobs the table holds %d jobs and %d listed, want at most %d", i+1, jobs, order, keep+1)
		}
	}
	if got := state(running); got != StateRunning {
		t.Fatalf("running job %s is %q", running, got)
	}
	for i, id := range ids {
		_, err := c.Job(ctx, id)
		var ae *APIError
		evicted := asAPIError(err, &ae) && ae.Status == http.StatusNotFound
		if want := i < n-keep; evicted != want {
			t.Fatalf("job %d (%s): evicted %v, want %v (err %v)", i, id, evicted, want, err)
		}
	}
	var views []JobView
	if err := c.getJSON(ctx, "/v1/jobs", &views); err != nil {
		t.Fatal(err)
	}
	want := append([]string{running}, ids[n-keep:]...)
	if len(views) != len(want) {
		t.Fatalf("listed %d jobs, want %d", len(views), len(want))
	}
	for i, v := range views {
		if v.ID != want[i] {
			t.Fatalf("listing[%d] = %s, want %s", i, v.ID, want[i])
		}
	}

	// Block the second worker too and queue a job behind both; finishing
	// the first running job evicts a finished one, not the queued job
	// nor the job still running.
	running2 := submit(2)
	waitState(running2, StateRunning)
	queued := submit(99)
	open(1)
	if _, err := s.WaitJob(ctx, running); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running2, queued} {
		if st := state(id); st != StateRunning && st != StateQueued && st != StateDone {
			t.Fatalf("job %s is %q", id, st)
		}
	}
	if jobs, _ := retained(); jobs > keep+2 {
		t.Fatalf("table holds %d jobs, want at most %d finished plus 2 unfinished", jobs, keep)
	}
	open(2)
	for _, id := range []string{running2, queued} {
		if _, err := s.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if jobs, order := retained(); jobs != keep || order != keep {
		t.Fatalf("finally %d jobs and %d listed, want %d", jobs, order, keep)
	}
}
