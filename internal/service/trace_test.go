package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestTraceEndToEnd drives the full propagation path: a submission with
// a W3C traceparent header joins the caller's trace, the finished job
// reports the trace ID, the kept ring lists it, and the exported Chrome
// JSON is Perfetto-loadable with the request → queue_wait → plan_build →
// execute nesting the dashboarding relies on.
func TestTraceEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, TraceSeed: 42})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	c.Traceparent = "00-" + callerTrace + "-" + callerSpan + "-01"

	v, err := c.Run(ctx, numericReq("alice", 5))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", v.State, v.Error)
	}
	if v.TraceID != callerTrace {
		t.Fatalf("job trace_id %q, want the propagated %q", v.TraceID, callerTrace)
	}

	// The listing names the kept trace.
	var sums []trace.Summary
	getJSON(t, c, "/v1/traces", &sums)
	var sum *trace.Summary
	for i := range sums {
		if sums[i].TraceID == callerTrace {
			sum = &sums[i]
		}
	}
	if sum == nil {
		t.Fatalf("trace %s not in kept ring (%d summaries)", callerTrace, len(sums))
	}
	if sum.Root != "request" || sum.Error || sum.Spans < 6 {
		t.Fatalf("summary = %+v, want root=request, no error, >= 6 spans", *sum)
	}

	// The export is valid Chrome trace-event JSON with the full causal
	// chain and the remote parent carried as parent_external.
	body := getBody(t, c, "/v1/traces/"+callerTrace)
	if err := trace.ValidateChrome(body); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	parentOf := map[string]string{} // span name -> parent span_id
	idOf := map[string]string{}     // span name -> span_id (last wins)
	var rootExternal string
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		names[ev.Name]++
		if id, _ := ev.Args["span_id"].(string); id != "" {
			idOf[ev.Name] = id
		}
		if p, _ := ev.Args["parent_id"].(string); p != "" {
			parentOf[ev.Name] = p
		}
		if ext, _ := ev.Args["parent_external"].(string); ext != "" {
			rootExternal = ext
		}
		if tid, _ := ev.Args["trace_id"].(string); tid != callerTrace {
			t.Fatalf("span %q carries trace_id %q, want %q", ev.Name, tid, callerTrace)
		}
	}
	for _, want := range []string{"request", "admission", "queue_wait", "trial_gen", "sort", "plan_build", "execute", "execute_plan", "segment_compile"} {
		if names[want] == 0 {
			t.Errorf("export missing span %q (have %v)", want, names)
		}
	}
	if rootExternal != callerSpan {
		t.Errorf("root parent_external = %q, want the caller's span %q", rootExternal, callerSpan)
	}
	// The pipeline hangs off the request root; the executor hangs off
	// the execute phase.
	reqID := idOf["request"]
	for _, child := range []string{"admission", "queue_wait", "plan_build", "execute"} {
		if parentOf[child] != reqID {
			t.Errorf("span %q parent = %s, want request %s", child, parentOf[child], reqID)
		}
	}
	if parentOf["execute_plan"] != idOf["execute"] {
		t.Errorf("execute_plan parent = %s, want execute %s", parentOf["execute_plan"], idOf["execute"])
	}
}

// TestStatsExposesSharedCounters asserts the /v1/stats JSON carries the
// shared-state fields operators alert on — segment-cache evictions and
// collisions, pool drops — plus the tracer section added with span
// tracing.
func TestStatsExposesSharedCounters(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, TraceSeed: 7})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.Run(ctx, testReq("alice", 1)); err != nil {
		t.Fatalf("Run: %v", err)
	}

	var raw map[string]json.RawMessage
	getJSON(t, c, "/v1/stats", &raw)
	var seg map[string]json.RawMessage
	if err := json.Unmarshal(raw["segcache"], &seg); err != nil {
		t.Fatalf("stats missing segcache: %v", err)
	}
	for _, k := range []string{"hits", "misses", "evictions", "collisions"} {
		if _, ok := seg[k]; !ok {
			t.Errorf("stats segcache missing %q", k)
		}
	}
	var pool map[string]json.RawMessage
	if err := json.Unmarshal(raw["pool"], &pool); err != nil {
		t.Fatalf("stats missing pool: %v", err)
	}
	if _, ok := pool["drops"]; !ok {
		t.Error("stats pool missing drops")
	}
	var ts trace.Stats
	if err := json.Unmarshal(raw["traces"], &ts); err != nil {
		t.Fatalf("stats missing traces: %v", err)
	}
	if ts.Started == 0 || ts.Kept == 0 || ts.Ring == 0 {
		t.Errorf("trace stats = %+v, want started/kept/ring > 0", ts)
	}
}

// TestRejectedSubmissionTraceDiscarded: admission rejections carry spans
// for the caller but never enter the kept ring — a flood of bad requests
// cannot wash out the traces of real jobs.
func TestRejectedSubmissionTraceDiscarded(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, TraceSeed: 9})

	const badTrace = "deadbeefdeadbeefdeadbeefdeadbeef"
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs",
		bytes.NewReader([]byte(`{"bench":"bv5","trials":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+badTrace+"-00f067aa0ba902b7-01")
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if _, ok := s.Tracer().Get(badTrace); ok {
		t.Fatal("rejected submission's trace entered the kept ring")
	}
	st := s.Tracer().Stats()
	if st.Started == 0 || st.Dropped == 0 {
		t.Fatalf("tracer stats = %+v, want the rejected trace started and dropped", st)
	}
}

// TestWaitBackoffSchedule pins Wait's polling schedule: capped binary
// exponential backoff from PollInterval to PollMax, with each delay
// jittered into [d/2, d).
func TestWaitBackoffSchedule(t *testing.T) {
	c := &Client{
		PollInterval: 10 * time.Millisecond,
		PollMax:      200 * time.Millisecond,
		jitter:       func() float64 { return 0 },
	}
	want := []time.Duration{5, 10, 20, 40, 80, 100, 100, 100} // ms: d/2 at jitter 0
	for i, w := range want {
		if got := c.waitDelay(i); got != w*time.Millisecond {
			t.Errorf("attempt %d: delay %v, want %v", i, got, w*time.Millisecond)
		}
	}

	// Jitter at the top of its range stays strictly below the uncapped
	// delay and never exceeds PollMax.
	c.jitter = func() float64 { return 0.999999 }
	for i := 0; i < 12; i++ {
		d := c.waitDelay(i)
		if d >= 2*c.PollMax {
			t.Fatalf("attempt %d: delay %v >= 2x PollMax", i, d)
		}
	}
	if d := c.waitDelay(3); d >= 80*time.Millisecond || d < 40*time.Millisecond {
		t.Errorf("attempt 3 at max jitter: delay %v, want in [40ms, 80ms)", d)
	}

	// Defaults: zero PollMax caps at 64 x PollInterval.
	c = &Client{PollInterval: time.Millisecond, jitter: func() float64 { return 0 }}
	if got := c.waitDelay(20); got != 32*time.Millisecond {
		t.Errorf("default cap: delay %v, want 32ms (64ms cap, jitter 0 -> d/2)", got)
	}
}

// getJSON fetches a daemon endpoint into v via the test client's HTTP
// transport.
func getJSON(t *testing.T, c *Client, path string, v any) {
	t.Helper()
	if err := json.Unmarshal(getBody(t, c, path), v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func getBody(t *testing.T, c *Client, path string) []byte {
	t.Helper()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, b)
	}
	return b
}
