package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/statevec"
	"repro/internal/trace"
)

// Service runs the daemon end to end in-process — the serve-smoke
// experiment behind `repro -exp service` and `make serve-smoke`. It
// starts a qsimd core on a real loopback listener, drives it with the
// client-side load generator, and asserts the daemon's contract on every
// run:
//
//   - Correctness: the daemon's histogram for a job is bit-identical to a
//     direct in-process core.Run of the same configuration (fuse mode
//     included).
//   - Sharing: after one cold fuse "numeric" job compiles a circuit, every
//     identical job from any tenant runs all-hit against the shared
//     segment cache (segcache hits > 0, misses == 0) with the identical
//     histogram.
//   - Default: the same job naming no fuse mode runs gate-by-gate
//     dispatch, with the direct FuseOff run's histogram and no segcache
//     lookups.
//   - Bounds: the segment cache stays within its configured capacity and
//     the shared buffer arena within its retention cap.
//   - Observability: /metrics serves a valid Prometheus exposition with
//     aggregate and per-tenant series.
//   - Tracing: the cold job, submitted with a W3C traceparent header,
//     joins the caller's trace ID; /v1/traces lists every finished job
//     and the exported Chrome JSON validates with segment-compile spans
//     reconciling exactly against the job's segcache misses.
//   - Lifecycle: drain finishes every admitted job and subsequent
//     submissions are refused.
//
// Any violated assertion fails the experiment with an error, so wiring it
// into `make verify-deep` turns the daemon's steady-state behavior into a
// regression gate.
func Service(cfg Config) (*Table, error) {
	const (
		benchName  = "bv5"
		trials     = 256
		warmJobs   = 8
		tenants    = 4
		segCap     = 256
		poolRetain = 32
		queueCap   = 32
		workers    = 4
	)
	statevec.ResetSegmentCache()
	defer statevec.ResetSegmentCache()

	srv := service.New(service.Config{
		Workers:     workers,
		QueueCap:    queueCap,
		SegCacheCap: segCap,
		PoolRetain:  poolRetain,
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("harness: service: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	defer httpSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := service.NewClient("http://"+ln.Addr().String(), nil)
	seed := ServiceSeed(cfg, 0)
	req := service.JobRequest{Bench: benchName, Trials: trials, Seed: seed, Fuse: "numeric"}

	// References: direct in-process runs of the job's configuration, under
	// the numeric fusion the sharing phases request and under the FuseOff
	// default.
	circ, err := bench.Build(benchName, seed)
	if err != nil {
		return nil, fmt.Errorf("harness: service: %v", err)
	}
	reference := func(fuse statevec.FuseMode) (map[string]int, error) {
		rep, err := core.Run(core.Config{
			Circuit: circ, Device: device.Yorktown(), Trials: trials, Seed: seed,
			Mode: core.ModeReordered, Fuse: fuse, Workers: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: service: reference run: %v", err)
		}
		return service.FormatCounts(rep.Reordered.Counts, rep.Circuit), nil
	}
	want, err := reference(statevec.FuseNumeric)
	if err != nil {
		return nil, err
	}
	wantOff, err := reference(statevec.FuseOff)
	if err != nil {
		return nil, err
	}
	// The numeric reference run itself warmed the shared cache; reset so
	// the daemon's cold job really compiles.
	statevec.ResetSegmentCache()

	t := &Table{
		Title: fmt.Sprintf("Service: qsimd daemon on %s x %d trials (%d workers, segcache cap %d, pool retain %d)",
			benchName, trials, workers, segCap, poolRetain),
		Header: []string{"phase", "jobs", "mean latency", "segcache hits", "segcache misses", "verdict"},
	}
	fail := func(format string, args ...any) (*Table, error) {
		return nil, fmt.Errorf("harness: service: "+format, args...)
	}

	// Cold: the first request pays compilation for everyone after it. It
	// carries a traceparent header, so its whole causal tree — admission,
	// queue wait, pipeline phases, every segment compile — lands under
	// the caller's trace ID.
	const callerTrace = "6e1fd9f64e5cadceb44c9c44ee7c9c6e"
	client.Traceparent = "00-" + callerTrace + "-0102030405060708-01"
	coldReq := req
	coldReq.Tenant = "cold"
	cold, err := client.Run(ctx, coldReq)
	client.Traceparent = ""
	if err != nil {
		return fail("cold job: %v", err)
	}
	if cold.TraceID != callerTrace {
		return fail("cold job trace_id %q, want propagated %q", cold.TraceID, callerTrace)
	}
	if cold.State != service.StateDone {
		return fail("cold job ended %q: %s", cold.State, cold.Error)
	}
	if cold.SegCacheMisses == 0 {
		return fail("cold job compiled nothing — segment cache not exercised")
	}
	if !sameCounts(cold.Counts, want) {
		return fail("cold job histogram differs from direct core.Run")
	}
	t.AddRow("cold", "1", durMS(time.Duration(cold.QueueWaitNs+cold.RunNs)),
		fmt.Sprintf("%d", cold.SegCacheHits), fmt.Sprintf("%d", cold.SegCacheMisses), "compiled")

	// Warm: identical jobs fanned out across tenants share the compiled
	// segments — the daemon's raison d'être.
	reqs := make([]service.JobRequest, warmJobs)
	for i := range reqs {
		reqs[i] = req
		reqs[i].Tenant = fmt.Sprintf("tenant%d", i%tenants)
	}
	load, err := service.RunLoad(ctx, client, reqs, tenants)
	if err != nil {
		return fail("warm fan-out: %v", err)
	}
	if len(load.Jobs) != warmJobs || load.Failed > 0 || load.Rejected > 0 {
		return fail("warm fan-out: %d done, %d failed, %d rejected (want %d/0/0)",
			len(load.Jobs), load.Failed, load.Rejected, warmJobs)
	}
	var warmHits, warmMisses, warmNs int64
	for _, v := range load.Jobs {
		warmHits += v.SegCacheHits
		warmMisses += v.SegCacheMisses
		warmNs += v.QueueWaitNs + v.RunNs
		if !sameCounts(v.Counts, want) {
			return fail("warm job %s histogram differs from direct core.Run", v.ID)
		}
	}
	if warmHits == 0 {
		return fail("warm jobs hit the segment cache 0 times, want > 0")
	}
	if warmMisses != 0 {
		return fail("warm jobs recompiled %d segments, want 0 (all content published by the cold job)", warmMisses)
	}
	t.AddRow("warm", fmt.Sprintf("%d", warmJobs), durMS(time.Duration(warmNs/int64(warmJobs))),
		fmt.Sprintf("%d", warmHits), fmt.Sprintf("%d", warmMisses),
		fmt.Sprintf("all-hit across %d tenants", tenants))

	// Default: the same job without a fuse mode compiles nothing, so it
	// neither hits nor misses the cache, and its histogram is unchanged.
	dflt := req
	dflt.Tenant, dflt.Fuse = "dispatch", ""
	plain, err := client.Run(ctx, dflt)
	if err != nil {
		return fail("default job: %v", err)
	}
	if plain.State != service.StateDone || plain.Fuse != "off" {
		return fail("default job ended %q under fuse %q: %s", plain.State, plain.Fuse, plain.Error)
	}
	if plain.SegCacheHits != 0 || plain.SegCacheMisses != 0 {
		return fail("default job made segcache lookups (hits %d, misses %d), want none",
			plain.SegCacheHits, plain.SegCacheMisses)
	}
	if !sameCounts(plain.Counts, wantOff) {
		return fail("default job histogram differs from direct core.Run")
	}
	t.AddRow("default", "1", durMS(time.Duration(plain.QueueWaitNs+plain.RunNs)),
		"0", "0", "fuse off: dispatch, nothing compiled")

	// Shared-state bounds.
	st, err := client.Stats(ctx)
	if err != nil {
		return fail("stats: %v", err)
	}
	if st.SegCache.Size > segCap {
		return fail("segment cache holds %d entries, capacity %d", st.SegCache.Size, segCap)
	}
	if st.SegCache.Collisions != 0 {
		return fail("unexpected digest collisions: %d", st.SegCache.Collisions)
	}

	// Tracing: every finished job's trace is kept (default sampling keeps
	// all), the cold trace exports as valid Perfetto-loadable Chrome
	// JSON, and its segment_compile span count reconciles exactly with
	// the job's own segcache misses.
	sums, err := client.Traces(ctx)
	if err != nil {
		return fail("traces listing: %v", err)
	}
	if len(sums) < 2+warmJobs {
		return fail("kept ring lists %d traces, want >= %d", len(sums), 2+warmJobs)
	}
	chrome, err := client.TraceChrome(ctx, callerTrace)
	if err != nil {
		return fail("trace export: %v", err)
	}
	if err := trace.ValidateChrome(chrome); err != nil {
		return fail("trace export invalid: %v", err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(chrome, &ct); err != nil {
		return fail("trace export: %v", err)
	}
	spanNames := map[string]int{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			spanNames[ev.Name]++
		}
	}
	for _, name := range []string{"request", "queue_wait", "plan_build", "execute"} {
		if spanNames[name] != 1 {
			return fail("cold trace has %d %q spans, want 1", spanNames[name], name)
		}
	}
	if got := int64(spanNames["segment_compile"]); got != cold.SegCacheMisses {
		return fail("cold trace has %d segment_compile spans, job reported %d segcache misses",
			got, cold.SegCacheMisses)
	}
	t.AddRow("trace", fmt.Sprintf("%d", len(sums)), "-",
		"-", fmt.Sprintf("%d", spanNames["segment_compile"]),
		fmt.Sprintf("chrome export valid; %d spans under trace %s…", len(ct.TraceEvents), callerTrace[:8]))

	// Observability: the exposition must parse and carry per-tenant series.
	body, err := client.Metrics(ctx)
	if err != nil {
		return fail("metrics scrape: %v", err)
	}
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		return fail("exposition invalid: %v", err)
	}
	for _, needle := range []string{`job="qsimd"`, `job="tenant:cold"`, `job="tenant:tenant0"`} {
		if !strings.Contains(body, needle) {
			return fail("exposition missing %s series", needle)
		}
	}

	// Lifecycle: drain finishes everything admitted, then refuses work.
	if err := srv.Drain(ctx); err != nil {
		return fail("drain: %v", err)
	}
	final := srv.Stats()
	if final.Jobs.Completed != 2+warmJobs || final.Jobs.Failed != 0 {
		return fail("after drain: %d completed, %d failed (want %d, 0)",
			final.Jobs.Completed, final.Jobs.Failed, 2+warmJobs)
	}
	if _, err := client.Submit(ctx, coldReq); err == nil {
		return fail("post-drain submission was admitted")
	}
	t.AddRow("drain", fmt.Sprintf("%d", final.Jobs.Completed), "-",
		fmt.Sprintf("%d", final.SegCache.Hits), fmt.Sprintf("%d", final.SegCache.Misses),
		fmt.Sprintf("complete; cache %d/%d entries, pool %d retained / %d dropped",
			final.SegCache.Size, segCap, final.Pool.Retained, final.Pool.Drops))
	return t, nil
}

// sameCounts compares two formatted histograms exactly.
func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// durMS renders a duration in milliseconds with fixed precision.
func durMS(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
}
