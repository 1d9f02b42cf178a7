package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/service"
	"repro/internal/statevec"
	"repro/internal/trace"
)

// The qsimd-mixed request mix. Every block of mixBlock requests holds the
// same multiset of request shapes in a seeded order: mixWide wide
// inline-QASM jobs, which set the latency tail; mixFresh Table I QV jobs
// with fresh seeds, which miss the segment cache; and Table I jobs from a
// small repeated set, which hit it. Only circuits, seeds and tenants vary
// with the workload seed, so every block asks for about the same work.
const (
	mixBlock   = 48
	mixWide    = 1
	mixFresh   = 15
	wideQubits = 10
	wideDepth  = 3
	wideCircs  = 8
	wideTrials = 128
)

// mixTrials are the trial counts of the 5-qubit jobs, spanning a decade.
var mixTrials = []int{64, 128, 256, 640}

var tenants = []string{"alpha", "beta"}

// mix is the seeded qsimd-mixed input: the wide circuits' QASM sources and
// the rule that turns a request index into a request.
type mix struct {
	seed int64
	wide []string
}

func buildMix(seed int64) (*mix, error) {
	rng := rand.New(rand.NewSource(seed))
	m := &mix{seed: seed}
	for i := 0; i < wideCircs; i++ {
		src, err := circuit.WriteQASM(bench.QV(wideQubits, wideDepth, rng))
		if err != nil {
			return nil, err
		}
		m.wide = append(m.wide, src)
	}
	return m, nil
}

// request returns the i-th request of the seeded sequence.
func (m *mix) request(i int) service.JobRequest {
	block, pos := i/mixBlock, i%mixBlock
	slot := rand.New(rand.NewSource(m.seed*7919 + int64(block))).Perm(mixBlock)[pos]
	rng := rand.New(rand.NewSource(m.seed*104729 + int64(i)))
	req := service.JobRequest{
		Tenant: tenants[rng.Intn(len(tenants))],
		Trials: mixTrials[slot%len(mixTrials)],
	}
	switch {
	case slot < mixWide:
		req.QASM = m.wide[rng.Intn(len(m.wide))]
		req.Device = "artificial"
		req.Trials = wideTrials
		req.Seed = 1 + rng.Int63n(1<<40)
	case slot < mixWide+mixFresh:
		req.Bench = fmt.Sprintf("qv_n5d%d", 2+slot%4)
		req.Seed = 1 + rng.Int63n(1<<40)
	default:
		req.Bench = bench.TableI[slot%len(bench.TableI)].Name
		req.Seed = 1 + rng.Int63n(2)
	}
	return req
}

// daemon is an in-process qsimd at its defaults on a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	tr     *http.Transport
	hc     *http.Client
	served chan error
}

func startDaemon() (*daemon, error) {
	srv := service.New(service.Config{Workers: runtime.GOMAXPROCS(0), SegCacheCap: 4096})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		tr:     tr,
		hc:     &http.Client{Transport: tr},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, drains the daemon and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.tr.CloseIdleConnections()
	return errors.Join(err, d.srv.Drain(ctx))
}

// sample is one request's round trip as the client saw it.
type sample struct {
	idx                  int
	req                  service.JobRequest
	view                 service.JobView
	latency              time.Duration
	admit, wait, respond time.Duration
	end                  time.Time
	err                  error
}

// roundTrip sends the request, blocks on Server.WaitJob, and fetches the
// result: latency runs from sending POST /v1/jobs until the body of GET
// /v1/jobs/{id} has been read. With a root span, each step is a child.
func (d *daemon) roundTrip(ctx context.Context, s *sample, root *trace.Span) {
	body, err := json.Marshal(s.req)
	if err != nil {
		s.err = err
		return
	}
	start := time.Now()
	sp := root.Child(spanAdmit)
	var sub struct {
		ID string `json:"id"`
	}
	status, data, err := d.do(ctx, http.MethodPost, "/v1/jobs", body)
	sp.End()
	t1 := time.Now()
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/jobs: HTTP %d: %s", status, bytes.TrimSpace(data))
	}
	if err == nil {
		err = json.Unmarshal(data, &sub)
	}
	if err != nil {
		s.err = err
		return
	}
	sp = root.Child(spanWait)
	_, err = d.srv.WaitJob(ctx, sub.ID)
	sp.End()
	t2 := time.Now()
	if err != nil {
		s.err = err
		return
	}
	sp = root.Child(spanRespond)
	status, data, err = d.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil)
	sp.End()
	s.end = time.Now()
	s.admit, s.wait, s.respond = t1.Sub(start), t2.Sub(t1), s.end.Sub(t2)
	s.latency = s.end.Sub(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /v1/jobs/%s: HTTP %d", sub.ID, status)
	}
	if err == nil {
		err = json.Unmarshal(data, &s.view)
	}
	s.err = err
}

// do sends one request and reads the whole response body.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// loop drives a closed loop of nclients clients, each sending its next
// request only after the previous reply, over request indices from `from`
// until `until` passes or `limit` requests have been sent. traced(i)
// selects which requests carry client spans.
func (d *daemon) loop(m *mix, from, limit int, until time.Time, tracer *trace.Tracer, traced func(int) bool) []sample {
	nclients := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	next.Store(int64(from))
	out := make([][]sample, nclients)
	var wg sync.WaitGroup
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= from+limit || (!until.IsZero() && time.Now().After(until)) {
					return
				}
				s := sample{idx: i, req: m.request(i)}
				var root *trace.Span
				if traced != nil && traced(i) {
					root = tracer.Start("request", trace.SpanContext{}, trace.Int("index", int64(i)))
				}
				d.roundTrip(context.Background(), &s, root)
				root.End()
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// directConfig is the core.Config qsimd builds for a request at its
// defaults, for checking the daemon against a direct core.Run. FuseExact is
// bit-identical to gate-by-gate dispatch, so the check holds whatever
// fuse mode the daemon defaults to.
func directConfig(req service.JobRequest) (core.Config, error) {
	var c *circuit.Circuit
	var err error
	if req.Bench != "" {
		c, err = bench.Build(req.Bench, req.Seed)
	} else {
		c, err = circuit.ParseQASM(req.QASM)
	}
	if err != nil {
		return core.Config{}, err
	}
	dev := device.Yorktown()
	if req.Device == "artificial" {
		dev = device.Artificial(c.NumQubits(), 1e-3)
	}
	return core.Config{
		Circuit: c, Device: dev, Trials: req.Trials, Seed: req.Seed,
		Mode: core.ModeReordered, Workers: 1, Fuse: statevec.FuseExact,
	}, nil
}

// expected is the direct result for one distinct request.
type expected struct {
	counts map[string]int
	ops    int64
	err    error
}

// verifier checks daemon results against direct core.Run results,
// computing each distinct request once. With a tracer, it also runs the
// traced replica of each distinct request and records its layers.
type verifier struct {
	tracer *trace.Tracer
	mu     sync.Mutex
	memo   map[string]*expected
	jobs   []*replicaJob
}

// replicaJob is one distinct request's traced replica beside its core.Run.
type replicaJob struct {
	cfg    core.Config
	r      *replica
	coreMs float64
}

func requestKey(req service.JobRequest) string {
	b, _ := json.Marshal(req) // a JobRequest always marshals
	return string(b)
}

// verify checks every sample in parallel, each distinct request once.
func (v *verifier) verify(samples []sample, ck *checker) {
	if v.memo == nil {
		v.memo = map[string]*expected{}
	}
	var todo []service.JobRequest
	for _, s := range samples {
		if k := requestKey(s.req); v.memo[k] == nil {
			v.memo[k] = &expected{}
			todo = append(todo, s.req)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				v.expect(todo[i])
			}
		}()
	}
	wg.Wait()
	for _, s := range samples {
		ck.job(v.check(s))
	}
}

// expect computes the direct result of req into the memo.
func (v *verifier) expect(req service.JobRequest) {
	e := v.memo[requestKey(req)]
	cfg, err := directConfig(req)
	if err != nil {
		e.err = err
		return
	}
	start := time.Now()
	rep, err := core.Run(cfg)
	coreMs := ms(time.Since(start))
	if err != nil {
		e.err = err
		return
	}
	e.counts = service.FormatCounts(rep.Reordered.Counts, rep.Circuit)
	e.ops = rep.Reordered.Ops
	if v.tracer == nil {
		return
	}
	r, err := replicate(v.tracer, cfg)
	if err == nil {
		err = checkReplica(cfg, r, rep)
	}
	if err != nil {
		e.err = err
		return
	}
	v.mu.Lock()
	v.jobs = append(v.jobs, &replicaJob{cfg: cfg, r: r, coreMs: coreMs})
	v.mu.Unlock()
}

// check compares one daemon result with the direct result.
func (v *verifier) check(s sample) error {
	if s.err != nil {
		return fmt.Errorf("request %d: %w", s.idx, s.err)
	}
	e := v.memo[requestKey(s.req)]
	switch {
	case e.err != nil:
		return fmt.Errorf("request %d: direct run: %w", s.idx, e.err)
	case s.view.State != service.StateDone:
		return fmt.Errorf("request %d: job %s ended %q: %s", s.idx, s.view.ID, s.view.State, s.view.Error)
	case s.view.Trials != s.req.Trials || countTrials(s.view.Counts) != s.req.Trials:
		return fmt.Errorf("request %d: emitted %d trials, requested %d", s.idx, countTrials(s.view.Counts), s.req.Trials)
	case !maps.Equal(s.view.Counts, e.counts):
		return fmt.Errorf("request %d: daemon histogram differs from direct core.Run", s.idx)
	case s.view.Ops != e.ops:
		return fmt.Errorf("request %d: daemon executed %d ops, direct core.Run %d", s.idx, s.view.Ops, e.ops)
	}
	return nil
}

// coldStart builds the inputs, starts a fresh daemon against an empty
// segment cache, and serves and checks the first block of the mix. The
// caller owns the daemon.
func coldStart(seed int64, ck *checker) (*daemon, *mix, error) {
	m, err := buildMix(seed)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon()
	if err != nil {
		return nil, nil, err
	}
	v := &verifier{}
	v.verify(d.loop(m, 0, mixBlock, time.Time{}, nil, nil), ck)
	return d, m, nil
}

const (
	daemonColdStarts = 7
	// requestsPerSecond sizes the timed window: --seconds times this many
	// requests, about the rate qsimd serves on a 2-CPU host.
	requestsPerSecond = 300
	// stealInterval is how often the window reads steal; each request is
	// charged the steal factor of the interval it ran in.
	stealInterval = 200 * time.Millisecond
)

// runDaemon measures qsimd-mixed: setup_s over cold starts, then a closed
// loop of one client per CPU over the timed window. Times exclude the CPU
// time stolen from this machine (see stealFactor): each cold start its
// own, each request that of the interval it ran in (see stealTrack).
func runDaemon(o options, ck *checker, rep *report) error {
	var setups, rawSetups []float64
	var d *daemon
	var m *mix
	for k := 0; k < daemonColdStarts; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		runtime.GC()
		statevec.ResetSegmentCache()
		a := readClock()
		var err error
		if d, m, err = coldStart(o.seed, ck); err != nil {
			return err
		}
		b := readClock()
		rawSetups = append(rawSetups, b.wall.Sub(a.wall).Seconds())
		setups = append(setups, b.wall.Sub(a.wall).Seconds()*stealFactor(a, b))
	}
	defer d.stop()

	// Warm the daemon's caches and connections with a second block.
	warm := d.loop(m, mixBlock, mixBlock, time.Time{}, nil, nil)
	// The window serves a fixed number of requests, so the heap of retained
	// jobs does not depend on how fast the host ran.
	runtime.GC()
	n := max(1000, int(o.window.Seconds()*requestsPerSecond))
	heap := startHeapSampler(5 * time.Millisecond)
	steal := startStealTrack(stealInterval)
	k0 := readClock()
	samples := d.loop(m, 2*mixBlock, n, time.Time{}, nil, nil)
	k1 := readClock()
	steal.Stop()
	heapMB, heapN := heap.Stop()
	f := stealFactor(k0, k1)
	elapsed := k1.wall.Sub(k0.wall).Seconds()

	v := &verifier{}
	v.verify(append(warm, samples...), ck)
	var lat []float64
	for _, s := range samples {
		if s.err == nil {
			lat = append(lat, ms(s.latency)*steal.factorAt(s.end.Add(-s.latency/2)))
		}
	}
	q, tail := tailQuantile(lat)
	trials := float64(doneTrials(samples))
	rep.set("setup_s", "s", median(setups))
	rep.set("trials_per_s", "1/s", trials/(elapsed*f))
	rep.set("lat_p50_ms", "ms", median(lat))
	rep.set("lat_p99_ms", "ms", tail)
	rep.set("mean_heap_mb", "MB", heapMB)
	fmt.Printf("# samples cold_starts=%d clients=%d requests=%d latency_samples=%d lat_p99_at=p%.4g distinct_checked=%d heap_samples=%d\n",
		len(setups), runtime.GOMAXPROCS(0), len(samples), len(lat), 100*q, len(v.memo), heapN)
	fmt.Printf("# raw setup_s=%.6g trials_per_s=%.6g window_steal_factor=%.4f\n",
		median(rawSetups), trials/elapsed, f)
	return nil
}

func doneTrials(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.err == nil {
			n += s.req.Trials
		}
	}
	return n
}

// traceDaemon runs the traced qsimd-mixed ledger: a fresh daemon, a closed
// loop whose requests alternate in blocks between client spans and none,
// then a traced replica of every distinct request beside its direct
// core.Run.
func traceDaemon(o options, ck *checker, rep *report) error {
	runtime.GC()
	statevec.ResetSegmentCache()
	m, err := buildMix(o.seed)
	if err != nil {
		return err
	}
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	tracer := trace.New(trace.Config{Seed: 1, RingCap: 1})
	isTraced := func(i int) bool { return (i/(2*mixBlock))%2 == 0 }

	seg0h, seg0m := statevec.SegmentCacheStats()
	st0 := d.srv.Stats().Pool
	rt0 := readGoCounters()
	samples := d.loop(m, 0, 1<<30, time.Now().Add(o.window), tracer, isTraced)
	gcFrac, allocBytes := rt0.since()
	seg1h, seg1m := statevec.SegmentCacheStats()
	st1 := d.srv.Stats().Pool

	// Tracing overhead compares the median latency per trial of the
	// requests with client spans against those without.
	var admit, respond, wait, run, perTrialT, perTrialU []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		admit = append(admit, ms(s.admit))
		respond = append(respond, ms(s.respond))
		wait = append(wait, float64(s.view.QueueWaitNs)/1e6)
		run = append(run, float64(s.view.RunNs)/1e6)
		if perTrial := s.latency.Seconds() / float64(s.req.Trials); isTraced(s.idx) {
			perTrialT = append(perTrialT, perTrial)
		} else {
			perTrialU = append(perTrialU, perTrial)
		}
	}
	_, waitTail := tailQuantile(wait)

	// Segment compile time, derived: the first request's replica executed
	// against an empty cache, minus the same replica warm.
	cfg0, err := directConfig(m.request(0))
	if err != nil {
		return err
	}
	statevec.ResetSegmentCache()
	var exec [2]float64
	for i := range exec {
		r, err := replicate(tracer, cfg0)
		if err != nil {
			return err
		}
		exec[i] = ms(r.layers()[spanExecute])
	}

	v := &verifier{tracer: tracer}
	v.verify(samples, ck)

	vals := map[string]float64{
		"service.admit_ms":          median(admit),
		"service.respond_ms":        median(respond),
		"service.queue_wait_p50_ms": median(wait),
		"service.queue_wait_p99_ms": waitTail,
		"service.run_ms":            median(run),
		"statevec.seg_misses":       float64(seg1m - seg0m),
		"statevec.seg_hit_ratio":    ratio(seg1h-seg0h, seg1m-seg0m),
		"statevec.compile_ms":       exec[0] - exec[1],
		"statevec.pool_hit_ratio":   ratio(st1.Hits-st0.Hits, st1.Misses-st0.Misses),
		"statevec.pool_drops":       float64(st1.Drops - st0.Drops),
		"go.gc_cpu_frac":            gcFrac,
		"go.alloc_mb_per_ktrial":    allocBytes / 1e6 / (float64(doneTrials(samples)) / 1000),
	}
	if len(perTrialT) > 0 && len(perTrialU) > 0 {
		vals["trace.overhead_frac"] = 1 - median(perTrialU)/median(perTrialT)
	}

	// Core layers: medians per distinct request of the traced replicas.
	layerMs := map[string][]float64{}
	var unattributed []float64
	var ops, errs, trials, base, optimized int64
	var bytesComputed, execMs float64
	maxQubits := 0
	for _, j := range v.jobs {
		spanTotal := 0.0
		l := j.r.layers()
		for _, name := range coreLayers {
			layerMs[name] = append(layerMs[name], ms(l[name]))
			spanTotal += ms(l[name])
		}
		unattributed = append(unattributed, j.coreMs-spanTotal)
		n := j.r.circ.NumQubits()
		maxQubits = max(maxQubits, n)
		ops += j.r.res.Ops
		bytesComputed += float64(j.r.res.Ops) * float64(int64(1)<<n) * 16 * 2
		execMs += ms(l[spanExecute])
		a := j.r.plan.Analysis()
		base += a.BaselineOps
		optimized += a.OptimizedOps
		errs += int64(j.r.stats.TotalErrors)
		trials += int64(j.cfg.Trials)
		vals["sim.copies"] += float64(j.r.res.Copies)
		vals["sim.msv"] = max(vals["sim.msv"], float64(j.r.res.MSV))
		vals["reorder.msv"] = max(vals["reorder.msv"], float64(a.MSV))
	}
	if k := float64(len(v.jobs)); k > 0 {
		for _, name := range coreLayers {
			vals[name+"_ms"] = median(layerMs[name])
		}
		vals["core.unattributed_ms"] = median(unattributed)
		vals["sim.ops"] = float64(ops) / k
		vals["sim.copies"] /= k
		vals["reorder.base_ops"] = float64(base) / k
		vals["reorder.saving"] = 1 - float64(optimized)/float64(base)
		vals["trial.injections_per_trial"] = float64(errs) / float64(trials)
		rooflineLayers(vals, maxQubits, float64(ops), bytesComputed, execMs/1e3)
		if err := checkChrome(v.jobs[0].r.trace, o.perfetto); err != nil {
			ck.job(err)
		}
	}
	fmt.Printf("# samples clients=%d requests=%d distinct_replicas=%d (service times per request; core layers per distinct request, ops/copies mean per request)\n",
		runtime.GOMAXPROCS(0), len(samples), len(v.jobs))
	return emitLayers(rep, vals)
}
