// Package service implements qsimd, the long-running simulation daemon:
// an HTTP/JSON job service that accepts simulation requests (circuit +
// noise model + trial count), runs them on a bounded worker pool, and
// serves outcome histograms and run metrics back.
//
// The point of a daemon — versus the one-shot qsim CLI — is cross-request
// sharing. All jobs in one process share:
//
//   - the process-global content-addressed segment cache
//     (statevec.SetSegmentCacheCapacity bounds it; see internal/statevec):
//     two tenants submitting the same circuit with fuse "numeric"
//     compile its kernels once (the default, "off", compiles nothing);
//   - one amplitude-buffer arena (statevec.BufferPool with per-size-class
//     retention caps), so state vectors stay warm between jobs.
//
// Admission control is a bounded queue with per-tenant round-robin
// fairness: each tenant gets a sub-queue, workers pop tenants in rotation,
// and a full queue rejects new submissions with 429 rather than queueing
// unboundedly. Drain (SIGTERM in cmd/qsimd) stops admission with 503,
// finishes every admitted job, and lets the workers exit. The job table
// is bounded too: it keeps the last DefaultJobRetention finished jobs,
// evicting the oldest first.
//
// Everything the daemon shares is observable: the aggregate metrics are
// exported under Prometheus job "qsimd" and every tenant under
// "tenant:<id>", including segment-cache hits/misses/evictions/collisions,
// pool hits/misses/drops, queue depth high-water, per-tenant job counters,
// and job latency histograms.
package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// Config tunes a Server.
type Config struct {
	// Workers is the number of job-executing goroutines. 0 starts none —
	// admission-only, for tests that need deterministic queue pressure.
	Workers int
	// QueueCap bounds the number of queued (admitted, not yet running)
	// jobs across all tenants; submissions beyond it are rejected with
	// 429. <= 0 means DefaultQueueCap.
	QueueCap int
	// SegCacheCap bounds the process-global content-addressed segment
	// cache (statevec.SetSegmentCacheCapacity). 0 leaves the current
	// (default unbounded) capacity untouched.
	SegCacheCap int
	// PoolRetain is the per-size-class retention cap of the shared
	// amplitude-buffer arena. 0 means statevec.DefaultPoolRetain;
	// negative means unbounded.
	PoolRetain int
	// TraceRing bounds the in-memory ring of kept traces served at
	// GET /v1/traces (0 → trace.DefaultRingCap).
	TraceRing int
	// TraceSample is the tail sampler's keep rate for finished traces
	// that are neither errored nor in the slow tail: 0 means keep all,
	// negative keeps only errored/slow traces (see trace.Config).
	TraceSample float64
	// TraceSeed fixes trace/span ID generation for deterministic tests
	// (0 → from the wall clock).
	TraceSeed uint64
	// Logger receives job lifecycle events. nil discards them.
	Logger *slog.Logger
}

// DefaultQueueCap is the queue bound used when Config.QueueCap <= 0.
const DefaultQueueCap = 64

// DefaultJobRetention bounds the finished (done or failed) jobs a Server
// keeps for GET /v1/jobs/{id} and the listing. The oldest finished job is
// evicted first and then answers 404; queued and running jobs are never
// evicted.
const DefaultJobRetention = 1024

// JobRequest is the JSON body of POST /v1/jobs. Exactly one of Bench and
// QASM selects the circuit.
type JobRequest struct {
	// Tenant attributes the job for fair scheduling and per-tenant
	// metrics. Empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Bench names a built-in benchmark circuit (internal/bench).
	Bench string `json:"bench,omitempty"`
	// QASM is inline OpenQASM 2.0 source.
	QASM string `json:"qasm,omitempty"`
	// Device selects the noise model: "yorktown" (default) or
	// "artificial" (with P1 and Qubits).
	Device string `json:"device,omitempty"`
	// P1 is the 1q error rate for Device "artificial" (default 1e-3).
	P1 float64 `json:"p1,omitempty"`
	// Qubits is the width for Device "artificial" (default: circuit width).
	Qubits int `json:"qubits,omitempty"`
	// Trials is the Monte Carlo trial count. Required, positive.
	Trials int `json:"trials"`
	// Seed drives trial generation (default 1). Equal requests with equal
	// seeds produce bit-identical histograms.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the per-job execution parallelism (default 1).
	Workers int `json:"workers,omitempty"`
	// Fuse is the kernel compilation mode: "off" (default — gate-by-gate
	// dispatch, no compilation, bit-identical to direct core.Run) or
	// "numeric" (fused kernels that fold gate matrices, ~1 ulp, compiled
	// through the shared segment cache). Any other value, the removed
	// "exact" included, is a 400 naming the valid modes.
	Fuse string `json:"fuse,omitempty"`
	// Budget caps concurrently stored state vectors (0 = unlimited).
	Budget int `json:"budget,omitempty"`
	// Policy is the branch-point restore policy: "snapshot" (default),
	// "uncompute", or "adaptive".
	Policy string `json:"policy,omitempty"`
	// ErrMode is the error injection model: "per-gate" (default) or
	// "per-qubit".
	ErrMode string `json:"errmode,omitempty"`
}

// JobState is the lifecycle phase of a job.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// JobView is the JSON representation of a job served by GET /v1/jobs/{id}.
type JobView struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	// Fuse and Policy are the kernel mode and restore policy the job runs
	// under, with the daemon's defaults applied.
	Fuse   string `json:"fuse"`
	Policy string `json:"policy"`
	// TraceID is the job's causal trace (32 hex digits): the trace the
	// submission's traceparent header joined, or a fresh one minted at
	// admission. Fetch the tree at GET /v1/traces/{trace_id} once kept.
	TraceID string `json:"trace_id,omitempty"`
	// Error is set when State is "failed".
	Error string `json:"error,omitempty"`
	// Counts histograms measured bitstrings (fixed-width binary keys,
	// classical-register width) over all trials. Set when State is "done".
	Counts map[string]int `json:"counts,omitempty"`
	Trials int            `json:"trials,omitempty"`
	Ops    int64          `json:"ops,omitempty"`
	Copies int64          `json:"copies,omitempty"`
	MSV    int            `json:"msv,omitempty"`
	// QueueWaitNs and RunNs time the queued and running phases.
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
	RunNs       int64 `json:"run_ns,omitempty"`
	// SegCacheHits and SegCacheMisses are the job's own lookups into the
	// process-global segment cache: hits on a warm cache mean this job
	// reused kernels another request compiled. A FuseOff job makes none.
	SegCacheHits   int64 `json:"segcache_hits"`
	SegCacheMisses int64 `json:"segcache_misses"`
}

// Stats is the JSON body of GET /v1/stats: the daemon-wide shared state.
type Stats struct {
	SegCache SegCacheStats `json:"segcache"`
	Pool     PoolStats     `json:"pool"`
	Queue    QueueStats    `json:"queue"`
	Jobs     JobCounts     `json:"jobs"`
	Traces   trace.Stats   `json:"traces"`
	Tenants  []string      `json:"tenants"`
	Draining bool          `json:"draining"`
}

type SegCacheStats struct {
	Size       int   `json:"size"`
	Capacity   int   `json:"capacity"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	Collisions int64 `json:"collisions"`
}

type PoolStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Drops    int64 `json:"drops"`
	Retained int   `json:"retained"`
}

type QueueStats struct {
	Depth     int   `json:"depth"`
	Capacity  int   `json:"capacity"`
	HighWater int64 `json:"high_water"`
}

type JobCounts struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
}

// job is the server-side record of one submission.
type job struct {
	id     string
	tenant string
	req    JobRequest
	cfg    core.Config // validated at admission

	state     JobState
	err       error
	counts    countList // the histogram, formatted only when the job is read
	ops       int64
	copies    int64
	msv       int
	submitted time.Time
	started   time.Time
	finished  time.Time
	segHits   int64
	segMisses int64
	done      chan struct{}
	retired   bool // finished and counted against the retention cap

	// span is the job's root "request" span; queueSpan is its
	// "queue_wait" child, open from admission until a worker picks the
	// job up. traceID is cached so view never touches the trace lock.
	span      *trace.Span
	queueSpan *trace.Span
	traceID   string
}

// Server is the qsimd daemon core: admission queue, worker pool, shared
// arena, and HTTP handlers. Construct with New, start workers with Start,
// stop with Drain.
type Server struct {
	cfg      Config
	logger   *slog.Logger
	pool     *statevec.BufferPool
	metrics  *obs.Metrics
	exporter *obs.Exporter
	tracer   *trace.Tracer

	mu       sync.Mutex
	cond     *sync.Cond
	seq      int
	jobs     map[string]*job
	order    []string          // retained job ids in admission order (for listing)
	retired  int               // finished jobs still in jobs, at most retain
	retain   int               // DefaultJobRetention; tests lower it
	tenantQs map[string][]*job // per-tenant FIFO of queued jobs
	tenants  []string          // round-robin rotation order
	rr       int               // next tenant index to try
	queued   int               // total queued jobs across tenants
	draining bool
	tenantMs map[string]*obs.Metrics

	// run executes one job; core.Run outside tests.
	run func(core.Config) (*core.Report, error)

	wg sync.WaitGroup
}

// New builds a Server, applies the segment-cache bound, and registers the
// aggregate metrics under Prometheus job "qsimd". Workers are not started
// until Start.
func New(cfg Config) *Server {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	retain := cfg.PoolRetain
	if retain == 0 {
		retain = statevec.DefaultPoolRetain
	}
	if cfg.SegCacheCap > 0 {
		statevec.SetSegmentCacheCapacity(cfg.SegCacheCap)
	}
	s := &Server{
		cfg:      cfg,
		logger:   logger,
		pool:     statevec.NewBufferPoolRetain(retain),
		metrics:  obs.NewMetrics(),
		exporter: obs.NewExporter(),
		jobs:     make(map[string]*job),
		retain:   DefaultJobRetention,
		tenantQs: make(map[string][]*job),
		tenantMs: make(map[string]*obs.Metrics),
		run:      core.Run,
	}
	s.tracer = trace.New(trace.Config{
		SampleRate: cfg.TraceSample,
		RingCap:    cfg.TraceRing,
		Seed:       cfg.TraceSeed,
		Recorder:   s.metrics,
	})
	s.cond = sync.NewCond(&s.mu)
	s.exporter.Register("qsimd", s.metrics)
	return s
}

// Start launches the configured worker goroutines.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	s.logger.Info("qsimd started", "workers", s.cfg.Workers, "queue_cap", s.cfg.QueueCap,
		"segcache_cap", statevec.SegmentCacheCapacity())
}

// Exporter returns the Prometheus exporter serving the aggregate and
// per-tenant metrics (mounted at /metrics by Handler).
func (s *Server) Exporter() *obs.Exporter { return s.exporter }

// Metrics returns the aggregate recorder (for expvar publication).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Pool returns the shared amplitude-buffer arena (test hook).
func (s *Server) Pool() *statevec.BufferPool { return s.pool }

// Tracer returns the daemon's span tracer (test and harness hook).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// RequestError marks a submission invalid (HTTP 400).
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func reqErrf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// ErrQueueFull rejects a submission when the admission queue is at
// capacity (HTTP 429).
var ErrQueueFull = fmt.Errorf("service: queue full")

// ErrDraining rejects a submission during drain (HTTP 503).
var ErrDraining = fmt.Errorf("service: draining")

// buildConfig validates a request and compiles it into a core.Config.
// Validation happens at admission so clients get a synchronous 400 for
// malformed jobs instead of a queued failure.
func (s *Server) buildConfig(req *JobRequest) (core.Config, error) {
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if strings.ContainsAny(req.Tenant, "\"{}\n") {
		return core.Config{}, reqErrf("tenant %q contains label-breaking characters", req.Tenant)
	}
	var circ *circuit.Circuit
	var err error
	switch {
	case req.Bench != "" && req.QASM != "":
		return core.Config{}, reqErrf("set bench or qasm, not both")
	case req.Bench != "":
		circ, err = bench.Build(req.Bench, req.Seed)
	case req.QASM != "":
		circ, err = circuit.ParseQASM(req.QASM)
	default:
		return core.Config{}, reqErrf("one of bench or qasm is required")
	}
	if err != nil {
		return core.Config{}, reqErrf("circuit: %v", err)
	}
	if n := circ.NumQubits(); n > statevec.MaxQubits {
		return core.Config{}, reqErrf("circuit has %d qubits; a state vector holds at most %d", n, statevec.MaxQubits)
	}
	if req.Qubits < 0 || req.Qubits > statevec.MaxQubits {
		return core.Config{}, reqErrf("qubits %d outside [0, %d]", req.Qubits, statevec.MaxQubits)
	}
	var dev *device.Device
	switch req.Device {
	case "", "yorktown":
		dev = device.Yorktown()
	case "artificial":
		n := req.Qubits
		if n == 0 {
			n = circ.NumQubits()
		}
		p1 := req.P1
		if p1 == 0 {
			p1 = 1e-3
		}
		dev = device.Artificial(n, p1)
	default:
		return core.Config{}, reqErrf("unknown device %q (yorktown, artificial)", req.Device)
	}
	if req.Trials <= 0 {
		return core.Config{}, reqErrf("trials must be positive, got %d", req.Trials)
	}
	if req.Trials > statevec.MaxTrials {
		return core.Config{}, reqErrf("trials %d above the limit MaxTrials = %d", req.Trials, statevec.MaxTrials)
	}
	if req.Workers > statevec.MaxWorkers {
		return core.Config{}, reqErrf("workers %d above the limit MaxWorkers = %d", req.Workers, statevec.MaxWorkers)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	// FuseOff by default, as in qsim: each run walks one dispatch table,
	// resolved once, and compiles nothing, so it makes no segment-cache
	// lookups. "numeric" compiles segments through the shared cache. The
	// resolved names stay on req, so the job view reports them.
	if req.Fuse == "" {
		req.Fuse = statevec.FuseOff.String()
	}
	fuse, err := statevec.ParseFuseMode(req.Fuse)
	if err != nil {
		return core.Config{}, reqErrf("%v", err)
	}
	if req.Policy == "" {
		req.Policy = sim.PolicySnapshot.String()
	}
	policy, err := sim.ParseRestorePolicy(req.Policy)
	if err != nil {
		return core.Config{}, reqErrf("%v", err)
	}
	var em trial.ErrorMode
	switch req.ErrMode {
	case "", "per-gate":
		em = trial.PerGate
	case "per-qubit":
		em = trial.PerQubit
	default:
		return core.Config{}, reqErrf("unknown errmode %q (per-gate, per-qubit)", req.ErrMode)
	}
	workers := req.Workers
	if workers < 1 {
		workers = 1
	}
	return core.Config{
		Circuit:        circ,
		Device:         dev,
		Trials:         req.Trials,
		Seed:           req.Seed,
		Mode:           core.ModeReordered,
		ErrorMode:      em,
		SnapshotBudget: req.Budget,
		Workers:        workers,
		Fuse:           fuse,
		Policy:         policy,
		Pool:           s.pool,
	}, nil
}

// Submit admits a job: validate, enqueue under the tenant, wake a worker.
// Returns the job id, or RequestError / ErrQueueFull / ErrDraining.
func (s *Server) Submit(req JobRequest) (string, error) {
	return s.submit(req, "")
}

// submit is Submit with an optional incoming W3C traceparent header. A
// valid header joins the caller's distributed trace (the request span
// records the remote parent); anything else — including a malformed
// header — starts a fresh root trace. Rejected submissions end their
// trace with Discard so admission-control floods (queue-full storms,
// fuzzed bodies) can never wash the kept-trace ring.
func (s *Server) submit(req JobRequest, traceparent string) (string, error) {
	parent, _ := trace.ParseTraceparent(traceparent)
	rsp := s.tracer.Start("request", parent,
		trace.String("tenant", req.Tenant),
		trace.String("bench", req.Bench),
		trace.Int("trials", int64(req.Trials)))
	asp := rsp.Child("admission")
	reject := func(err error) (string, error) {
		asp.SetError(err)
		asp.End()
		rsp.SetError(err)
		rsp.Discard()
		return "", err
	}
	cfg, err := s.buildConfig(&req)
	if err != nil {
		return reject(err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.Add(obs.JobsRejected, 1)
		return reject(ErrDraining)
	}
	if s.queued >= s.cfg.QueueCap {
		s.mu.Unlock()
		s.metrics.Add(obs.JobsRejected, 1)
		s.tenantMetrics(req.Tenant).Add(obs.JobsRejected, 1)
		return reject(ErrQueueFull)
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		tenant:    req.Tenant,
		req:       req,
		cfg:       cfg,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		span:      rsp,
		traceID:   rsp.TraceIDString(),
	}
	rsp.SetAttr(trace.String("job", j.id))
	asp.End()
	j.queueSpan = rsp.Child("queue_wait")
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if _, ok := s.tenantQs[j.tenant]; !ok {
		s.tenants = append(s.tenants, j.tenant)
	}
	s.tenantQs[j.tenant] = append(s.tenantQs[j.tenant], j)
	s.queued++
	s.metrics.SetMax(obs.QueueDepthHighWater, int64(s.queued))
	tm := s.tenantMetricsLocked(j.tenant)
	s.mu.Unlock()
	s.metrics.Add(obs.JobsAccepted, 1)
	tm.Add(obs.JobsAccepted, 1)
	s.cond.Signal()
	s.logger.Debug("job accepted", "id", j.id, "tenant", j.tenant, "trials", req.Trials,
		"trace_id", j.traceID)
	return j.id, nil
}

// tenantMetricsLocked returns (creating and registering on first use) the
// tenant's recorder. Caller holds s.mu.
func (s *Server) tenantMetricsLocked(tenant string) *obs.Metrics {
	m := s.tenantMs[tenant]
	if m == nil {
		m = obs.NewMetrics()
		s.tenantMs[tenant] = m
		s.exporter.Register("tenant:"+tenant, m)
	}
	return m
}

func (s *Server) tenantMetrics(tenant string) *obs.Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantMetricsLocked(tenant)
}

// next pops the next job in tenant round-robin order, blocking until one
// is available or drain empties the queue. Returns nil when the worker
// should exit.
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.queued > 0 {
			// Rotate over tenants starting at the round-robin cursor; the
			// first tenant with a queued job wins and the cursor moves past
			// it, so a tenant with a deep backlog cannot starve the others.
			for i := 0; i < len(s.tenants); i++ {
				t := s.tenants[(s.rr+i)%len(s.tenants)]
				q := s.tenantQs[t]
				if len(q) == 0 {
					continue
				}
				j := q[0]
				q[0] = nil
				s.tenantQs[t] = q[1:]
				s.rr = (s.rr + i + 1) % len(s.tenants)
				s.queued--
				j.state = StateRunning
				j.started = time.Now()
				return j
			}
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// worker executes jobs until drain empties the queue.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			s.logger.Debug("worker exiting", "worker", i)
			return
		}
		s.runJob(j)
	}
}

// runJob executes one admitted job against the shared arena and segment
// cache, recording into both the aggregate and the tenant recorder.
func (s *Server) runJob(j *job) {
	j.queueSpan.End()
	tm := s.tenantMetrics(j.tenant)
	rec := obs.Multi(s.metrics, tm)
	cfg := j.cfg
	cfg.Recorder = rec
	cfg.Span = j.span

	h0 := tm.Counter(obs.SegCacheHits)
	m0 := tm.Counter(obs.SegCacheMisses)
	rep, err := s.runRecovered(cfg)

	s.mu.Lock()
	j.finished = time.Now()
	j.segHits = tm.Counter(obs.SegCacheHits) - h0
	j.segMisses = tm.Counter(obs.SegCacheMisses) - m0
	wait := j.started.Sub(j.submitted).Nanoseconds()
	total := j.finished.Sub(j.submitted).Nanoseconds()
	if err == nil && rep.Reordered == nil {
		err = fmt.Errorf("service: run produced no result")
	}
	if err != nil {
		j.state = StateFailed
		j.err = err
	} else {
		res := rep.Reordered
		j.state = StateDone
		j.counts = newCountList(res.Counts, rep.Circuit)
		j.ops = res.Ops
		j.copies = res.Copies
		j.msv = res.MSV
	}
	s.mu.Unlock()

	if sp := j.span; sp != nil {
		if err != nil {
			sp.SetError(err)
		} else {
			sp.SetAttr(
				trace.Int("ops", j.ops),
				trace.Int("segcache_hits", j.segHits),
				trace.Int("segcache_misses", j.segMisses))
		}
		sp.End()
	}
	for _, m := range []*obs.Metrics{s.metrics, tm} {
		m.Observe(obs.HistJobQueueWait, wait)
		m.Observe(obs.HistJobLatency, total)
		if err != nil {
			m.Add(obs.JobsFailed, 1)
		} else {
			m.Add(obs.JobsCompleted, 1)
		}
	}
	if err != nil {
		s.logger.Warn("job failed", "id", j.id, "tenant", j.tenant, "err", err,
			"trace_id", j.traceID, "span_id", j.span.IDString())
	} else {
		s.logger.Info("job done", "id", j.id, "tenant", j.tenant,
			"ops", j.ops, "wait_ms", wait/1e6, "run_ms", (total-wait)/1e6,
			"segcache_hits", j.segHits, "segcache_misses", j.segMisses,
			"trace_id", j.traceID, "span_id", j.span.IDString())
	}
	// The daemon keeps the last s.retain finished jobs for
	// GET /v1/jobs/{id}, which needs only the results above. Drop the
	// circuit and the span tree (a kept trace lives on in the tracer's
	// ring) so a finished job keeps its result, not the request's whole
	// working set.
	s.mu.Lock()
	j.cfg = core.Config{}
	j.span, j.queueSpan = nil, nil
	j.req.QASM = ""
	s.retireLocked(j)
	s.mu.Unlock()
	close(j.done)
}

// retireLocked counts a finished job against the retention cap and
// evicts the oldest finished jobs beyond it from the table and the
// listing order. Queued and running jobs are not retired, so they stay.
// Caller holds s.mu.
func (s *Server) retireLocked(j *job) {
	j.retired = true
	s.retired++
	for i := 0; s.retired > s.retain && i < len(s.order); {
		id := s.order[i]
		if !s.jobs[id].retired {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = slices.Delete(s.order, i, i+1)
		s.retired--
	}
}

// runRecovered is s.run with a panic turned into the job's error, so one
// bad job fails alone instead of taking every tenant's jobs down with the
// daemon. It covers the job's own goroutine; executor worker goroutines
// are not covered.
func (s *Server) runRecovered(cfg core.Config) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("service: job panicked: %v", r)
		}
	}()
	return s.run(cfg)
}

// FormatCounts renders an outcome histogram with fixed-width binary keys,
// using the classical register width exactly like the qsim CLI. The
// daemon serves job histograms in this form; callers comparing a daemon
// result against a direct core.Run format the direct counts with it.
func FormatCounts(counts map[uint64]int, c *circuit.Circuit) map[string]int {
	width := countsWidth(c)
	out := make(map[string]int, len(counts))
	for bits, n := range counts {
		out[formatBits(bits, width)] = n
	}
	return out
}

// countsWidth is the key width of c's histogram: the classical register
// width, or the qubit count for a circuit that measures nothing.
func countsWidth(c *circuit.Circuit) int {
	if w := len(c.Measurements()); w > 0 {
		return w
	}
	return c.NumQubits()
}

// formatBits renders bits in binary, zero-padded to width digits: the
// string fmt.Sprintf("%0*b", width, bits) gives.
func formatBits(bits uint64, width int) string {
	var buf [64]byte
	digits := strconv.AppendUint(buf[:0], bits, 2)
	pad := width - len(digits)
	switch {
	case pad <= 0:
		return string(digits)
	case width > len(buf):
		return strings.Repeat("0", pad) + string(digits)
	}
	copy(buf[pad:], digits)
	for i := range pad {
		buf[i] = '0'
	}
	return string(buf[:width])
}

// countList is a finished job's histogram as the daemon retains it: the
// (bits, count) pairs sorted by bits and the key width, a pointer-free
// slice in place of a map of strings. view formats it (format) when the
// job is read.
type countList struct {
	width int
	cells []countCell
}

type countCell struct {
	bits uint64
	n    int
}

func newCountList(counts map[uint64]int, c *circuit.Circuit) countList {
	cl := countList{width: countsWidth(c), cells: make([]countCell, 0, len(counts))}
	for bits, n := range counts {
		cl.cells = append(cl.cells, countCell{bits, n})
	}
	slices.SortFunc(cl.cells, func(a, b countCell) int { return cmp.Compare(a.bits, b.bits) })
	return cl
}

// format builds the JobView.Counts map, as FormatCounts would.
func (cl countList) format() map[string]int {
	out := make(map[string]int, len(cl.cells))
	for _, c := range cl.cells {
		out[formatBits(c.bits, cl.width)] = c.n
	}
	return out
}

// Drain stops admission (new submissions get 503), wakes every worker,
// and waits — until ctx expires — for all admitted jobs to finish and the
// workers to exit. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logger.Info("drain complete",
			"completed", s.metrics.Counter(obs.JobsCompleted),
			"failed", s.metrics.Counter(obs.JobsFailed))
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain timed out: %w", ctx.Err())
	}
}

// WaitJob blocks until the job finishes or ctx expires (in-process test
// and harness hook; HTTP clients poll GET /v1/jobs/{id}).
func (s *Server) WaitJob(ctx context.Context, id string) (*JobView, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("service: no such job %q", id)
	}
	select {
	case <-j.done:
		v := s.view(j)
		return &v, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// view snapshots a job for serialization.
func (s *Server) view(j *job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID:             j.id,
		Tenant:         j.tenant,
		State:          j.state,
		Fuse:           j.req.Fuse,
		Policy:         j.req.Policy,
		TraceID:        j.traceID,
		Trials:         j.req.Trials,
		SegCacheHits:   j.segHits,
		SegCacheMisses: j.segMisses,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.state == StateDone {
		v.Counts = j.counts.format()
		v.Ops = j.ops
		v.Copies = j.copies
		v.MSV = j.msv
	}
	if !j.started.IsZero() {
		v.QueueWaitNs = j.started.Sub(j.submitted).Nanoseconds()
	}
	if !j.finished.IsZero() {
		v.RunNs = j.finished.Sub(j.started).Nanoseconds()
	}
	return v
}

// Stats snapshots the daemon-wide shared state.
func (s *Server) Stats() Stats {
	hits, misses := statevec.SegmentCacheStats()
	ph, pm := s.pool.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	tenants := append([]string(nil), s.tenants...)
	sort.Strings(tenants)
	return Stats{
		SegCache: SegCacheStats{
			Size:       statevec.SegmentCacheSize(),
			Capacity:   statevec.SegmentCacheCapacity(),
			Hits:       hits,
			Misses:     misses,
			Evictions:  statevec.SegmentCacheEvictions(),
			Collisions: statevec.SegmentCacheCollisions(),
		},
		Pool: PoolStats{
			Hits:     ph,
			Misses:   pm,
			Drops:    s.pool.Drops(),
			Retained: s.pool.Retained(),
		},
		Queue: QueueStats{
			Depth:     s.queued,
			Capacity:  s.cfg.QueueCap,
			HighWater: s.metrics.Gauge(obs.QueueDepthHighWater),
		},
		Jobs: JobCounts{
			Accepted:  s.metrics.Counter(obs.JobsAccepted),
			Rejected:  s.metrics.Counter(obs.JobsRejected),
			Completed: s.metrics.Counter(obs.JobsCompleted),
			Failed:    s.metrics.Counter(obs.JobsFailed),
		},
		Traces:   s.tracer.Stats(),
		Tenants:  tenants,
		Draining: s.draining,
	}
}

// Handler returns the daemon's HTTP mux:
//
//	POST /v1/jobs      submit a JobRequest; 202 {"id": ...} on admission,
//	                   400 invalid, 429 queue full, 503 draining
//	GET  /v1/jobs/{id} job status and result; 404 once evicted
//	GET  /v1/jobs      retained jobs in admission order
//	GET  /v1/stats     shared-state snapshot (segment cache, pool, queue)
//	GET  /v1/traces      kept-trace summaries, oldest first
//	GET  /v1/traces/{id} one kept trace as Chrome trace-event JSON
//	                     (load in Perfetto / chrome://tracing)
//	GET  /metrics      Prometheus text exposition (aggregate + per-tenant)
//	GET  /healthz      200 ok; 503 once draining
//
// POST /v1/jobs honors an incoming W3C traceparent header: the job's
// spans join the caller's trace ID, and the response's job record carries
// it back as trace_id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.Handle("GET /metrics", s.exporter)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("read body: %v", err))
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parse body: %v", err))
		return
	}
	id, err := s.submit(req, r.Header.Get("traceparent"))
	switch {
	case err == nil:
	case err == ErrQueueFull:
		httpError(w, http.StatusTooManyRequests, err)
		return
	case err == ErrDraining:
		httpError(w, http.StatusServiceUnavailable, err)
		return
	default:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(StateQueued)})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]JobView, len(js))
	for i, j := range js {
		views[i] = s.view(j)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	sums := s.tracer.Traces()
	if sums == nil {
		sums = []trace.Summary{}
	}
	writeJSON(w, http.StatusOK, sums)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.tracer.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such trace %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = tr.WriteChrome(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
