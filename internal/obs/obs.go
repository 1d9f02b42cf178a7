// Package obs is the execution-observability layer: structured run
// metrics (counters, high-water gauges, per-phase wall-clock timings,
// histograms) and profiling endpoints (net/http/pprof + expvar) shared
// by the CLI binaries. Per-event detail (snapshot pushes, restores,
// spawns) lives on the span events of package trace.
//
// The design is allocation-conscious so that observability never shows up
// on the paper's hot path:
//
//   - Executors hold a Recorder interface value that is nil when
//     observability is off, so every instrumented site costs one
//     nil-check when disabled.
//   - The standard Metrics recorder is a fixed array of atomic counters:
//     recording never allocates and never takes a lock.
//   - A hot loop that records per step (a plan walk) accumulates into a
//     plain Tally it owns and hands it to Recorder.Merge in one call, so
//     a step costs a few plain adds, not atomic adds on shared lines.
//
// Metrics are strictly an observer: they must never perturb the logical
// basic-operation accounting (executors report ops == plan.OptimizedOps()
// with or without a recorder attached — the sim test suite enforces it).
package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// Counter enumerates the monotonically increasing run counters.
type Counter uint8

// Run counters. Ops and Copies mirror the executed Result fields; the
// snapshot and kernel counters expose what the Result aggregates hide.
const (
	// Ops counts basic operations: gate applications plus injected
	// Paulis, the paper's normalized-computation numerator.
	Ops Counter = iota
	// Copies counts whole-state copies (snapshot pushes, budget
	// restores, subtree entry clones).
	Copies
	// SnapshotPushes counts prefix states pushed onto snapshot stacks.
	SnapshotPushes
	// SnapshotDrops counts snapshots popped (dropped after last use).
	SnapshotDrops
	// SnapshotRestores counts budget-forced restores (resume from the
	// top snapshot, or from scratch when nothing is stored).
	SnapshotRestores
	// TrialsEmitted counts per-trial classical outcomes produced.
	TrialsEmitted
	// TasksSpawned counts subtree tasks handed to the worker pool.
	TasksSpawned
	// KernelSweeps counts compiled fused-kernel invocations.
	KernelSweeps
	// BatchVariants counts circuit variants executed through shared
	// batch plans (reorder.BatchPlan).
	BatchVariants
	// BatchOpsSaved counts basic operations the shared batch trie
	// eliminated versus independent per-variant plans (the batch
	// analysis' SavedOps, accumulated per executed batch).
	BatchOpsSaved
	// SegCacheHits counts compiled-segment reuses served by the
	// content-addressed cross-program cache (statevec).
	SegCacheHits
	// SegCacheMisses counts segment lowerings the content-addressed
	// cache could not serve.
	SegCacheMisses
	// SegCacheEvictions counts segments evicted from the bounded
	// content-addressed cache (second-chance clock sweep; only a
	// capacity-configured cache ever evicts).
	SegCacheEvictions
	// SegCacheCollisions counts content-cache hits rejected because the
	// stored entry's cheap discriminators (layer count, lowered-op
	// count) disagreed with the requesting program — a 64-bit digest
	// collision. The requester falls back to a private compile.
	SegCacheCollisions
	// PoolDrops counts buffers released to a BufferPool size class that
	// was already at its retention cap and therefore handed to the GC
	// instead of the free list.
	PoolDrops
	// UncomputeSegments counts reverse-executed rollback segments (each
	// rollback of one branch suffix is one segment, however many layer
	// ranges and injections it undoes).
	UncomputeSegments
	// UncomputeOps counts basic operations spent running gates backwards
	// (dagger applications and reverse Pauli injections). Kept separate
	// from Ops so the forward count still equals the plan's
	// OptimizedOps invariant.
	UncomputeOps
	// PolicySnapshotDecisions counts branch points where the restore
	// policy chose to store a real snapshot.
	PolicySnapshotDecisions
	// PolicyUncomputeDecisions counts branch points where the restore
	// policy chose a virtual (uncompute) branch point instead of a
	// snapshot.
	PolicyUncomputeDecisions
	// PoolHits counts amplitude-buffer acquisitions served from the
	// statevec.BufferPool free lists (no allocation).
	PoolHits
	// PoolMisses counts pool acquisitions that had to allocate. A
	// steady-state run shows misses only during warm-up.
	PoolMisses
	// JobsAccepted counts simulation-service jobs admitted into the
	// queue (cmd/qsimd).
	JobsAccepted
	// JobsRejected counts submissions refused by admission control
	// (queue full → 429, or draining → 503).
	JobsRejected
	// JobsCompleted counts service jobs that finished successfully.
	JobsCompleted
	// JobsFailed counts service jobs that finished with an error.
	JobsFailed
	// TracesStarted counts root spans opened by a trace.Tracer (one per
	// traced request or CLI run).
	TracesStarted
	// TracesKept counts finished traces retained by the tail sampler
	// (errored, slow-tail, or rate-sampled).
	TracesKept
	// TracesDropped counts finished traces the tail sampler discarded.
	TracesDropped
	// SpansStarted counts spans opened across all traces (roots included).
	SpansStarted
	// SpansDropped counts child spans refused because their trace hit its
	// per-trace span cap.
	SpansDropped

	numCounters
)

var counterNames = [numCounters]string{
	Ops:                "ops",
	Copies:             "copies",
	SnapshotPushes:     "snapshot_pushes",
	SnapshotDrops:      "snapshot_drops",
	SnapshotRestores:   "snapshot_restores",
	TrialsEmitted:      "trials_emitted",
	TasksSpawned:       "tasks_spawned",
	KernelSweeps:       "kernel_sweeps",
	BatchVariants:      "batch_variants",
	BatchOpsSaved:      "batch_ops_saved",
	SegCacheHits:       "segcache_hits",
	SegCacheMisses:     "segcache_misses",
	SegCacheEvictions:  "segcache_evictions",
	SegCacheCollisions: "segcache_collisions",
	PoolDrops:          "pool_drops",

	UncomputeSegments:        "uncompute_segments",
	UncomputeOps:             "uncompute_ops",
	PolicySnapshotDecisions:  "policy_snapshot",
	PolicyUncomputeDecisions: "policy_uncompute",
	PoolHits:                 "pool_hits",
	PoolMisses:               "pool_misses",
	JobsAccepted:             "jobs_accepted",
	JobsRejected:             "jobs_rejected",
	JobsCompleted:            "jobs_completed",
	JobsFailed:               "jobs_failed",
	TracesStarted:            "traces_started",
	TracesKept:               "traces_kept",
	TracesDropped:            "traces_dropped",
	SpansStarted:             "spans_started",
	SpansDropped:             "spans_dropped",
}

// String returns the counter's canonical (JSON) name.
func (c Counter) String() string { return counterNames[c] }

// Gauge enumerates the high-water gauges.
type Gauge uint8

// High-water gauges.
const (
	// MSVHighWater is the peak number of concurrently stored state
	// vectors — the paper's MSV metric, taken across all goroutines.
	MSVHighWater Gauge = iota
	// QueueDepthHighWater is the peak number of jobs queued in the
	// simulation service's admission queue (across all tenants).
	QueueDepthHighWater

	numGauges
)

var gaugeNames = [numGauges]string{
	MSVHighWater:        "msv_high_water",
	QueueDepthHighWater: "queue_depth_high_water",
}

// String returns the gauge's canonical (JSON) name.
func (g Gauge) String() string { return gaugeNames[g] }

// Phase enumerates the timed pipeline phases.
type Phase uint8

// Pipeline phases, in execution order.
const (
	// PhaseTrialGen is Monte Carlo trial generation.
	PhaseTrialGen Phase = iota
	// PhasePlanBuild is Algorithm 1's walk: the reorder sort of the
	// trial set and the execution-plan (or split-plan) construction.
	PhasePlanBuild
	// PhaseExecute is plan execution with real state vectors.
	PhaseExecute

	numPhases
)

var phaseNames = [numPhases]string{
	PhaseTrialGen:  "trial_gen",
	PhasePlanBuild: "plan_build",
	PhaseExecute:   "execute",
}

// String returns the phase's canonical (JSON) name.
func (p Phase) String() string { return phaseNames[p] }

// Recorder is the sink the executors report into. All methods must be
// safe for concurrent use; implementations should treat every call as
// hot-path adjacent (no locks on Add/SetMax, no allocation).
//
// A nil Recorder means observability is off; instrumented code guards
// every call with a single nil-check.
type Recorder interface {
	// Add increments a counter by delta.
	Add(c Counter, delta int64)
	// SetMax raises a gauge to v when v exceeds its current value.
	SetMax(g Gauge, v int64)
	// PhaseDone accumulates d into a phase's total wall-clock time.
	PhaseDone(p Phase, d time.Duration)
	// Observe records one value into a distribution (latency in
	// nanoseconds, or a dimensionless depth).
	Observe(h Hist, v int64)
	// Merge adds a tally's counter deltas and observations, as if each
	// had been recorded through Add and Observe. The tally must be
	// quiescent: its owner does not write it during the call.
	Merge(t *Tally)
}

// StartPhase begins timing a phase and returns the function that stops
// the clock and records the duration. Safe on a nil recorder (returns a
// no-op), so callers can time unconditionally:
//
//	done := obs.StartPhase(rec, obs.PhaseExecute)
//	res, err := sim.ExecutePlan(c, plan, opt)
//	done()
func StartPhase(rec Recorder, p Phase) func() {
	if rec == nil {
		return func() {}
	}
	start := time.Now()
	return func() { rec.PhaseDone(p, time.Since(start)) }
}

// Metrics is the standard Recorder: lock-free atomic counters, gauges
// and phase timings. The zero value is ready to use; Metrics must not be
// copied after first use.
type Metrics struct {
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64
	phases   [numPhases]atomic.Int64 // nanoseconds
	hists    [numHists]Histogram
}

// NewMetrics returns an empty Metrics recorder.
func NewMetrics() *Metrics { return &Metrics{} }

// Add implements Recorder.
func (m *Metrics) Add(c Counter, delta int64) { m.counters[c].Add(delta) }

// SetMax implements Recorder: a compare-and-swap high-water update.
func (m *Metrics) SetMax(g Gauge, v int64) {
	for {
		cur := m.gauges[g].Load()
		if v <= cur || m.gauges[g].CompareAndSwap(cur, v) {
			return
		}
	}
}

// PhaseDone implements Recorder.
func (m *Metrics) PhaseDone(p Phase, d time.Duration) { m.phases[p].Add(int64(d)) }

// Observe implements Recorder: record one value into a log-bucketed
// histogram (lock-free, allocation-free).
func (m *Metrics) Observe(h Hist, v int64) { m.hists[h].Observe(v) }

// Merge implements Recorder: one atomic add per non-zero counter and
// per non-empty histogram bucket of the tally.
func (m *Metrics) Merge(t *Tally) {
	for c, v := range t.counters {
		if v != 0 {
			m.counters[c].Add(v)
		}
	}
	for h := range t.hists {
		m.hists[h].mergeTally(&t.hists[h])
	}
}

// Counter returns a counter's current value.
func (m *Metrics) Counter(c Counter) int64 { return m.counters[c].Load() }

// Gauge returns a gauge's current high-water value.
func (m *Metrics) Gauge(g Gauge) int64 { return m.gauges[g].Load() }

// PhaseNanos returns a phase's accumulated wall-clock nanoseconds.
func (m *Metrics) PhaseNanos(p Phase) int64 { return m.phases[p].Load() }

// Hist returns the recorder's live histogram for h (never nil), for
// quantile queries and exact cross-recorder merging.
func (m *Metrics) Hist(h Hist) *Histogram { return &m.hists[h] }

// Snapshot captures the current values as a JSON-friendly value. Zero
// counters and phases are included so consumers see a stable schema.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64, int(numCounters)),
		Gauges:     make(map[string]int64, int(numGauges)),
		PhaseNs:    make(map[string]int64, int(numPhases)),
		Histograms: make(map[string]HistogramSnapshot, int(numHists)),
	}
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[c.String()] = m.counters[c].Load()
	}
	for g := Gauge(0); g < numGauges; g++ {
		s.Gauges[g.String()] = m.gauges[g].Load()
	}
	for p := Phase(0); p < numPhases; p++ {
		s.PhaseNs[p.String()] = m.phases[p].Load()
	}
	for h := Hist(0); h < numHists; h++ {
		s.Histograms[h.String()] = m.hists[h].Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a Metrics recorder, keyed by the
// canonical counter/gauge/phase names.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	PhaseNs    map[string]int64             `json:"phase_ns"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// multi fans every record out to several recorders.
type multi []Recorder

func (m multi) Add(c Counter, delta int64) {
	for _, r := range m {
		r.Add(c, delta)
	}
}

func (m multi) SetMax(g Gauge, v int64) {
	for _, r := range m {
		r.SetMax(g, v)
	}
}

func (m multi) PhaseDone(p Phase, d time.Duration) {
	for _, r := range m {
		r.PhaseDone(p, d)
	}
}

func (m multi) Observe(h Hist, v int64) {
	for _, r := range m {
		r.Observe(h, v)
	}
}

func (m multi) Merge(t *Tally) {
	for _, r := range m {
		r.Merge(t)
	}
}

// Multi combines recorders into one. Nil inputs are skipped; with zero or
// one live recorder it returns nil or that recorder directly, so the
// hot-path nil-check and single-sink fast path survive composition.
func Multi(rs ...Recorder) Recorder {
	var live multi
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// RunMetrics is the JSON envelope the CLI binaries write for -metrics
// (and repro writes per experiment scenario). The schema is documented in
// EXPERIMENTS.md ("Run metrics JSON").
type RunMetrics struct {
	// Binary names the producing command (qsim, qsweep, kernbench,
	// repro).
	Binary string `json:"binary"`
	// Circuit/Qubits/Trials/Seed/Mode describe the workload when the
	// binary runs a single job (qsim); sweep binaries use Scenarios.
	Circuit string `json:"circuit,omitempty"`
	Qubits  int    `json:"qubits,omitempty"`
	Trials  int    `json:"trials,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Mode    string `json:"mode,omitempty"`
	// Plan holds the static plan analysis the executed counters are
	// checked against.
	Plan *PlanStatics `json:"plan,omitempty"`
	// Result holds the executed reordered Result fields, when a
	// simulation ran.
	Result *ExecStatics `json:"result,omitempty"`
	// Metrics is the aggregated recorder snapshot for the whole run.
	Metrics Snapshot `json:"metrics"`
	// Scenarios holds per-scenario snapshots for sweep/suite binaries.
	Scenarios []ScenarioMetrics `json:"scenarios,omitempty"`
}

// PlanStatics are the static plan metrics embedded in RunMetrics.
type PlanStatics struct {
	BaselineOps  int64   `json:"baseline_ops"`
	OptimizedOps int64   `json:"optimized_ops"`
	Normalized   float64 `json:"normalized"`
	MSV          int     `json:"msv"`
	Copies       int64   `json:"copies"`
}

// ExecStatics are the executed Result fields embedded in RunMetrics.
type ExecStatics struct {
	Ops    int64 `json:"ops"`
	Copies int64 `json:"copies"`
	MSV    int   `json:"msv"`
}

// ScenarioMetrics is one scenario of a sweep or experiment suite.
type ScenarioMetrics struct {
	Experiment string       `json:"experiment,omitempty"`
	Scenario   string       `json:"scenario"`
	Plan       *PlanStatics `json:"plan,omitempty"`
	Metrics    Snapshot     `json:"metrics"`
}

// WriteJSON writes the envelope as indented JSON.
func (rm *RunMetrics) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(rm, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteRunMetrics writes the envelope to a file.
func WriteRunMetrics(path string, rm *RunMetrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rm.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRunMetrics loads a -metrics file, for validation tooling
// (qsim -verify-metrics, make metrics-smoke).
func ReadRunMetrics(path string) (*RunMetrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rm := &RunMetrics{}
	if err := json.Unmarshal(data, rm); err != nil {
		return nil, err
	}
	return rm, nil
}
