// Package core is the top-level API of the reproduction: it wires the
// pipeline of the paper end to end — build or accept a circuit, map it to
// a device, statically generate the Monte Carlo error-injection trials,
// reorder them with Algorithm 1, and either execute (baseline and/or
// optimized, with full state vectors) or statically analyze (op counts and
// MSVs only, usable at 40 qubits and 10^6 trials).
//
// Typical use:
//
//	dev := device.Yorktown()
//	circ := bench.BV(5, 0b1111)
//	rep, err := core.Run(core.Config{
//		Circuit: circ, Device: dev, Transpile: true,
//		Trials: 4096, Seed: 1, Mode: core.ModeBoth,
//	})
//	fmt.Println(rep.Analysis.Normalized, rep.Analysis.MSV)
package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/transpile"
	"repro/internal/trial"
)

// Mode selects what Run executes.
type Mode int

// Run modes.
const (
	// ModeStatic generates and reorders trials and computes the static
	// analysis only; no amplitudes are allocated. Works at any width.
	ModeStatic Mode = iota
	// ModeBaseline runs the unordered per-trial simulation only.
	ModeBaseline
	// ModeReordered runs the optimized plan-driven simulation only
	// (plus the static analysis, which is free).
	ModeReordered
	// ModeBoth runs baseline and reordered on the same trial set,
	// enabling equivalence checks and measured speedup comparison.
	ModeBoth
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeBaseline:
		return "baseline"
	case ModeReordered:
		return "reordered"
	case ModeBoth:
		return "both"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config describes one noisy-simulation job.
type Config struct {
	// Circuit is the program to simulate. Required.
	Circuit *circuit.Circuit
	// Device supplies the noise model and, with Transpile set, the
	// coupling constraints. Exactly one of Device and Model must be set.
	Device *device.Device
	// Model supplies error rates directly when no device is involved.
	Model *noise.Model
	// Transpile maps the circuit onto the device before simulation
	// (ignored without a Device).
	Transpile bool
	// Trials is the number of Monte Carlo error-injection trials.
	Trials int
	// Seed drives trial generation; equal seeds give equal trial sets.
	Seed int64
	// Mode selects static analysis vs executed simulation.
	Mode Mode
	// ErrorMode selects the injection model (default trial.PerGate, the
	// paper's Figure 3 semantics).
	ErrorMode trial.ErrorMode
	// SnapshotBudget caps the concurrently stored state vectors; 0 means
	// unlimited (the paper's scheme). A positive budget trades
	// recomputation for memory via reorder.Options.Budget. With Workers
	// set, the budget caps each parallel component's stack (see
	// sim.Options.SnapshotBudget).
	SnapshotBudget int
	// Workers runs the reordered execution across this many goroutines.
	// 0 or 1 executes sequentially; more use the subtree-parallel
	// executor (sim.ParallelSubtree), which preserves all cross-worker
	// prefix sharing. Ignored for static and baseline modes.
	Workers int
	// Deprecated: the contiguous-chunk executor is removed; Run rejects a
	// config that sets ChunkedParallel. Workers > 1 runs the subtree
	// executor.
	ChunkedParallel bool
	// Deprecated: the batched SoA lane executor is removed; Run rejects
	// BatchLanes > 1.
	BatchLanes int
	// Fuse selects the kernel-compilation mode for reordered execution
	// (see statevec.FuseMode). FuseOff dispatches gate by gate;
	// FuseNumeric compiles fused kernels that fold gate matrices
	// algebraically. Baseline mode always dispatches — it is the
	// reference the optimized paths are checked against.
	Fuse statevec.FuseMode
	// Deprecated: intra-state striping is removed; Run rejects
	// Stripes > 1. Workers > 1 runs the subtree executor.
	Stripes int
	// Policy selects how executors return to branch points (see
	// sim.RestorePolicy): snapshot (default, the paper's scheme),
	// uncompute (reverse execution, near-zero stored vectors), or
	// adaptive (per-branch-point choice). Non-snapshot policies run an
	// unbudgeted plan and enforce SnapshotBudget at run time.
	Policy sim.RestorePolicy
	// MemProbe feeds live memory pressure into the adaptive policy (see
	// sim.Options.MemProbe); nil means no pressure.
	MemProbe func() bool
	// Recorder, when non-nil, receives run metrics: per-phase wall-clock
	// timings (trial generation, plan build, execution) and
	// the executors' counters and trace events (see internal/obs). nil
	// disables all recording; recording never changes any Result field.
	Recorder obs.Recorder
	// Pool, when non-nil, is a shared amplitude-buffer arena the run draws
	// its state vectors from (see sim.Options.Pool). Long-lived callers —
	// the qsimd daemon — pass one pool across every job so buffers stay
	// warm between requests. nil gives each run a private arena.
	Pool *statevec.BufferPool
	// Span, when non-nil, parents the run's causal trace: Run opens one
	// child per pipeline phase (transpile when mapping is requested, then
	// trial_gen, plan_build and execute — the last three mirroring the
	// Recorder's phase timings) and threads the execute
	// child into the sim executors, which hang their own spans and
	// segment-compile children under it. nil disables tracing; like the
	// Recorder, a span never changes any Result field.
	Span *trace.Span
}

// Report is the outcome of Run.
type Report struct {
	// Circuit is the simulated circuit (post-transpile when mapping was
	// requested).
	Circuit *circuit.Circuit
	// Transpile reports mapping statistics when transpiling happened.
	Transpile *transpile.Result
	// Trials is the generated trial set, in generation order.
	Trials []*trial.Trial
	// TrialStats summarizes the trial set.
	TrialStats trial.Stats
	// Plan is the reordered execution plan. When Workers > 1 the plan is
	// counted, not built (reorder.Options.Count): it carries the order
	// and every counter (OptimizedOps, MSV, Analysis, SplitTasks) but nil
	// Steps, since the subtree executor runs the order through a split
	// plan of its own.
	Plan *reorder.Plan
	// Analysis holds the paper's static metrics (normalized computation,
	// MSV) for the plan.
	Analysis reorder.Analysis
	// Baseline and Reordered hold executed results per Mode.
	Baseline  *sim.Result
	Reordered *sim.Result
}

// Run executes one job per the config: new(Runner).Run(cfg).
func Run(cfg Config) (*Report, error) {
	return new(Runner).Run(cfg)
}

// Runner runs jobs one after another and keeps each job's slabs for the
// next: the math/rand source (reseeded, which gives the stream a new
// source would), the trial generator's tables, the trial slab and key
// arena, the plan walk's order and scratch, the plan's steps and layer
// tables, and the sequential executor's dispatch table, frames, step sink
// and result histogram. The zero Runner is ready to use. A Runner is not
// safe for concurrent use: hold one per goroutine, as each qsimd worker
// does.
//
// Aliasing: the Report of a Run shares the Runner's slabs. Report.Trials,
// Report.Plan (Order and Steps included) and Report.Reordered's Outcomes
// and Counts stay valid until the Runner's next Run, which reuses them; a
// caller that keeps them longer copies them first. Run's own reports do
// not alias anything, since each comes from a Runner of its own.
//
// Retention: after each job the Runner drops the slabs of any layer
// (trial generation, reorder, execution) that hold more than RetainBytes,
// so one very large job does not pin its memory in an idle Runner.
type Runner struct {
	rng    *rand.Rand
	trials trial.Workspace
	order  reorder.Workspace
	exec   sim.Workspace
}

// RetainBytes bounds the slabs a Runner keeps per layer between jobs:
// about the trial slab and pointers of 2^16 trials.
const RetainBytes = 4 << 20

// Run executes one job per the config, reusing the slabs of the Runner's
// previous job. Its report equals Run's field by field.
func (r *Runner) Run(cfg Config) (*Report, error) {
	rep, err := r.run(cfg)
	if r.trials.Bytes() > RetainBytes {
		r.trials = trial.Workspace{}
	}
	if r.order.Bytes() > RetainBytes {
		r.order = reorder.Workspace{}
	}
	if r.exec.Bytes() > RetainBytes {
		r.exec = sim.Workspace{}
	}
	return rep, err
}

func (r *Runner) run(cfg Config) (*Report, error) {
	if cfg.Circuit == nil {
		return nil, fmt.Errorf("core: Config.Circuit is required")
	}
	if (cfg.Device == nil) == (cfg.Model == nil) {
		return nil, fmt.Errorf("core: exactly one of Config.Device and Config.Model must be set")
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("core: Config.Trials must be positive, got %d", cfg.Trials)
	}
	if cfg.ChunkedParallel {
		return nil, fmt.Errorf("core: Config.ChunkedParallel: the chunked parallel executor was removed; Workers > 1 runs the subtree executor")
	}
	if cfg.BatchLanes > 1 {
		return nil, fmt.Errorf("core: Config.BatchLanes: the batched SoA lane executor was removed; Workers > 1 runs the subtree executor")
	}
	if cfg.Stripes > 1 {
		return nil, fmt.Errorf("core: Config.Stripes: intra-state striping was removed; Workers > 1 runs the subtree executor")
	}

	rep := &Report{Circuit: cfg.Circuit}
	model := cfg.Model
	if cfg.Device != nil {
		model = cfg.Device.Model()
		if cfg.Transpile {
			trSpan := cfg.Span.Child("transpile")
			tr, err := transpile.ToDevice(cfg.Circuit, cfg.Device)
			trSpan.SetError(err)
			trSpan.End()
			if err != nil {
				return nil, err
			}
			rep.Transpile = tr
			rep.Circuit = tr.Circuit
		}
	}
	if err := rep.Circuit.Validate(); err != nil {
		return nil, err
	}

	gen, err := r.trials.Generator(rep.Circuit, model, cfg.ErrorMode)
	if err != nil {
		return nil, err
	}
	if cfg.Span != nil {
		cfg.Span.SetAttr(
			trace.Int("qubits", int64(rep.Circuit.NumQubits())),
			trace.Int("trials", int64(cfg.Trials)),
			trace.Int("seed", cfg.Seed),
			trace.String("mode", cfg.Mode.String()),
			trace.String("fuse", cfg.Fuse.String()),
			trace.String("policy", cfg.Policy.String()),
			trace.Int("workers", int64(cfg.Workers)))
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		r.rng.Seed(cfg.Seed)
	}
	ph := startPhase(&cfg, obs.PhaseTrialGen, "trial_gen")
	rep.Trials = gen.GenerateInto(&r.trials, r.rng, cfg.Trials)
	ph.end(nil)

	// Algorithm 1 is one walk: it sorts the trials and builds the plan,
	// timed as one phase. Only the sequential executor runs the plan's
	// steps, so with workers the walk counts: the subtree executor splits
	// the plan's order at the cut its task counts choose.
	popt := reorder.Options{Count: cfg.Workers > 1}
	if cfg.SnapshotBudget > 0 && cfg.Policy == sim.PolicySnapshot {
		// Non-snapshot policies enforce the budget themselves; the plan
		// stays unbudgeted (no restore/replay steps).
		popt.Budget = cfg.SnapshotBudget
	}
	ph = startPhase(&cfg, obs.PhasePlanBuild, "plan_build")
	rep.Plan, err = r.order.BuildPlan(rep.Circuit, rep.Trials, popt)
	if err != nil {
		ph.end(err)
		return nil, err
	}
	rep.Analysis = rep.Plan.Analysis()
	if ph.span != nil {
		ph.span.SetAttr(
			trace.Int("optimized_ops", rep.Analysis.OptimizedOps),
			trace.Int("baseline_ops", rep.Analysis.BaselineOps),
			trace.Int("msv", int64(rep.Analysis.MSV)))
	}
	ph.end(nil)
	rep.TrialStats = trial.SummarizeSorted(rep.Plan.Order)

	ph = startPhase(&cfg, obs.PhaseExecute, "execute")
	opt := sim.Options{
		SnapshotBudget: cfg.SnapshotBudget,
		Fuse:           cfg.Fuse,
		Recorder:       cfg.Recorder,
		Policy:         cfg.Policy,
		MemProbe:       cfg.MemProbe,
		Pool:           cfg.Pool,
		Span:           ph.span,
	}
	runReordered := func() (*sim.Result, error) {
		if cfg.Workers > 1 {
			return sim.ParallelSubtreeOrdered(rep.Circuit, rep.Plan, cfg.Workers, opt)
		}
		return r.exec.ExecutePlan(rep.Circuit, rep.Plan, opt)
	}
	switch cfg.Mode {
	case ModeStatic:
	case ModeBaseline:
		rep.Baseline, err = sim.Baseline(rep.Circuit, rep.Trials, opt)
	case ModeReordered:
		rep.Reordered, err = runReordered()
	case ModeBoth:
		rep.Baseline, err = sim.Baseline(rep.Circuit, rep.Trials, opt)
		if err == nil {
			rep.Reordered, err = runReordered()
		}
	default:
		ph.end(nil)
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	if ph.span != nil && err == nil && rep.Reordered != nil {
		ph.span.SetAttr(
			trace.Int("ops", rep.Reordered.Ops),
			trace.Int("copies", rep.Reordered.Copies),
			trace.Int("msv", int64(rep.Reordered.MSV)))
	}
	ph.end(err)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// phase is one timed pipeline phase: its Recorder timing and its child
// span of the run's span.
type phase struct {
	rec   obs.Recorder
	p     obs.Phase
	start time.Time
	span  *trace.Span
}

// startPhase starts timing phase p (when the run records) and opens its
// span (when the run traces).
func startPhase(cfg *Config, p obs.Phase, name string) phase {
	ph := phase{rec: cfg.Recorder, p: p}
	if ph.rec != nil {
		ph.start = time.Now()
	}
	ph.span = cfg.Span.Child(name)
	return ph
}

// end closes the phase's span, marked with err, and records its time.
func (ph phase) end(err error) {
	ph.span.SetError(err)
	ph.span.End()
	if ph.rec != nil {
		ph.rec.PhaseDone(ph.p, time.Since(ph.start))
	}
}

// MeasuredSaving returns 1 - executedReorderedOps/executedBaselineOps when
// both simulators ran, falling back to the static analysis otherwise.
func (r *Report) MeasuredSaving() float64 {
	if r.Baseline != nil && r.Reordered != nil && r.Baseline.Ops > 0 {
		return 1 - float64(r.Reordered.Ops)/float64(r.Baseline.Ops)
	}
	return r.Analysis.Saving
}
