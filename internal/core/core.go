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
	"math"
	"math/rand"

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
	// recomputation for memory via reorder.BuildPlanBudget. With Workers
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
	// FuseExact compiles fused kernels that replay dispatch arithmetic
	// bit-for-bit; FuseNumeric additionally folds gate matrices
	// algebraically. Baseline mode always dispatches — it is the
	// reference the optimized paths are checked against.
	Fuse statevec.FuseMode
	// Stripes applies each kernel across this many goroutine-partitioned
	// amplitude stripes when the state is large enough (intra-state
	// parallelism; see sim.Options.Stripes). 0 or 1 sweeps serially.
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
	// timings (trial generation, reorder sort, plan build, execution) and
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
	// trial_gen, sort, plan_build and execute — the last four mirroring
	// the Recorder's phase timings) and threads the execute
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
	// counted, not built (reorder.CountPlanOrderedBudget): it carries the
	// order and every counter (OptimizedOps, MSV, Analysis) but nil
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

// Run executes one job per the config.
func Run(cfg Config) (*Report, error) {
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

	gen, err := trial.NewGeneratorMode(rep.Circuit, model, cfg.ErrorMode)
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
	rng := rand.New(rand.NewSource(cfg.Seed))
	genDone := obs.StartPhase(cfg.Recorder, obs.PhaseTrialGen)
	genSpan := cfg.Span.Child("trial_gen")
	rep.Trials = gen.Generate(rng, cfg.Trials)
	genSpan.End()
	genDone()

	// Sort and plan construction are timed as separate phases; building
	// from the presorted order is equivalent to BuildPlan/BuildPlanBudget
	// over the raw trial set.
	sortDone := obs.StartPhase(cfg.Recorder, obs.PhaseSort)
	sortSpan := cfg.Span.Child("sort")
	ordered := reorder.Sort(rep.Trials)
	sortSpan.End()
	sortDone()
	rep.TrialStats = trial.SummarizeSorted(ordered)
	budget := math.MaxInt
	if cfg.SnapshotBudget > 0 && cfg.Policy == sim.PolicySnapshot {
		// Non-snapshot policies enforce the budget themselves; the plan
		// stays unbudgeted (no restore/replay steps).
		budget = cfg.SnapshotBudget
	}
	buildPlan := reorder.BuildPlanOrderedBudget
	if cfg.Workers > 1 {
		// Only the sequential executor runs the plan's steps.
		buildPlan = reorder.CountPlanOrderedBudget
	}
	planDone := obs.StartPhase(cfg.Recorder, obs.PhasePlanBuild)
	planSpan := cfg.Span.Child("plan_build")
	rep.Plan, err = buildPlan(rep.Circuit, ordered, budget)
	if err != nil {
		planSpan.SetError(err)
		planSpan.End()
		planDone()
		return nil, err
	}
	rep.Analysis = rep.Plan.Analysis()
	if planSpan != nil {
		planSpan.SetAttr(
			trace.Int("optimized_ops", rep.Analysis.OptimizedOps),
			trace.Int("baseline_ops", rep.Analysis.BaselineOps),
			trace.Int("msv", int64(rep.Analysis.MSV)))
	}
	planSpan.End()
	planDone()

	execSpan := cfg.Span.Child("execute")
	opt := sim.Options{
		SnapshotBudget: cfg.SnapshotBudget,
		Fuse:           cfg.Fuse,
		Stripes:        cfg.Stripes,
		Recorder:       cfg.Recorder,
		Policy:         cfg.Policy,
		MemProbe:       cfg.MemProbe,
		Pool:           cfg.Pool,
		Span:           execSpan,
	}
	// The subtree executor takes the plan's order, so each job is sorted
	// once.
	runReordered := func() (*sim.Result, error) {
		if cfg.Workers > 1 {
			return sim.ParallelSubtreeOrdered(rep.Circuit, ordered, cfg.Workers, opt)
		}
		return sim.ExecutePlan(rep.Circuit, rep.Plan, opt)
	}
	execDone := obs.StartPhase(cfg.Recorder, obs.PhaseExecute)
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
		execSpan.End()
		execDone()
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	if execSpan != nil {
		if err != nil {
			execSpan.SetError(err)
		} else if rep.Reordered != nil {
			execSpan.SetAttr(
				trace.Int("ops", rep.Reordered.Ops),
				trace.Int("copies", rep.Reordered.Copies),
				trace.Int("msv", int64(rep.Reordered.MSV)))
		}
	}
	execSpan.End()
	execDone()
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// MeasuredSaving returns 1 - executedReorderedOps/executedBaselineOps when
// both simulators ran, falling back to the static analysis otherwise.
func (r *Report) MeasuredSaving() float64 {
	if r.Baseline != nil && r.Reordered != nil && r.Baseline.Ops > 0 {
		return 1 - float64(r.Reordered.Ops)/float64(r.Baseline.Ops)
	}
	return r.Analysis.Saving
}
