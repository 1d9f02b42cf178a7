// Command qsim is a noisy Monte Carlo quantum circuit simulator with the
// paper's trial-reordering optimization.
//
// It simulates an OpenQASM 2.0 file (or a built-in benchmark) under a
// device error model, reports the measured output distribution, and prints
// the computation-saving statistics of the reordered execution against the
// baseline.
//
// Usage:
//
//	qsim -qasm circuit.qasm [flags]
//	qsim -bench bv5 [flags]
//
// Flags:
//
//	-qasm file      OpenQASM 2.0 input file
//	-bench name     built-in benchmark (rb, grover, wstate, 7x1mod15,
//	                bv4, bv5, qft4, qft5, qv_n5d2..qv_n5d5)
//	-device name    yorktown (default) or artificial
//	-p1 rate        1q error rate for -device artificial (default 1e-3)
//	-qubits n       width for -device artificial (default: circuit width)
//	-trials n       Monte Carlo trials (default 1024)
//	-seed n         RNG seed (default 1)
//	-mode m         reordered (default), baseline, both, static
//	-transpile      map the circuit onto the device coupling graph
//	-top k          show the k most likely outcomes (default 8)
//	-budget n       cap on stored state vectors (0 = unlimited)
//	-restore p      branch-point restore policy: snapshot (default; the
//	                paper's stack, budget enforced by plan replay),
//	                uncompute (reverse execution, zero stored snapshots),
//	                or adaptive (snapshot up to -budget, reverse beyond)
//	-mem-limit n    heap bytes above which the adaptive policy stops
//	                snapshotting (0 = off; needs -sample-interval)
//	-workers n      parallel execution workers for reordered mode
//	-par m          parallel decomposition: subtree (the default and only
//	                one; preserves all prefix sharing)
//	-fuse m         kernel compilation for reordered execution: off
//	                (default; per-gate dispatch), exact (fused kernels,
//	                bit-identical to dispatch), or numeric (additionally
//	                folds gate matrices algebraically; fastest, ~1 ulp)
//	-stripes n      sweep each kernel across n goroutine-partitioned
//	                amplitude stripes on large states (0/1 = serial)
//	-metrics file   write run metrics (phase timings, executor counters,
//	                plan statics) as JSON to file (see EXPERIMENTS.md)
//	-verify-metrics file
//	                validate a -metrics JSON file: counters must agree
//	                with the recorded plan statics and result; exits
//	                nonzero on any violation
//	-trace-summary  print a digest of the run's span trace: per span name
//	                count and total ms, per event name (snapshot_push,
//	                spawn, ...) count and peak depth, and cap drops
//	-trace-out file write the run's causal span trace (phases, executors,
//	                segment compiles, snapshot events) as Chrome
//	                trace-event JSON; load it in Perfetto or
//	                chrome://tracing
//	-verify-trace file
//	                validate a -trace-out file (well-formed JSON, one
//	                root, exact span nesting) and exit; nonzero on any
//	                violation
//	-pprof addr     serve net/http/pprof, expvar, and Prometheus text
//	                exposition on addr (e.g. localhost:6060); live
//	                metrics appear at /debug/vars and /metrics
//	-sample-interval d
//	                sample runtime.MemStats every d (e.g. 100ms) and
//	                expose the latest sample as Prometheus gauges
//	-prom-smoke     after the run, serve the recorded metrics on an
//	                ephemeral port, scrape /metrics in-process, and
//	                validate the exposition format; exits nonzero on a
//	                malformed exposition
//	-batch n        simulate a PEC-style batch of n circuit variants
//	                (sampled Pauli insertions over the base circuit) through
//	                one shared cross-circuit trie instead of a single
//	                circuit; reports the ops saved versus independent
//	                per-variant plans. Honors -budget, -workers, -fuse,
//	                -stripes and -seed.
//	-batch-trials n Monte Carlo trials per variant in -batch mode (default 8)
//	-batch-ins f    mean Pauli insertions per variant in -batch mode
//	                (default 0.8)
//	-log-level l    debug, info, warn, or error (default info)
//	-log-json       emit structured logs as JSON lines
//	-selftest       run the seeded differential self-test (internal/difftest)
//	                instead of a simulation: randomized workloads through
//	                every executor, cross-checked bit-for-bit against naive
//	                execution. -seed picks the base seed, -selftest-runs the
//	                workload count. Exits nonzero on any mismatch.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/difftest"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/stats"
	qtrace "repro/internal/trace"
	"repro/internal/trial"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "qsim: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	qasmPath := flag.String("qasm", "", "OpenQASM 2.0 input file")
	benchName := flag.String("bench", "", "built-in benchmark name")
	deviceName := flag.String("device", "yorktown", "device model: yorktown or artificial")
	p1 := flag.Float64("p1", 1e-3, "single-qubit error rate for -device artificial")
	qubits := flag.Int("qubits", 0, "width for -device artificial (default: circuit width)")
	trials := flag.Int("trials", 1024, "number of Monte Carlo trials")
	seed := flag.Int64("seed", 1, "RNG seed")
	modeName := flag.String("mode", "reordered", "reordered, baseline, both, or static")
	doTranspile := flag.Bool("transpile", false, "map the circuit onto the device coupling graph")
	top := flag.Int("top", 8, "show the k most likely outcomes")
	errMode := flag.String("errmode", "per-gate", "error injection model: per-gate (paper) or per-qubit")
	budget := flag.Int("budget", 0, "cap on stored state vectors (0 = unlimited)")
	restoreName := flag.String("restore", "snapshot", "branch-point restore policy: snapshot, uncompute, or adaptive")
	memLimit := flag.Uint64("mem-limit", 0, "heap bytes above which the adaptive policy stops snapshotting (0 = off; needs -sample-interval)")
	workers := flag.Int("workers", 1, "parallel execution workers for reordered mode")
	parMode := flag.String("par", "subtree", "parallel decomposition with -workers > 1: subtree (shares all prefixes)")
	fuseName := flag.String("fuse", "off", "kernel compilation for reordered execution: off, exact, or numeric")
	stripes := flag.Int("stripes", 0, "amplitude stripes per kernel sweep on large states (0/1 = serial)")
	batchVars := flag.Int("batch", 0, "simulate a batch of n circuit variants through one shared trie (0 = off)")
	batchTrials := flag.Int("batch-trials", 8, "Monte Carlo trials per variant in -batch mode")
	batchIns := flag.Float64("batch-ins", 0.8, "mean Pauli insertions per variant in -batch mode")
	draw := flag.Bool("draw", false, "print the circuit as ASCII art before simulating")
	selftest := flag.Bool("selftest", false, "run the seeded differential self-test and exit")
	selftestRuns := flag.Int("selftest-runs", 25, "number of random workloads for -selftest")
	metricsPath := flag.String("metrics", "", "write run metrics JSON to this file")
	verifyPath := flag.String("verify-metrics", "", "validate a -metrics JSON file and exit")
	traceSummary := flag.Bool("trace-summary", false, "print a digest of the run's span trace (span times, event counts, peak depth)")
	traceOut := flag.String("trace-out", "", "write the run's span trace as Chrome trace-event JSON (Perfetto-loadable) to this file")
	verifyTracePath := flag.String("verify-trace", "", "validate a -trace-out trace file (JSON, span nesting) and exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar, and /metrics on this address")
	sampleInterval := flag.Duration("sample-interval", 0, "runtime.MemStats sampling interval (0 = off)")
	promSmoke := flag.Bool("prom-smoke", false, "scrape and validate the Prometheus exposition in-process after the run")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON")
	flag.Parse()

	logger, err := obs.SetupLogger(*logLevel, *logJSON, os.Stderr)
	if err != nil {
		return err
	}

	if *verifyPath != "" {
		return verifyMetrics(*verifyPath)
	}
	if *verifyTracePath != "" {
		if err := qtrace.ValidateChromeFile(*verifyTracePath); err != nil {
			return err
		}
		fmt.Printf("trace ok: %s\n", *verifyTracePath)
		return nil
	}
	if *selftest {
		return difftest.SelfTest(os.Stdout, *seed, *selftestRuns)
	}

	circ, err := loadCircuit(*qasmPath, *benchName, *seed)
	if err != nil {
		return err
	}

	var dev *device.Device
	switch *deviceName {
	case "yorktown":
		dev = device.Yorktown()
	case "artificial":
		n := *qubits
		if n == 0 {
			n = circ.NumQubits()
		}
		dev = device.Artificial(n, *p1)
	default:
		return fmt.Errorf("unknown device %q (yorktown, artificial)", *deviceName)
	}

	var mode core.Mode
	switch *modeName {
	case "reordered":
		mode = core.ModeReordered
	case "baseline":
		mode = core.ModeBaseline
	case "both":
		mode = core.ModeBoth
	case "static":
		mode = core.ModeStatic
	default:
		return fmt.Errorf("unknown mode %q (reordered, baseline, both, static)", *modeName)
	}

	if *parMode != "subtree" {
		return fmt.Errorf("unknown parallel mode %q (subtree)", *parMode)
	}

	fuse, err := statevec.ParseFuseMode(*fuseName)
	if err != nil {
		return err
	}

	policy, err := sim.ParseRestorePolicy(*restoreName)
	if err != nil {
		return err
	}

	var em trial.ErrorMode
	switch *errMode {
	case "per-gate":
		em = trial.PerGate
	case "per-qubit":
		em = trial.PerQubit
	default:
		return fmt.Errorf("unknown error mode %q (per-gate, per-qubit)", *errMode)
	}

	var metrics *obs.Metrics
	var rec obs.Recorder // nil unless metrics are collected
	if *metricsPath != "" || *pprofAddr != "" || *promSmoke {
		metrics = obs.NewMetrics()
		rec = metrics
	}
	var exporter *obs.Exporter
	if *pprofAddr != "" || *promSmoke {
		exporter = obs.NewExporter()
		exporter.Register("qsim", metrics)
	}
	var memProbe func() bool
	if *sampleInterval > 0 {
		sampler := obs.StartSampler(*sampleInterval, obs.DefaultSamplerCapacity)
		defer sampler.Stop()
		if exporter != nil {
			exporter.AttachSampler(sampler)
		}
		if *memLimit > 0 {
			// Live memory pressure steers the adaptive policy: above the
			// heap limit, branch points fall back to reverse execution.
			memProbe = sim.SamplerMemProbe(sampler, *memLimit)
		}
		logger.Debug("runtime sampler started", "interval", *sampleInterval)
	} else if *memLimit > 0 {
		return fmt.Errorf("-mem-limit requires -sample-interval to run the MemStats sampler")
	}
	if *pprofAddr != "" {
		bound, closeSrv, err := obs.StartPprof(*pprofAddr, exporter)
		if err != nil {
			return fmt.Errorf("-pprof: %v", err)
		}
		defer closeSrv()
		obs.PublishExpvar("qsim", metrics)
		logger.Info("pprof listening", "addr", bound, "expvar", "/debug/vars", "prometheus", "/metrics")
	}

	if *batchVars > 0 {
		if *doTranspile {
			return fmt.Errorf("-batch does not support -transpile")
		}
		return runBatch(circ, dev, em, *batchVars, *batchTrials, *batchIns,
			*seed, *budget, *workers, fuse, *stripes, policy, memProbe,
			rec, *top)
	}

	// -trace-out and -trace-summary: a span tracer with sampling forced
	// to keep-all — a one-shot CLI run always keeps its single trace.
	var rootSpan *qtrace.Span
	if *traceOut != "" || *traceSummary {
		tracer := qtrace.New(qtrace.Config{SampleRate: 1})
		rootSpan = tracer.Start("qsim", qtrace.SpanContext{},
			qtrace.String("circuit", circ.Name()))
	}

	start := time.Now()
	rep, err := core.Run(core.Config{
		Circuit:        circ,
		Device:         dev,
		Transpile:      *doTranspile,
		Trials:         *trials,
		Seed:           *seed,
		Mode:           mode,
		ErrorMode:      em,
		SnapshotBudget: *budget,
		Workers:        *workers,
		Fuse:           fuse,
		Stripes:        *stripes,
		Policy:         policy,
		MemProbe:       memProbe,
		Recorder:       rec,
		Span:           rootSpan,
	})
	if rootSpan != nil {
		// Failed runs export too: an errored trace is exactly what the
		// flag is for.
		if err != nil {
			rootSpan.SetError(err)
		}
		rootSpan.End()
	}
	if *traceOut != "" {
		if werr := rootSpan.Trace().WriteChromeFile(*traceOut); werr != nil {
			return fmt.Errorf("-trace-out: %v", werr)
		}
		logger.Info("span trace written", "path", *traceOut,
			"trace_id", rootSpan.TraceIDString(), "spans", len(rootSpan.Trace().Spans()))
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("circuit %q: %d qubits, %d gates, %d layers\n",
		rep.Circuit.Name(), rep.Circuit.NumQubits(), rep.Circuit.NumOps(), rep.Circuit.NumLayers())
	if *draw {
		fmt.Print(circuit.Draw(rep.Circuit))
	}
	if rep.Transpile != nil {
		fmt.Printf("transpiled onto %s: %d routing swaps inserted\n", dev.Name(), rep.Transpile.SwapsInserted)
	}
	st := rep.TrialStats
	fmt.Printf("trials: %d (%.2f mean errors, %d error-free, %.1f%% duplicates)\n",
		st.Trials, st.MeanErrors, st.ErrorFree, st.DuplicateRate*100)
	a := rep.Analysis
	fmt.Printf("static analysis: baseline %d ops, reordered %d ops, normalized %.3f (saving %.1f%%), MSV %d\n",
		a.BaselineOps, a.OptimizedOps, a.Normalized, a.Saving*100, a.MSV)

	if res := pick(rep); res != nil {
		fmt.Printf("executed (%s) in %v: %d ops, %d state copies, peak %d stored vectors\n",
			mode, elapsed.Round(time.Millisecond), res.Ops, res.Copies, res.MSV)
		printTop(res, rep.Circuit, *top)
	}
	if rep.Baseline != nil && rep.Reordered != nil {
		if sim.EqualOutcomes(rep.Baseline, rep.Reordered) {
			fmt.Println("equivalence check: baseline and reordered outcomes identical")
		} else {
			return fmt.Errorf("equivalence check FAILED: outcomes differ")
		}
	}

	if metrics != nil && *metricsPath != "" {
		rm := buildRunMetrics(rep, metrics, *trials, *seed, runModeLabel(mode, *budget, policy))
		if err := obs.WriteRunMetrics(*metricsPath, rm); err != nil {
			return fmt.Errorf("-metrics: %v", err)
		}
		logger.Info("metrics written", "path", *metricsPath)
	}
	if *traceSummary {
		fmt.Print(rootSpan.Trace().Digest())
	}
	if *promSmoke {
		if err := promSmokeTest(logger, exporter); err != nil {
			return fmt.Errorf("-prom-smoke: %v", err)
		}
	}
	return nil
}

// runBatch simulates a PEC-style batch: n variants of the base circuit
// (sampled Pauli insertions), each with its own Monte Carlo trial set,
// executed through one shared cross-circuit trie. It prints the static
// savings of the shared plan against independent per-variant plans and
// the naive baseline, then the executed totals and the aggregate outcome
// distribution.
func runBatch(circ *circuit.Circuit, dev *device.Device, em trial.ErrorMode,
	vars, trialsPer int, meanIns float64, seed int64, budget, workers int,
	fuse statevec.FuseMode, stripes int, policy sim.RestorePolicy,
	memProbe func() bool, rec obs.Recorder, top int) error {
	g, err := trial.NewGeneratorMode(circ, dev.Model(), em)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	variants := circuit.SampleVariants(circ, rng, vars, meanIns)
	sets := make([][]*trial.Trial, len(variants))
	for vi := range variants {
		sets[vi] = g.Generate(rng, trialsPer)
	}
	planBudget := math.MaxInt
	if budget > 0 && policy == sim.PolicySnapshot {
		// Non-snapshot policies enforce the budget at run time; the batch
		// plan stays unbudgeted (no restore/replay steps).
		planBudget = budget
	}
	bp, err := reorder.BuildBatchPlanBudget(circ, variants, sets, planBudget)
	if err != nil {
		return err
	}
	a := bp.Analysis()
	fmt.Printf("circuit %q: %d qubits, %d gates, %d layers\n",
		circ.Name(), circ.NumQubits(), circ.NumOps(), circ.NumLayers())
	fmt.Printf("batch: %d variants (%.2g mean insertions) x %d trials = %d merged trials\n",
		a.Variants, meanIns, trialsPer, a.Trials)
	fmt.Printf("static analysis: baseline %d ops, per-variant plans %d ops, batch plan %d ops\n",
		a.BaselineOps, a.SumPartsOps, a.BatchOps)
	fmt.Printf("cross-circuit sharing: saved %d ops vs per-variant plans (%.2fx), MSV %d (worst part %d)\n",
		a.SavedOps, a.SpeedupVsParts, a.BatchMSV, a.MaxPartMSV)
	opt := sim.Options{SnapshotBudget: budget, Fuse: fuse, Stripes: stripes,
		Policy: policy, MemProbe: memProbe, Recorder: rec}
	start := time.Now()
	br, err := sim.ExecuteBatchSubtree(circ, bp, workers, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("executed (batch, %d workers) in %v: %d ops, %d state copies, peak %d stored vectors\n",
		workers, elapsed.Round(time.Millisecond), br.Combined.Ops, br.Combined.Copies, br.Combined.MSV)
	printTop(br.Combined, circ, top)
	return nil
}

// promSmokeTest serves the recorded metrics on an ephemeral port, scrapes
// /metrics over real HTTP, and validates the exposition format — the
// in-process equivalent of pointing a Prometheus scraper at -pprof.
func promSmokeTest(logger *slog.Logger, exporter *obs.Exporter) error {
	addr, closeSrv, err := obs.StartPprof("127.0.0.1:0", exporter)
	if err != nil {
		return err
	}
	defer closeSrv()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := obs.ValidateExposition(strings.NewReader(string(body))); err != nil {
		return err
	}
	series := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	logger.Info("prometheus exposition validated", "series", series, "bytes", len(body))
	fmt.Printf("prom-smoke OK: %d series, %d bytes, exposition valid\n", series, len(body))
	return nil
}

// runModeLabel names the executed configuration in the metrics envelope.
// Suffixes mark configurations whose executed op count legitimately
// departs from the static plan count (budget replay, restore-policy
// replays); -verify-metrics only enforces plan equality on unsuffixed
// modes.
func runModeLabel(mode core.Mode, budget int, policy sim.RestorePolicy) string {
	label := mode.String()
	if budget > 0 {
		label += "+budget"
	}
	if policy != sim.PolicySnapshot {
		label += "+" + policy.String()
	}
	return label
}

// buildRunMetrics assembles the JSON envelope from the report and the
// recorder.
func buildRunMetrics(rep *core.Report, metrics *obs.Metrics, trials int, seed int64, mode string) *obs.RunMetrics {
	a := rep.Analysis
	rm := &obs.RunMetrics{
		Binary:  "qsim",
		Circuit: rep.Circuit.Name(),
		Qubits:  rep.Circuit.NumQubits(),
		Trials:  trials,
		Seed:    seed,
		Mode:    mode,
		Plan: &obs.PlanStatics{
			BaselineOps:  a.BaselineOps,
			OptimizedOps: a.OptimizedOps,
			Normalized:   a.Normalized,
			MSV:          a.MSV,
			Copies:       a.Copies,
		},
		Metrics: metrics.Snapshot(),
	}
	if res := pick(rep); res != nil {
		rm.Result = &obs.ExecStatics{Ops: res.Ops, Copies: res.Copies, MSV: res.MSV}
	}
	return rm
}

// verifyMetrics enforces the observability invariants on a -metrics file:
// the recorder's counters must agree exactly with the recorded Result,
// and — for sharing-preserving modes — with the static plan analysis.
func verifyMetrics(path string) error {
	rm, err := obs.ReadRunMetrics(path)
	if err != nil {
		return err
	}
	if rm.Plan == nil {
		return fmt.Errorf("%s: no plan statics recorded", path)
	}
	ops := rm.Metrics.Counters[obs.Ops.String()]
	emitted := rm.Metrics.Counters[obs.TrialsEmitted.String()]
	msvGauge := rm.Metrics.Gauges[obs.MSVHighWater.String()]
	base, _, suffixed := strings.Cut(rm.Mode, "+")
	sharing := !suffixed

	var violations []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}
	if rm.Result != nil {
		switch base {
		case "reordered":
			check(ops == rm.Result.Ops, "counter ops %d != result ops %d", ops, rm.Result.Ops)
			check(emitted == int64(rm.Trials), "trials emitted %d != trials %d", emitted, rm.Trials)
			check(msvGauge == int64(rm.Result.MSV), "MSV gauge %d != result MSV %d", msvGauge, rm.Result.MSV)
			if sharing {
				check(rm.Result.Ops == rm.Plan.OptimizedOps,
					"executed ops %d != plan optimized ops %d", rm.Result.Ops, rm.Plan.OptimizedOps)
				check(rm.Metrics.Counters[obs.Copies.String()] == rm.Result.Copies,
					"counter copies %d != result copies %d", rm.Metrics.Counters[obs.Copies.String()], rm.Result.Copies)
			}
		case "both":
			// Result holds the reordered executed run; the counters
			// aggregate baseline + reordered.
			check(emitted == 2*int64(rm.Trials), "trials emitted %d != 2x trials %d", emitted, rm.Trials)
			check(msvGauge == int64(rm.Result.MSV), "MSV gauge %d != result MSV %d", msvGauge, rm.Result.MSV)
			if sharing {
				check(rm.Result.Ops == rm.Plan.OptimizedOps,
					"executed ops %d != plan optimized ops %d", rm.Result.Ops, rm.Plan.OptimizedOps)
				check(ops == rm.Plan.BaselineOps+rm.Plan.OptimizedOps,
					"counter ops %d != baseline %d + optimized %d", ops, rm.Plan.BaselineOps, rm.Plan.OptimizedOps)
			}
		case "baseline":
			check(ops == rm.Result.Ops, "counter ops %d != result ops %d", ops, rm.Result.Ops)
			check(rm.Result.Ops == rm.Plan.BaselineOps,
				"baseline executed ops %d != plan baseline ops %d", rm.Result.Ops, rm.Plan.BaselineOps)
			check(emitted == int64(rm.Trials), "trials emitted %d != trials %d", emitted, rm.Trials)
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("%s: %d metric violation(s):\n  %s", path, len(violations), strings.Join(violations, "\n  "))
	}
	fmt.Printf("metrics OK: %s (%s, %d trials): counter ops %d agree with plan/result\n",
		path, rm.Mode, rm.Trials, ops)
	return nil
}

func loadCircuit(qasmPath, benchName string, seed int64) (*circuit.Circuit, error) {
	switch {
	case qasmPath != "" && benchName != "":
		return nil, fmt.Errorf("use -qasm or -bench, not both")
	case qasmPath != "":
		data, err := os.ReadFile(qasmPath)
		if err != nil {
			return nil, err
		}
		c, err := circuit.ParseQASM(string(data))
		if err != nil {
			return nil, err
		}
		c.SetName(qasmPath)
		return c, nil
	case benchName != "":
		return bench.Build(benchName, seed)
	default:
		return nil, fmt.Errorf("one of -qasm or -bench is required")
	}
}

func pick(rep *core.Report) *sim.Result {
	if rep.Reordered != nil {
		return rep.Reordered
	}
	return rep.Baseline
}

func printTop(res *sim.Result, c *circuit.Circuit, k int) {
	type kv struct {
		bits  uint64
		count int
	}
	var outcomes []kv
	total := 0
	for b, n := range res.Counts {
		outcomes = append(outcomes, kv{b, n})
		total += n
	}
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].count != outcomes[j].count {
			return outcomes[i].count > outcomes[j].count
		}
		return outcomes[i].bits < outcomes[j].bits
	})
	if k > len(outcomes) {
		k = len(outcomes)
	}
	fmt.Printf("top %d outcomes (of %d distinct):\n", k, len(outcomes))
	width := len(c.Measurements())
	if width == 0 {
		width = c.NumQubits()
	}
	for _, o := range outcomes[:k] {
		ci, err := stats.EstimateProportion(o.count, total)
		if err != nil {
			fmt.Printf("  %0*b  %6.3f  (%d)\n", width, o.bits, float64(o.count)/float64(total), o.count)
			continue
		}
		fmt.Printf("  %0*b  %6.3f  95%% CI [%.3f, %.3f]  (%d)\n",
			width, o.bits, ci.Estimate, ci.Lo, ci.Hi, o.count)
	}
}
