// Command kernbench times the compiled-kernel layer against per-gate
// dispatch and writes the results as JSON (for dashboards and regression
// tracking; `make bench-json` wires it into the build).
//
// Two benchmark families are measured with an adaptive timing loop (each
// case is repeated until it has run for at least -mintime):
//
//   - kernels/<workload>/<variant>: raw sweeps over a single state —
//     per-gate dispatch vs the FuseNumeric compiled program, on
//     gate-pattern workloads (same-qubit chains, diagonal runs, a
//     QV-style mix, Paulis between CX gates).
//   - exec/<variant>: the end-to-end reordered plan executor on a QV
//     workload, where compilation cost is part of the measured path.
//   - host/flops/<loop>: the host's double-precision flop roof in GFLOP/s,
//     from register-resident assembly loops (amd64 only): "mul-add" with
//     a separate VMULPD and VADDPD, the ceiling of the Float64bits-exact
//     kernels, "fma" with VFMADD231PD on YMM, the ceiling of the
//     FuseNumeric FMA sweeps, and "fma-zmm" with VFMADD231PD on ZMM, the
//     ceiling of their AVX-512 form.
//
// Usage:
//
//	kernbench [-out BENCH_kernels.json] [-qubits 12] [-trials 256] [-mintime 200ms]
//	kernbench -metrics kern_metrics.json -pprof 127.0.0.1:6060 -sample-interval 100ms
//
// The report is stamped with the capture environment (Go version, OS,
// architecture, CPU count, git commit) so checked-in results remain
// attributable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trial"
)

const benchSeed = 20200720

type result struct {
	Benchmark         string  `json:"benchmark"`
	Variant           string  `json:"variant"`
	NsPerOp           float64 `json:"ns_per_op"`
	Iters             int     `json:"iters"`
	SpeedupVsDispatch float64 `json:"speedup_vs_dispatch,omitempty"`
	GFlops            float64 `json:"gflops,omitempty"`
}

type report struct {
	Qubits  int         `json:"qubits"`
	Trials  int         `json:"trials"`
	Seed    int64       `json:"seed"`
	GoMaxP  int         `json:"gomaxprocs"`
	Kernels string      `json:"kernels"`
	Env     obs.EnvMeta `json:"env"`
	Results []result    `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "kernbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "BENCH_kernels.json", "output JSON path")
	qubits := flag.Int("qubits", 12, "workload width")
	trials := flag.Int("trials", 256, "Monte Carlo trials for the exec benchmark")
	minTime := flag.Duration("mintime", 200*time.Millisecond, "minimum measured time per case")
	metricsPath := flag.String("metrics", "", "write per-case kernel/executor counters JSON to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar, and /metrics on this address")
	sampleInterval := flag.Duration("sample-interval", 0, "runtime.MemStats sampling interval (0 = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON")
	flag.Parse()

	logger, err := obs.SetupLogger(*logLevel, *logJSON, os.Stderr)
	if err != nil {
		return err
	}

	var mets *benchMetrics
	if *metricsPath != "" || *pprofAddr != "" {
		mets = &benchMetrics{suite: obs.NewSuite(), agg: obs.NewMetrics()}
	}
	if *pprofAddr != "" {
		exporter := obs.NewExporter()
		exporter.Register("kernbench", mets.agg)
		if *sampleInterval > 0 {
			sampler := obs.StartSampler(*sampleInterval, obs.DefaultSamplerCapacity)
			defer sampler.Stop()
			exporter.AttachSampler(sampler)
		}
		url, closeSrv, err := obs.StartPprof(*pprofAddr, exporter)
		if err != nil {
			return err
		}
		defer closeSrv()
		obs.PublishExpvar("kernbench", mets.agg)
		logger.Info("pprof listening", "addr", url, "expvar", "/debug/vars", "prometheus", "/metrics")
	}

	rep := &report{Qubits: *qubits, Trials: *trials, Seed: benchSeed,
		GoMaxP: runtime.GOMAXPROCS(0), Kernels: statevec.KernelISA(), Env: obs.CaptureEnv()}

	rep.Results = append(rep.Results, roofCases(*minTime)...)
	for _, w := range kernelWorkloads(*qubits) {
		rep.Results = append(rep.Results, kernelCases(w.name, w.c, *qubits, *minTime, mets)...)
	}
	execResults, err := execCases(*qubits, *trials, *minTime, mets)
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, execResults...)

	if *metricsPath != "" {
		rm := &obs.RunMetrics{
			Binary:    "kernbench",
			Qubits:    *qubits,
			Trials:    *trials,
			Seed:      benchSeed,
			Metrics:   mets.agg.Snapshot(),
			Scenarios: mets.suite.Scenarios(),
		}
		if err := obs.WriteRunMetrics(*metricsPath, rm); err != nil {
			return err
		}
		logger.Info("case metrics written", "cases", mets.suite.Len(), "path", *metricsPath)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cases)\n", *out, len(rep.Results))
	return nil
}

// benchMetrics carries the optional observability sinks through the
// benchmark drivers: one suite entry per (benchmark, variant) case plus a
// run-wide aggregate published over expvar. Counters accumulate across
// every timing iteration, so per-case sweep counts scale with Iters.
type benchMetrics struct {
	suite *obs.Suite
	agg   *obs.Metrics
}

// recorder opens the suite entry for a case and returns a recorder that
// feeds both it and the aggregate. Returns nil entry/recorder when
// metrics collection is off, which disables the recording hot path.
func (m *benchMetrics) recorder(benchmark, variant string) (*obs.SuiteEntry, obs.Recorder) {
	if m == nil {
		return nil, nil
	}
	e := m.suite.Scenario(benchmark, variant)
	return e, obs.Multi(m.agg, e.Metrics)
}

type workload struct {
	name string
	c    *circuit.Circuit
}

// kernelWorkloads mirrors the root BenchmarkKernels patterns: a same-qubit
// 1q chain, a diagonal-heavy circuit and a QV-style mix, plus a Pauli
// pattern: the X, Y, Z and CX sweeps that injected errors and CX gates
// run, CX between the Paulis so that no fusion mode chains them, and an
// H/RZ/U1 pattern, the H and diagonal sweeps (d0 != 1 and d0 == 1) of
// the transpiled Table I circuits, spaced by CX the same way.
func kernelWorkloads(n int) []workload {
	chain := circuit.New("chain", n)
	for r := 0; r < 8; r++ {
		for q := 0; q < n; q++ {
			chain.Append(gate.H(), q)
			chain.Append(gate.T(), q)
			chain.Append(gate.X(), q)
			chain.Append(gate.RZ(0.3), q)
		}
	}
	diag := circuit.New("diag", n)
	for r := 0; r < 8; r++ {
		for q := 0; q < n; q++ {
			diag.Append(gate.S(), q)
			diag.Append(gate.T(), q)
		}
		for q := 0; q+1 < n; q += 2 {
			diag.Append(gate.CZ(), q, q+1)
		}
	}
	qv := bench.QV(n, 4, rand.New(rand.NewSource(benchSeed)))
	pauli := circuit.New("pauli", n)
	for r := 0; r < 8; r++ {
		for q := 0; q < n; q++ {
			next := (q + 1) % n
			pauli.Append(gate.X(), q)
			pauli.Append(gate.CX(), q, next)
			pauli.Append(gate.Y(), q)
			pauli.Append(gate.CX(), next, q)
			pauli.Append(gate.Z(), q)
		}
	}
	hdiag := circuit.New("hdiag", n)
	for r := 0; r < 8; r++ {
		for q := 0; q < n; q++ {
			next := (q + 1) % n
			hdiag.Append(gate.H(), q)
			hdiag.Append(gate.CX(), q, next)
			hdiag.Append(gate.RZ(0.3), q)
			hdiag.Append(gate.CX(), next, q)
			hdiag.Append(gate.U1(0.7), q)
		}
	}
	return []workload{{"chain", chain}, {"diag", diag}, {"qv", qv}, {"pauli", pauli}, {"hdiag", hdiag}}
}

// flopRoof is one register-resident flop loop: iters trips of flops each.
type flopRoof struct {
	name  string
	flops int
	run   func(iters int, x float64)
}

const roofIters = 1 << 16

// roofCases measures the host's flop roofs where this build has the
// loops and the CPU the instructions the kernels use.
func roofCases(minTime time.Duration) []result {
	var results []result
	for _, r := range flopRoofs(statevec.Kernels()) {
		ns, iters := timeIt(minTime, func() { r.run(roofIters, 0.5) })
		results = append(results, result{Benchmark: "host/flops", Variant: r.name, NsPerOp: ns, Iters: iters,
			GFlops: float64(r.flops) * roofIters / ns})
	}
	return results
}

// timeIt runs fn repeatedly until minTime has elapsed and returns ns/op.
func timeIt(minTime time.Duration, fn func()) (float64, int) {
	fn() // warm up (and populate lazy segment caches)
	iters := 0
	start := time.Now()
	for time.Since(start) < minTime {
		fn()
		iters++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), iters
}

func kernelCases(name string, c *circuit.Circuit, n int, minTime time.Duration, mets *benchMetrics) []result {
	bench := "kernels/" + name
	s := statevec.NewState(n)
	layers := c.Layers()
	dispatchNs, dispatchIters := timeIt(minTime, func() {
		for _, l := range layers {
			for _, oi := range l {
				op := c.Op(oi)
				s.ApplyOp(op.Gate, op.Qubits...)
			}
		}
	})
	results := []result{{Benchmark: bench, Variant: "dispatch", NsPerOp: dispatchNs, Iters: dispatchIters, SpeedupVsDispatch: 1}}

	opt := statevec.CompileOptions{Fuse: statevec.FuseNumeric}
	_, opt.Recorder = mets.recorder(bench, "fused-numeric")
	prog := statevec.CompileWith(c, opt)
	st := statevec.NewState(n)
	ns, iters := timeIt(minTime, func() { prog.RunAll(st) })
	return append(results, result{
		Benchmark: bench, Variant: "fused-numeric", NsPerOp: ns, Iters: iters,
		SpeedupVsDispatch: dispatchNs / ns,
	})
}

func execCases(n, trials int, minTime time.Duration, mets *benchMetrics) ([]result, error) {
	c := bench.QV(n, 5, rand.New(rand.NewSource(benchSeed)))
	m := noise.Uniform("u", n, 1e-3, 1e-2, 1e-2)
	gen, err := trial.NewGenerator(c, m)
	if err != nil {
		return nil, err
	}
	ts := gen.Generate(rand.New(rand.NewSource(benchSeed)), trials)
	plan, err := reorder.BuildPlan(c, ts)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		opt  sim.Options
	}{
		{"dispatch", sim.Options{}},
		{"fused-numeric", sim.Options{Fuse: statevec.FuseNumeric}},
	}
	var results []result
	var dispatchNs float64
	for _, v := range variants {
		opt := v.opt
		entry, rec := mets.recorder("exec/qv", v.name)
		if entry != nil {
			a := plan.Analysis()
			entry.Plan = &obs.PlanStatics{
				BaselineOps:  a.BaselineOps,
				OptimizedOps: a.OptimizedOps,
				Normalized:   a.Normalized,
				MSV:          a.MSV,
				Copies:       a.Copies,
			}
			opt.Recorder = rec
		}
		var runErr error
		ns, iters := timeIt(minTime, func() {
			res, err := sim.ExecutePlan(c, plan, opt)
			if err != nil {
				runErr = err
				return
			}
			if res.Ops != plan.OptimizedOps() {
				runErr = fmt.Errorf("%s: executed %d ops, plan says %d", v.name, res.Ops, plan.OptimizedOps())
			}
		})
		if runErr != nil {
			return nil, runErr
		}
		r := result{Benchmark: "exec/qv", Variant: v.name, NsPerOp: ns, Iters: iters}
		if v.name == "dispatch" {
			dispatchNs = ns
			r.SpeedupVsDispatch = 1
		} else {
			r.SpeedupVsDispatch = dispatchNs / ns
		}
		results = append(results, r)
	}
	return results, nil
}
