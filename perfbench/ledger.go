package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transpile"
	"repro/internal/trial"
)

// Span names of the traced runs. The core layers are the calls core.Run
// makes; the service layers are the client's view of one qsimd request.
const (
	spanTranspile = "transpile.map"
	spanTrialGen  = "trial.gen"
	spanSort      = "reorder.sort"
	spanPlan      = "reorder.plan"
	spanExecute   = "sim.execute"
	spanAdmit     = "service.admit"
	spanWait      = "service.wait"
	spanRespond   = "service.respond"
)

var coreLayers = []string{spanTranspile, spanTrialGen, spanSort, spanPlan, spanExecute}

// perLayer lists every per-layer metric a traced run prints, in print
// order. A metric that does not apply to a workload prints 0.
var perLayer = []struct{ name, unit string }{
	{"service.admit_ms", "ms"},
	{"service.respond_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.run_ms", "ms"},
	{"transpile.map_ms", "ms"},
	{"trial.gen_ms", "ms"},
	{"trial.injections_per_trial", "count"},
	{"reorder.sort_ms", "ms"},
	{"reorder.plan_ms", "ms"},
	{"reorder.saving", "ratio"},
	{"reorder.base_ops", "count"},
	{"reorder.msv", "count"},
	{"sim.execute_ms", "ms"},
	{"sim.ops", "count"},
	{"sim.copies", "count"},
	{"sim.uncompute_ops", "count"},
	{"sim.msv", "count"},
	{"statevec.seg_misses", "count"},
	{"statevec.seg_hit_ratio", "ratio"},
	{"statevec.compile_ms", "ms"},
	{"statevec.gate_ops_per_s", "1/s"},
	{"statevec.kernel_gbps", "GB/s"},
	{"host.copy_gbps", "GB/s"},
	{"statevec.roofline_frac", "ratio"},
	{"statevec.pool_hit_ratio", "ratio"},
	{"statevec.pool_drops", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_ktrial", "MB"},
	{"core.unattributed_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// emitLayers prints the ledger and stores every per-layer metric in rep.
// vals may name only metrics from perLayer.
func emitLayers(rep *report, vals map[string]float64) error {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
		v := vals[m.name]
		rep.set(m.name, m.unit, v)
		fmt.Printf("# ledger %-28s %14.6g %s\n", m.name, v, m.unit)
	}
	for name := range vals {
		if !known[name] {
			return fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return nil
}

// replica is one job run through the same public calls core.Run makes, in
// the same order and with the job's config, each call under one span.
type replica struct {
	circ  *circuit.Circuit
	plan  *reorder.Plan
	stats trial.Stats
	res   *sim.Result
	trace *trace.Trace
}

// replicate runs cfg as core.Run would, for the configurations the
// benchmark uses: reordered mode, sequential or subtree-parallel.
func replicate(tracer *trace.Tracer, cfg core.Config) (*replica, error) {
	if cfg.Mode != core.ModeReordered || cfg.BatchLanes > 1 || cfg.ChunkedParallel {
		return nil, fmt.Errorf("replica supports reordered sequential and subtree-parallel jobs only")
	}
	root := tracer.Start("job", trace.SpanContext{}, trace.String("circuit", cfg.Circuit.Name()))
	defer root.End()
	r := &replica{circ: cfg.Circuit, trace: root.Trace()}
	model := cfg.Model
	if cfg.Device != nil {
		model = cfg.Device.Model()
		if cfg.Transpile {
			sp := root.Child(spanTranspile)
			tr, err := transpile.ToDevice(cfg.Circuit, cfg.Device)
			sp.End()
			if err != nil {
				return nil, err
			}
			r.circ = tr.Circuit
		}
	}
	if err := r.circ.Validate(); err != nil {
		return nil, err
	}

	sp := root.Child(spanTrialGen)
	gen, err := trial.NewGeneratorMode(r.circ, model, cfg.ErrorMode)
	if err != nil {
		sp.End()
		return nil, err
	}
	trials := gen.Generate(rand.New(rand.NewSource(cfg.Seed)), cfg.Trials)
	sp.End()
	r.stats = trial.Summarize(trials)

	sp = root.Child(spanSort)
	ordered := reorder.Sort(trials)
	sp.End()

	budget := math.MaxInt
	if cfg.SnapshotBudget > 0 && cfg.Policy == sim.PolicySnapshot {
		budget = cfg.SnapshotBudget
	}
	sp = root.Child(spanPlan)
	r.plan, err = reorder.BuildPlanOrderedBudget(r.circ, ordered, budget)
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = root.Child(spanExecute)
	opt := sim.Options{
		SnapshotBudget: cfg.SnapshotBudget,
		Fuse:           cfg.Fuse,
		Stripes:        cfg.Stripes,
		Policy:         cfg.Policy,
		MemProbe:       cfg.MemProbe,
		Pool:           cfg.Pool,
		Span:           sp,
	}
	if cfg.Workers > 1 {
		r.res, err = sim.ParallelSubtree(r.circ, trials, cfg.Workers, opt)
	} else {
		r.res, err = sim.ExecutePlan(r.circ, r.plan, opt)
	}
	sp.End()
	return r, err
}

// layers sums the replica's span durations by layer name, read back from
// the trace's Chrome export so the ledger and a Perfetto file agree.
func (r *replica) layers() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, ev := range r.trace.Chrome().TraceEvents {
		if ns, ok := ev.Args["dur_ns"].(int64); ok && ev.Cat == "span" {
			out[ev.Name] += time.Duration(ns)
		}
	}
	return out
}

// checkChrome validates the trace's Perfetto export and, when path is
// set, writes it there.
func checkChrome(tr *trace.Trace, path string) error {
	data, err := json.Marshal(tr.Chrome())
	if err != nil {
		return err
	}
	if err := trace.ValidateChrome(data); err != nil {
		return fmt.Errorf("perfetto export: %w", err)
	}
	if path == "" {
		return nil
	}
	return tr.WriteChromeFile(path)
}

// rooflineLayers measures stdlib copy bandwidth at the state-vector
// working-set size, prints the cache and DRAM sizing, and returns the
// kernel roofline metrics. Kernel bytes are computed from op counts, not
// measured: each op reads and writes the whole state once.
func rooflineLayers(vals map[string]float64, qubits int, gateOps, bytesComputed, execSeconds float64) {
	ws := (1 << qubits) * 16
	copyRate := copyGBps(ws)
	llc := llcBytes()
	dram := "omitted (LLC size unknown)"
	if llc > 0 {
		need := 4 * llc
		limit := memTotalBytes() / 8
		if 2*need <= limit {
			dram = fmt.Sprintf("%.3f GB/s at 2x%s", copyGBps(int(need)), mib(need))
		} else {
			dram = fmt.Sprintf("omitted (needs 2x%s arrays, over MemTotal/8 = %s)", mib(need), mib(limit))
		}
	}
	fmt.Printf("# roofline working_set=%dB copy=%.3fGB/s llc=%s dram_copy=%s kernel_bytes=%.4g (computed)\n",
		ws, copyRate, mib(llc), dram, bytesComputed)
	if execSeconds <= 0 {
		return
	}
	vals["statevec.gate_ops_per_s"] = gateOps / execSeconds
	vals["statevec.kernel_gbps"] = bytesComputed / execSeconds / 1e9
	vals["host.copy_gbps"] = copyRate
	vals["statevec.roofline_frac"] = vals["statevec.kernel_gbps"] / copyRate
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
