package main

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trace"
)

// Workload sizes of the batch workloads.
const (
	yorktownTrials = 1024 // per Table I circuit
	qvQubits       = 14   // 256 KiB state vector
	qvDepth        = 3
	qvTrials       = 64
	tableISeed     = 1 // QV circuits of the Table I set
	qvTrialSeed    = 1 // trials of the qv14 workloads
)

// batchWorkload is a set of core.Run jobs; one repetition runs them all,
// and every repetition repeats identical seeded work.
type batchWorkload struct {
	// coldStarts is how many cold starts a run times for setup_s.
	coldStarts int
	// build makes one repetition's jobs from the workload seed, drawing
	// state vectors from pool.
	build func(seed int64, pool *statevec.BufferPool) []core.Config
}

// paperYorktown runs the 12 Table I circuits, transpiled onto Yorktown with
// its per-gate errors, sequentially with the default fuse and policy.
// The circuits are the fixed Table I set; the workload seed drives the
// trials.
var paperYorktown = batchWorkload{coldStarts: 9, build: func(seed int64, pool *statevec.BufferPool) []core.Config {
	suite := bench.Suite(tableISeed)
	dev := device.Yorktown()
	jobs := make([]core.Config, len(bench.TableI))
	for i, ref := range bench.TableI {
		jobs[i] = core.Config{
			Circuit: suite[ref.Name], Device: dev, Transpile: true,
			Trials: yorktownTrials, Seed: seed*1000 + int64(i) + 1,
			Mode: core.ModeReordered, Pool: pool,
		}
	}
	return jobs
}}

// qv14Snapshot runs a 14-qubit Quantum Volume circuit with snapshots,
// numeric fusion and the subtree-parallel executor on every CPU.
var qv14Snapshot = batchWorkload{coldStarts: 7, build: qv14(sim.PolicySnapshot, max(2, runtime.GOMAXPROCS(0)))}

// qv14Uncompute runs the same job sequentially with the uncompute policy.
// BENCHMARK.json leaves it out: on a shared 2-vCPU host its repetition
// time moves 1.0-2.5x for seconds at a time as neighbours come and go,
// with no steal recorded, so ten seeds spread by up to 43%. Run it by
// hand when changing the restore policies.
var qv14Uncompute = batchWorkload{coldStarts: 7, build: qv14(sim.PolicyUncompute, 1)}

// qv14 draws the circuit from the workload seed. Every QV circuit of one
// width and depth has the same layer structure, so drawing the trials from
// a fixed seed gives every workload seed the same plan shape and op count.
func qv14(policy sim.RestorePolicy, workers int) func(int64, *statevec.BufferPool) []core.Config {
	return func(seed int64, pool *statevec.BufferPool) []core.Config {
		c := bench.QV(qvQubits, qvDepth, rand.New(rand.NewSource(seed)))
		m := noise.Uniform("qv14", qvQubits, 1e-3, 1e-2, 1e-2)
		return []core.Config{{
			Circuit: c, Model: m, Trials: qvTrials, Seed: qvTrialSeed,
			Mode: core.ModeReordered, Fuse: statevec.FuseNumeric,
			Workers: workers, Policy: policy, Pool: pool,
		}}
	}
}

// checkJob checks one core.Run report: every requested trial emitted, the
// executed forward ops equal to the plan's (under uncompute the plan is
// unbudgeted), and no stored vectors under uncompute.
func checkJob(cfg core.Config, rep *core.Report) error {
	name := cfg.Circuit.Name()
	res := rep.Reordered
	if res == nil {
		return fmt.Errorf("%s: no reordered result", name)
	}
	if n := countTrials(res.Counts); n != cfg.Trials || len(res.Outcomes) != cfg.Trials {
		return fmt.Errorf("%s: emitted %d trials (%d outcomes), requested %d", name, n, len(res.Outcomes), cfg.Trials)
	}
	if res.Ops != rep.Plan.OptimizedOps() {
		return fmt.Errorf("%s: executed %d ops, plan has %d", name, res.Ops, rep.Plan.OptimizedOps())
	}
	if cfg.Policy == sim.PolicyUncompute && res.MSV != 0 {
		return fmt.Errorf("%s: uncompute stored %d vectors", name, res.MSV)
	}
	return nil
}

func countTrials[K comparable](counts map[K]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// runSet runs one repetition through core.Run, checking every job and,
// when want is set, that its histogram equals want's. It returns the
// histograms.
func runSet(jobs []core.Config, ck *checker, want []map[uint64]int) []map[uint64]int {
	got := make([]map[uint64]int, len(jobs))
	for i, cfg := range jobs {
		rep, err := core.Run(cfg)
		if err == nil {
			err = checkJob(cfg, rep)
		}
		if err == nil {
			got[i] = rep.Reordered.Counts
			if want != nil && !maps.Equal(got[i], want[i]) {
				err = fmt.Errorf("%s: histogram differs from the first repetition", cfg.Circuit.Name())
			}
		}
		ck.job(err)
	}
	return got
}

func trialsOf(jobs []core.Config) int {
	n := 0
	for _, cfg := range jobs {
		n += cfg.Trials
	}
	return n
}

// run measures setup_s as the median of several cold starts — each after
// runtime.GC() with an empty segment cache and a fresh buffer arena — and
// then the steady state over the timed window. A batch job's latency is
// the wall time of one repetition. Each cold start and repetition
// excludes the CPU time stolen from this machine while it ran (see
// stealFactor).
func (w batchWorkload) run(o options, ck *checker, rep *report) error {
	var (
		setups, rawSetups []float64
		jobs              []core.Config
		want              []map[uint64]int
	)
	for k := 0; k < w.coldStarts; k++ {
		runtime.GC()
		statevec.ResetSegmentCache()
		a := readClock()
		jobs = w.build(o.seed, statevec.NewBufferPool())
		got := runSet(jobs, ck, want)
		b := readClock()
		rawSetups = append(rawSetups, b.wall.Sub(a.wall).Seconds())
		setups = append(setups, b.wall.Sub(a.wall).Seconds()*stealFactor(a, b))
		if want == nil {
			want = got
		}
	}

	runtime.GC()
	var lat []float64
	heap := startHeapSampler(5 * time.Millisecond)
	k0 := readClock()
	deadline := k0.wall.Add(o.window)
	for len(lat) < 3 || time.Now().Before(deadline) {
		a := readClock()
		runSet(jobs, ck, want)
		b := readClock()
		lat = append(lat, ms(b.wall.Sub(a.wall))*stealFactor(a, b))
	}
	k1 := readClock()
	heapMB, heapN := heap.Stop()
	trials := float64(len(lat) * trialsOf(jobs))
	busy := 0.0
	for _, l := range lat {
		busy += l / 1e3
	}

	q, tail := tailQuantile(lat)
	rep.set("setup_s", "s", median(setups))
	rep.set("trials_per_s", "1/s", trials/busy)
	rep.set("lat_p50_ms", "ms", median(lat))
	rep.set("lat_p99_ms", "ms", tail)
	rep.set("mean_heap_mb", "MB", heapMB)
	fmt.Printf("# samples cold_starts=%d reps=%d jobs_per_rep=%d trials_per_rep=%d lat_p99_at=p%.4g heap_samples=%d\n",
		len(setups), len(lat), len(jobs), trialsOf(jobs), 100*q, heapN)
	fmt.Printf("# raw setup_s=%.6g trials_per_s=%.6g window_steal_factor=%.4f\n",
		median(rawSetups), trials/k1.wall.Sub(k0.wall).Seconds(), stealFactor(k0, k1))
	return nil
}

// traced alternates the traced replica and an untraced core.Run of the
// same repetition, starting from a cold segment cache and arena. The
// replica's histograms must equal core.Run's. Layer times are per
// repetition, medians over the warm iterations.
func (w batchWorkload) traced(o options, ck *checker, rep *report) error {
	runtime.GC()
	statevec.ResetSegmentCache()
	pool := statevec.NewBufferPool()
	jobs := w.build(o.seed, pool)
	tracer := trace.New(trace.Config{Seed: 1, RingCap: 1})

	var (
		layerMs                  = map[string][]float64{}
		replicaMs, coreMs, spans []float64
		coldExecMs               float64
		coldMisses               int64
		seg0h, seg0m             int64
		pool0h, pool0m, pool0d   int64
		rt0                      goCounters
		last                     []*replica
	)
	deadline := time.Now().Add(o.window)
	it := 0
	for ; it < 3 || time.Now().Before(deadline); it++ {
		if it == 1 {
			runtime.GC()
			seg0h, seg0m = statevec.SegmentCacheStats()
			pool0h, pool0m = pool.Stats()
			pool0d = pool.Drops()
			rt0 = readGoCounters()
		}
		_, m0 := statevec.SegmentCacheStats()
		start := time.Now()
		reps := make([]*replica, len(jobs))
		for i, cfg := range jobs {
			var err error
			if reps[i], err = replicate(tracer, cfg); err != nil {
				return fmt.Errorf("replica of %s: %w", cfg.Circuit.Name(), err)
			}
		}
		tReplica := time.Since(start)
		_, m1 := statevec.SegmentCacheStats()

		start = time.Now()
		cores := make([]*core.Report, len(jobs))
		for i, cfg := range jobs {
			var err error
			if cores[i], err = core.Run(cfg); err != nil {
				return fmt.Errorf("core.Run of %s: %w", cfg.Circuit.Name(), err)
			}
		}
		tCore := time.Since(start)

		sums := map[string]float64{}
		for i, r := range reps {
			ck.job(checkReplica(jobs[i], r, cores[i]))
			ck.job(checkJob(jobs[i], cores[i]))
			for name, d := range r.layers() {
				sums[name] += ms(d)
			}
		}
		last = reps
		if it == 0 {
			coldExecMs, coldMisses = sums[spanExecute], m1-m0
			continue
		}
		spanTotal := 0.0
		for _, name := range coreLayers {
			layerMs[name] = append(layerMs[name], sums[name])
			spanTotal += sums[name]
		}
		replicaMs = append(replicaMs, ms(tReplica))
		coreMs = append(coreMs, ms(tCore))
		spans = append(spans, spanTotal)
	}
	warm := it - 1
	seg1h, seg1m := statevec.SegmentCacheStats()
	pool1h, pool1m := pool.Stats()
	gcFrac, allocBytes := rt0.since()
	if err := checkChrome(last[0].trace, o.perfetto); err != nil {
		ck.job(err)
	}

	vals := map[string]float64{
		"statevec.seg_misses":     float64(coldMisses),
		"statevec.seg_hit_ratio":  ratio(seg1h-seg0h, seg1m-seg0m),
		"statevec.compile_ms":     coldExecMs - median(layerMs[spanExecute]),
		"statevec.pool_hit_ratio": ratio(pool1h-pool0h, pool1m-pool0m),
		"statevec.pool_drops":     float64(pool.Drops() - pool0d),
		"go.gc_cpu_frac":          gcFrac,
		"go.alloc_mb_per_ktrial":  allocBytes / 1e6 / (2 * float64(warm*trialsOf(jobs)) / 1000),
		"core.unattributed_ms":    median(coreMs) - median(spans),
		"trace.overhead_frac":     1 - median(coreMs)/median(replicaMs),
	}
	for _, name := range coreLayers {
		vals[name+"_ms"] = median(layerMs[name])
	}
	var ops, base, optimized, errs, maxQubits int64
	var bytesComputed float64
	for _, r := range last {
		n := int64(r.circ.NumQubits())
		maxQubits = max(maxQubits, n)
		work := r.res.Ops + r.res.UncomputeOps
		ops += work
		bytesComputed += float64(work) * float64(int64(1)<<n) * 16 * 2
		a := r.plan.Analysis()
		base += a.BaselineOps
		optimized += a.OptimizedOps
		errs += int64(r.stats.TotalErrors)
		vals["sim.ops"] += float64(r.res.Ops)
		vals["sim.copies"] += float64(r.res.Copies)
		vals["sim.uncompute_ops"] += float64(r.res.UncomputeOps)
		vals["sim.msv"] = max(vals["sim.msv"], float64(r.res.MSV))
		vals["reorder.msv"] = max(vals["reorder.msv"], float64(a.MSV))
	}
	vals["reorder.base_ops"] = float64(base)
	vals["reorder.saving"] = 1 - float64(optimized)/float64(base)
	vals["trial.injections_per_trial"] = float64(errs) / float64(trialsOf(jobs))
	rooflineLayers(vals, int(maxQubits), float64(ops), bytesComputed, vals["sim.execute_ms"]/1e3)
	fmt.Printf("# samples warm_iterations=%d jobs_per_iteration=%d trials_per_iteration=%d (layer times are per iteration)\n",
		warm, len(jobs), trialsOf(jobs))
	return emitLayers(rep, vals)
}

// checkReplica requires the replica to reproduce core.Run: same
// histogram, same executed ops and the same plan.
func checkReplica(cfg core.Config, r *replica, c *core.Report) error {
	name := cfg.Circuit.Name()
	switch {
	case !maps.Equal(r.res.Counts, c.Reordered.Counts):
		return fmt.Errorf("%s: replica histogram differs from core.Run", name)
	case r.res.Ops != c.Reordered.Ops || r.res.UncomputeOps != c.Reordered.UncomputeOps:
		return fmt.Errorf("%s: replica executed %d+%d ops, core.Run %d+%d", name,
			r.res.Ops, r.res.UncomputeOps, c.Reordered.Ops, c.Reordered.UncomputeOps)
	case r.plan.OptimizedOps() != c.Plan.OptimizedOps():
		return fmt.Errorf("%s: replica plan has %d ops, core.Run's %d", name, r.plan.OptimizedOps(), c.Plan.OptimizedOps())
	}
	return nil
}
