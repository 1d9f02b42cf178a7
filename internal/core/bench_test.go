package core

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/bench"
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

// yorktownJob is one paper-yorktown job shape: the circuit transpiled
// onto Yorktown, its trial generator and seed, its 1,024 trials and their
// plan.
type yorktownJob struct {
	c      *circuit.Circuit
	gen    *trial.Generator
	seed   int64
	trials []*trial.Trial
	plan   *reorder.Plan
}

// yorktownJobs builds the 12 Table I jobs with trial seeds 1001-1012.
func yorktownJobs(b *testing.B) []yorktownJob {
	suite := bench.Suite(1)
	dev := device.Yorktown()
	jobs := make([]yorktownJob, len(bench.TableI))
	for i, ref := range bench.TableI {
		seed := 1000 + int64(i) + 1
		rep, err := Run(Config{
			Circuit: suite[ref.Name], Device: dev, Transpile: true,
			Trials: 1024, Seed: seed, Mode: ModeStatic,
		})
		if err != nil {
			b.Fatal(err)
		}
		gen, err := trial.NewGenerator(rep.Circuit, dev.Model())
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = yorktownJob{c: rep.Circuit, gen: gen, seed: seed, trials: rep.Trials, plan: rep.Plan}
	}
	return jobs
}

// BenchmarkSortPlanYorktown times trial generation, the reorder sort
// alone and the plan walk (Algorithm 1's sort and the plan build in one
// walk, as core.Run times plan_build) on the paper-yorktown job shapes:
// the 12 Table I circuits transpiled onto Yorktown, 1,024 trials each,
// trial seeds 1001-1012. One op generates (or sorts, or plans) all 12
// jobs; allocations are reported.
//
//	go test ./internal/core -run ^$ -bench SortPlanYorktown -benchmem
func BenchmarkSortPlanYorktown(b *testing.B) {
	jobs := yorktownJobs(b)
	b.Run("gen", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				rng.Seed(j.seed)
				j.gen.Generate(rng, len(j.trials))
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				reorder.Sort(j.trials)
			}
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := reorder.BuildPlan(j.c, j.trials, reorder.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTranspileYorktown times transpile.ToDevice alone on the
// paper-yorktown circuits: one op decomposes and routes all 12 Table I
// circuits onto Yorktown; allocations are reported.
//
//	go test ./internal/core -run ^$ -bench TranspileYorktown -benchmem
func BenchmarkTranspileYorktown(b *testing.B) {
	suite := bench.Suite(1)
	dev := device.Yorktown()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, ref := range bench.TableI {
			if _, err := transpile.ToDevice(suite[ref.Name], dev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExecuteYorktown times plan execution alone on the
// paper-yorktown job shapes: sim.ExecutePlan over the 12 prebuilt plans
// with the default fuse mode (FuseOff: the dispatch table) and one shared
// pool. One op executes all 12 plans; it fails if a job's ops differ from
// its plan's.
//
//	go test ./internal/core -run ^$ -bench ExecuteYorktown -count 10
func BenchmarkExecuteYorktown(b *testing.B) {
	jobs := yorktownJobs(b)
	opt := sim.Options{Pool: statevec.NewBufferPool()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			res, err := sim.ExecutePlan(j.c, j.plan, opt)
			if err != nil {
				b.Fatal(err)
			}
			if res.Ops != j.plan.OptimizedOps() {
				b.Fatalf("%s: executed %d ops, plan has %d", j.c.Name(), res.Ops, j.plan.OptimizedOps())
			}
		}
	}
}

// BenchmarkRunYorktown runs one paper-yorktown repetition per op: the 12
// Table I circuits transpiled onto Yorktown, 1,024 trials each, reordered
// with the default fuse mode and one shared pool, trial seeds drawn
// afresh per op. The "run" sub-benchmark calls core.Run, the one-shot
// path perfbench times; "runner" runs the same jobs through one Runner,
// as a loop that holds one would. Next to B/op and allocs/op each reports
// mean-MB, the heap objects sampled every 5 ms as perfbench's
// mean_heap_mb samples them, and live-MB, the heap objects left after a
// GC at the end: the sampled heap next to allocation per repetition and
// retention.
//
//	go test ./internal/core -run ^$ -bench RunYorktown -count 5
func BenchmarkRunYorktown(b *testing.B) {
	var runner Runner
	b.Run("run", func(b *testing.B) { benchmarkRunYorktown(b, Run) })
	b.Run("runner", func(b *testing.B) { benchmarkRunYorktown(b, runner.Run) })
}

func benchmarkRunYorktown(b *testing.B, run func(Config) (*Report, error)) {
	suite := bench.Suite(1)
	dev := device.Yorktown()
	pool := statevec.NewBufferPool()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	stop, done := make(chan struct{}), make(chan struct{})
	var sum float64
	var samples int
	runtime.GC()
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heap[0].Name}}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				metrics.Read(s)
				sum += float64(s[0].Value.Uint64())
				samples++
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, ref := range bench.TableI {
			rep, err := run(Config{
				Circuit: suite[ref.Name], Device: dev, Transpile: true,
				Trials: 1024, Seed: int64(i+1)*1000 + int64(j) + 1, Mode: ModeReordered, Pool: pool,
			})
			if err != nil {
				b.Fatal(err)
			}
			if got, want := rep.Reordered.Ops, rep.Plan.OptimizedOps(); got != want {
				b.Fatalf("%s: executed %d ops, plan has %d", ref.Name, got, want)
			}
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	runtime.GC()
	metrics.Read(heap)
	b.ReportMetric(sum/float64(max(samples, 1))/1e6, "mean-MB")
	b.ReportMetric(float64(heap[0].Value.Uint64())/1e6, "live-MB")
}

// BenchmarkRunDaemonShape runs qsimd's default job shape through one
// Runner, as a qsimd worker does, with the observability qsimd's runJob
// attaches: the Recorder is
// obs.Multi of two Metrics (the daemon's aggregate and the tenant's) and
// the Span is the root of a keep-all tracer's trace. One op is 12 jobs,
// one per Table I circuit on Yorktown (not transpiled), reordered with
// FuseOff, one worker and one shared pool. Each circuit rotates through
// 64, 128, 256 and 640 trials and seeds 1 and 2 (the shapes of
// qsimd-mixed's repeated requests), so every 8 ops run each of its 8
// shapes once. Allocations are reported per op, that is per 12 jobs.
//
//	go test ./internal/core -run ^$ -bench RunDaemonShape -benchmem -count 5
func BenchmarkRunDaemonShape(b *testing.B) {
	trials := []int{64, 128, 256, 640}
	var circs [2][]*circuit.Circuit
	for s := range circs {
		for _, ref := range bench.TableI {
			c, err := bench.Build(ref.Name, int64(s+1))
			if err != nil {
				b.Fatal(err)
			}
			circs[s] = append(circs[s], c)
		}
	}
	dev := device.Yorktown()
	pool := statevec.NewBufferPool()
	agg, tenant := obs.NewMetrics(), obs.NewMetrics()
	tracer := trace.New(trace.Config{Seed: 1})
	var runner Runner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bench.TableI {
			k := (i + j) % (2 * len(trials))
			seed := k / len(trials)
			root := tracer.Start("request", trace.SpanContext{})
			rep, err := runner.Run(Config{
				Circuit: circs[seed][j], Device: dev,
				Trials: trials[k%len(trials)], Seed: int64(seed + 1), Mode: ModeReordered,
				Workers: 1, Pool: pool, Recorder: obs.Multi(agg, tenant), Span: root,
			})
			root.End()
			if err != nil {
				b.Fatal(err)
			}
			if got, want := rep.Reordered.Ops, rep.Plan.OptimizedOps(); got != want {
				b.Fatalf("%s: executed %d ops, plan has %d", bench.TableI[j].Name, got, want)
			}
		}
	}
}

// BenchmarkRunQV14Snapshot times core.Run on the qv14-snapshot job shape:
// a 14-qubit Quantum Volume circuit of depth 3, 64 trials, numeric fusion
// and the subtree-parallel executor with max(2, GOMAXPROCS) workers and
// snapshots, drawing state vectors from one shared pool. Kernels dominate
// it, so it reproduces a kernel speed-up without the perfbench harness.
//
//	go test ./internal/core -run ^$ -bench RunQV14Snapshot -count 10
func BenchmarkRunQV14Snapshot(b *testing.B) {
	const n = 14
	cfg := Config{
		Circuit: bench.QV(n, 3, rand.New(rand.NewSource(1))),
		Model:   noise.Uniform("qv14", n, 1e-3, 1e-2, 1e-2),
		Trials:  64, Seed: 1, Mode: ModeReordered, Fuse: statevec.FuseNumeric,
		Workers: max(2, runtime.GOMAXPROCS(0)), Policy: sim.PolicySnapshot,
		Pool: statevec.NewBufferPool(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got, want := rep.Reordered.Ops, rep.Plan.OptimizedOps(); got != want {
			b.Fatalf("executed %d ops, plan has %d", got, want)
		}
	}
}
