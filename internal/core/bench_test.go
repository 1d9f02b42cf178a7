package core

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/transpile"
	"repro/internal/trial"
)

// yorktownJob is one paper-yorktown job shape: the circuit transpiled
// onto Yorktown, its 1,024 trials and their plan.
type yorktownJob struct {
	c       *circuit.Circuit
	trials  []*trial.Trial
	ordered []*trial.Trial
	plan    *reorder.Plan
}

// yorktownJobs builds the 12 Table I jobs with trial seeds 1001-1012.
func yorktownJobs(b *testing.B) []yorktownJob {
	suite := bench.Suite(1)
	dev := device.Yorktown()
	jobs := make([]yorktownJob, len(bench.TableI))
	for i, ref := range bench.TableI {
		rep, err := Run(Config{
			Circuit: suite[ref.Name], Device: dev, Transpile: true,
			Trials: 1024, Seed: 1000 + int64(i) + 1, Mode: ModeStatic,
		})
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = yorktownJob{c: rep.Circuit, trials: rep.Trials, ordered: rep.Plan.Order, plan: rep.Plan}
	}
	return jobs
}

// BenchmarkSortPlanYorktown times the reorder sort and the plan build
// alone on the paper-yorktown job shapes: the 12 Table I circuits
// transpiled onto Yorktown, 1,024 trials each, trial seeds 1001-1012. One
// op sorts (or plans) all 12 jobs; allocations are reported.
//
//	go test ./internal/core -run ^$ -bench SortPlanYorktown -benchmem
func BenchmarkSortPlanYorktown(b *testing.B) {
	jobs := yorktownJobs(b)
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
				if _, err := reorder.BuildPlanOrderedBudget(j.c, j.ordered, math.MaxInt); err != nil {
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

// BenchmarkRunYorktown runs one paper-yorktown repetition per op: core.Run
// of the 12 Table I circuits transpiled onto Yorktown, 1,024 trials each,
// reordered with the default fuse mode and one shared pool, trial seeds
// drawn afresh per op. Next to B/op and allocs/op it reports mean-MB, the
// heap objects sampled every 5 ms as perfbench's mean_heap_mb samples
// them, and live-MB, the heap objects left after a GC at the end: the
// sampled heap next to allocation per repetition and retention.
//
//	go test ./internal/core -run ^$ -bench RunYorktown -count 5
func BenchmarkRunYorktown(b *testing.B) {
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
			rep, err := Run(Config{
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
