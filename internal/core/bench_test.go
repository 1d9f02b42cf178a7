package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// BenchmarkSortPlanYorktown times the reorder sort and the plan build
// alone on the paper-yorktown job shapes: the 12 Table I circuits
// transpiled onto Yorktown, 1,024 trials each, trial seeds 1001-1012. One
// op sorts (or plans) all 12 jobs; allocations are reported.
//
//	go test ./internal/core -run ^$ -bench SortPlanYorktown -benchmem
func BenchmarkSortPlanYorktown(b *testing.B) {
	type job struct {
		c       *circuit.Circuit
		trials  []*trial.Trial
		ordered []*trial.Trial
	}
	suite := bench.Suite(1)
	dev := device.Yorktown()
	jobs := make([]job, len(bench.TableI))
	for i, ref := range bench.TableI {
		rep, err := Run(Config{
			Circuit: suite[ref.Name], Device: dev, Transpile: true,
			Trials: 1024, Seed: 1000 + int64(i) + 1, Mode: ModeStatic,
		})
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = job{c: rep.Circuit, trials: rep.Trials, ordered: rep.Plan.Order}
	}
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
