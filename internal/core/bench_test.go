package core

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/reorder"
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
