package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/statevec"
)

// TestRunAllocsFlatInTrials is Run's allocation contract for the per-trial
// layers: trial generation, the reorder sort, outcome placement and the
// trial statistics allocate per run, not per trial. Over one warm shared
// pool, allocs(4096 trials) may exceed allocs(256 trials) only by a small
// fixed slack (the few geometric regrowths of run-sized slices).
func TestRunAllocsFlatInTrials(t *testing.T) {
	// A collection cycle can count runtime allocations of its own; count
	// only Run's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const slack = 64
	dev := device.Yorktown()
	pool := statevec.NewBufferPool()
	for _, name := range []string{"bv5", "qft5", "qv_n5d5"} {
		c, err := bench.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(trials int) float64 {
			cfg := Config{
				Circuit: c, Device: dev, Transpile: true,
				Trials: trials, Seed: 1, Mode: ModeReordered,
				Fuse: statevec.FuseOff, Pool: pool,
			}
			return testing.AllocsPerRun(3, func() {
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%d: %v", name, trials, err)
				}
				if len(rep.Reordered.Outcomes) != trials {
					t.Fatalf("%s/%d: %d outcomes", name, trials, len(rep.Reordered.Outcomes))
				}
			})
		}
		small, large := allocs(256), allocs(4096)
		t.Logf("%s: %.0f allocs at 256 trials, %.0f at 4096", name, small, large)
		if large-small > slack {
			t.Errorf("%s: allocs grow with trials: %.0f at 256, %.0f at 4096 (slack %d)", name, small, large, slack)
		}
	}
}
