package trial

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/noise"
)

// TestGenerateMatchesSample pins Generate's slab and arena to the
// one-trial-at-a-time Sample path: the same rng draws in the same order
// give the same IDs, injections, readout flips and sampling uniforms,
// bit for bit, under every slot shape the generator builds.
func TestGenerateMatchesSample(t *testing.T) {
	c := bench.QFT(4)
	idle := noise.Uniform("idle", 4, 0.02, 0.08, 0.03)
	for q := 0; q < 4; q++ {
		idle.SetIdle(q, 0.01)
	}
	cases := []struct {
		name  string
		model *noise.Model
		mode  ErrorMode
		n     int
	}{
		{"per-gate", noise.Uniform("u", 4, 0.01, 0.05, 0.02), PerGate, 2000},
		{"per-qubit", noise.Uniform("u", 4, 0.01, 0.05, 0.02), PerQubit, 2000},
		{"dense", noise.Uniform("u", 4, 0.3, 0.6, 0.2), PerGate, 500},
		{"degenerate", noise.Uniform("u", 4, 1, 1, 0.5), PerGate, 50},
		{"idle", idle, PerGate, 1000},
		{"clean", noise.NewModel("clean", 4), PerGate, 100},
		{"empty", noise.Uniform("u", 4, 0.01, 0.05, 0.02), PerGate, 0},
	}
	for _, tc := range cases {
		g, err := NewGeneratorMode(c, tc.model, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		got := g.Generate(rand.New(rand.NewSource(5)), tc.n)
		if len(got) != tc.n {
			t.Fatalf("%s: %d trials, want %d", tc.name, len(got), tc.n)
		}
		rng := rand.New(rand.NewSource(5))
		for i, tr := range got {
			want := g.Sample(rng, i)
			if tr.ID != want.ID || !slices.Equal(tr.Inj, want.Inj) || tr.MeasFlips != want.MeasFlips ||
				math.Float64bits(tr.SampleU) != math.Float64bits(want.SampleU) {
				t.Fatalf("%s: trial %d: Generate %v flips %b u %v, Sample %v flips %b u %v",
					tc.name, i, tr, tr.MeasFlips, tr.SampleU, want, want.MeasFlips, want.SampleU)
			}
		}
	}
}

// TestGenerateInjListsAreIsolated checks that the trials sharing
// Generate's key arena cannot see each other's appends: each Inj is
// capped at its own length, so an append copies.
func TestGenerateInjListsAreIsolated(t *testing.T) {
	g, err := NewGenerator(bench.QFT(4), noise.Uniform("u", 4, 0.2, 0.4, 0))
	if err != nil {
		t.Fatal(err)
	}
	trials := g.Generate(rand.New(rand.NewSource(9)), 200)
	checked := 0
	for i := 0; i+1 < len(trials); i++ {
		a, b := trials[i], trials[i+1]
		if len(a.Inj) == 0 || len(b.Inj) == 0 {
			continue
		}
		if cap(a.Inj) != len(a.Inj) {
			t.Fatalf("trial %d: cap %d exceeds len %d", i, cap(a.Inj), len(a.Inj))
		}
		before := slices.Clone(b.Inj)
		a.Inj = append(a.Inj, Pack(0, 0, 0))
		if !slices.Equal(b.Inj, before) {
			t.Fatalf("append to trial %d's Inj overwrote trial %d: %v, was %v", i, i+1, b.Inj, before)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no adjacent trials with injections to check")
	}
}

// TestNewGeneratorAllocs pins the constructor's allocations to a small
// constant, whatever the slot count: the Generator, the slot table sized
// from the op count, the measurement copy and its three tables, and the
// busy table when there are idle errors.
func TestNewGeneratorAllocs(t *testing.T) {
	qv := bench.QV(14, 3, rand.New(rand.NewSource(1)))
	idle := noise.Uniform("idle", 14, 1e-3, 1e-2, 1e-2)
	for q := 0; q < 14; q++ {
		idle.SetIdle(q, 1e-3)
	}
	for _, tc := range []struct {
		name string
		m    *noise.Model
		mode ErrorMode
		max  float64
	}{
		{"qv14", noise.Uniform("qv14", 14, 1e-3, 1e-2, 1e-2), PerGate, 6},
		{"qv14/per-qubit", noise.Uniform("qv14", 14, 1e-3, 1e-2, 1e-2), PerQubit, 6},
		{"qv14/idle", idle, PerGate, 7},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewGeneratorMode(qv, tc.m, tc.mode); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: NewGeneratorMode made %v allocations, want at most %v", tc.name, allocs, tc.max)
		}
	}
}
