package trial

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/transpile"
)

// skipGenerator returns a generator over n blank slots whose skip uses
// maxProb, for testing the skip alone.
func skipGenerator(n int, maxProb float64) *Generator {
	g := &Generator{slots: make([]slot, n, n+1), maxProb: maxProb}
	g.initSkip()
	return g
}

// refSkip is the geometric skip as the exact expression defines it:
// int(math.Log(u)/lnq) with u == 0 read as the smallest positive float,
// capped at rem (compared before the conversion, so a jump too long for
// an int reads as rem).
func refSkip(lnq, u float64, rem int) int {
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	r := math.Log(u) / lnq
	if r >= float64(rem) {
		return rem
	}
	return int(r)
}

// TestGeometricSkipMatchesLog holds the bracketed skip to the exact
// expression: a million random draws per jump probability, the 64
// floats on either side of every threshold q^m and of both edges of its
// bracket, and the extremes (0, the smallest positive float, and the
// largest floats below 1).
func TestGeometricSkipMatchesLog(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(11))
	for _, p := range []float64{1e-6, 1e-3, 0.03, 0.5, 0.999} {
		g := skipGenerator(n, p)
		check := func(u float64, rem int) {
			t.Helper()
			if got, want := g.skip(u, rem), refSkip(g.lnq, u, rem); got != want {
				t.Fatalf("maxProb %g: skip(%v [%#x], %d) = %d, exact %d", p, u, math.Float64bits(u), rem, got, want)
			}
		}
		for range 1_000_000 {
			check(rng.Float64(), rng.Intn(n+1))
		}
		for m := 0; m <= n; m++ {
			q := g.thresholds[m].thr
			for _, c := range []float64{math.Exp(float64(m) * g.lnq), q, q * (1 - skipGuard), q * (1 + skipGuard)} {
				up, down := c, c
				for range 64 {
					up, down = math.Nextafter(up, 2), math.Nextafter(down, -1)
					for _, u := range []float64{up, down} {
						if u < 0 || u >= 1 {
							continue
						}
						for _, rem := range []int{max(m-1, 0), m, min(m+1, n), n} {
							check(u, rem)
						}
					}
				}
			}
		}
		for _, u := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-53, skipFloor / 2, skipFloor, math.Nextafter(1, 0), 1 - 0x1p-53, 1 - 0x1p-40} {
			for _, rem := range []int{0, 1, n / 2, n} {
				check(u, rem)
			}
		}
	}
}

// TestFastLnAccuracy holds the skip's estimate to its stated 2^-30: an
// estimate that drifts stays correct (the brackets decide) but sends
// draws down the exact path.
func TestFastLnAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := range 1_000_000 {
		u := rng.Float64()
		if i%2 == 1 {
			u = math.Ldexp(u, -rng.Intn(990)) // spread over the exponents
		}
		if u < skipFloor {
			continue
		}
		if d := math.Abs(fastLn(u) - math.Log(u)); d > 0x1p-30 {
			t.Fatalf("fastLn(%v) = %v, ln %v: off by %v", u, fastLn(u), math.Log(u), d)
		}
	}
}

// FuzzGeometricSkip fuzzes the skip against the exact expression over
// the draw, the jump probability and the remaining slot count.
func FuzzGeometricSkip(f *testing.F) {
	f.Add(0.5, 0.03, uint16(40))
	f.Add(0.0, 0.5, uint16(3))
	f.Add(0.999999, 1e-6, uint16(1000))
	f.Add(1e-300, 0.999, uint16(200))
	f.Fuzz(func(t *testing.T, u, p float64, rem uint16) {
		if !(u >= 0 && u < 1) || !(p > 0 && p < 1) {
			return
		}
		n := int(rem % 2048)
		g := skipGenerator(n, p)
		for _, r := range []int{0, n / 2, n} {
			if got, want := g.skip(u, r), refSkip(g.lnq, u, r); got != want {
				t.Fatalf("maxProb %g: skip(%v [%#x], %d) = %d, exact %d", p, u, math.Float64bits(u), r, got, want)
			}
		}
	})
}

// refGenerate draws n trials as the generator did with the exact skip
// expression in its loop: the reference the bracketed skip must equal
// bit for bit.
func refGenerate(g *Generator, rng *rand.Rand, n int) []Trial {
	out := make([]Trial, n)
	for id := range out {
		t := &out[id]
		t.ID = id
		var inj []Key
		if g.maxProb >= 1 {
			for i := range g.slots {
				if rng.Float64() < g.slots[i].prob {
					inj = g.fire(rng, inj, &g.slots[i])
				}
			}
		} else if g.maxProb > 0 {
			i := 0
			for {
				u := rng.Float64()
				if u == 0 {
					u = math.SmallestNonzeroFloat64
				}
				i += int(math.Log(u) / g.lnq)
				if i >= len(g.slots) {
					break
				}
				sl := &g.slots[i]
				if sl.prob == g.maxProb || rng.Float64()*g.maxProb < sl.prob {
					inj = g.fire(rng, inj, sl)
				}
				i++
			}
		}
		slices.Sort(inj)
		t.Inj = inj
		for _, ms := range g.meas {
			if ms.prob > 0 && rng.Float64() < ms.prob {
				t.MeasFlips |= 1 << uint(ms.bit)
			}
		}
		t.SampleU = rng.Float64()
	}
	return out
}

// TestGenerateMatchesExactSkip runs Generate against refGenerate over the
// twelve Table I circuits transpiled onto Yorktown, under the device's
// per-gate model, per-qubit injection and a model with idle errors.
func TestGenerateMatchesExactSkip(t *testing.T) {
	dev := device.Yorktown()
	idle := device.Yorktown().Model() // a fresh model, not dev's
	for q := 0; q < idle.NumQubits(); q++ {
		idle.SetIdle(q, 2e-3)
	}
	suite := bench.Suite(1)
	for i, ref := range bench.TableI {
		tr, err := transpile.ToDevice(suite[ref.Name], dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			model *noise.Model
			mode  ErrorMode
		}{
			{"per-gate", dev.Model(), PerGate},
			{"per-qubit", dev.Model(), PerQubit},
			{"idle", idle, PerGate},
		} {
			g, err := NewGeneratorMode(tr.Circuit, tc.model, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(1000 + i)
			got := g.Generate(rand.New(rand.NewSource(seed)), 1024)
			want := refGenerate(g, rand.New(rand.NewSource(seed)), 1024)
			for j, tr := range got {
				w := &want[j]
				if tr.ID != w.ID || !slices.Equal(tr.Inj, w.Inj) || tr.MeasFlips != w.MeasFlips ||
					math.Float64bits(tr.SampleU) != math.Float64bits(w.SampleU) {
					t.Fatalf("%s/%s: trial %d: Generate %v flips %b u %v, exact skip %v flips %b u %v",
						ref.Name, tc.name, j, tr, tr.MeasFlips, tr.SampleU, w, w.MeasFlips, w.SampleU)
				}
			}
		}
	}
}
