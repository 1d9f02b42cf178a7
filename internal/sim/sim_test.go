package sim

import (
	"maps"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trial"
)

func genTrials(t *testing.T, c *circuit.Circuit, m *noise.Model, n int, seed int64) []*trial.Trial {
	t.Helper()
	g, err := trial.NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate(rand.New(rand.NewSource(seed)), n)
}

func TestBaselineNoiselessBell(t *testing.T) {
	c := circuit.New("bell", 2)
	c.Append(gate.H(), 0)
	c.Append(gate.CX(), 0, 1)
	c.MeasureAll()
	m := noise.NewModel("clean", 2)
	trials := genTrials(t, c, m, 2000, 1)
	res, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Distribution()
	if math.Abs(dist[0b00]-0.5) > 0.05 || math.Abs(dist[0b11]-0.5) > 0.05 {
		t.Errorf("Bell distribution wrong: %v", dist)
	}
	if dist[0b01] != 0 || dist[0b10] != 0 {
		t.Errorf("Bell produced odd-parity outcomes: %v", dist)
	}
	if res.Ops != int64(2*len(trials)) {
		t.Errorf("baseline ops = %d, want %d", res.Ops, 2*len(trials))
	}
	if res.MSV != 0 || res.Copies != 0 {
		t.Errorf("baseline should not store states: MSV=%d copies=%d", res.MSV, res.Copies)
	}
}

// TestEquivalenceOutcomes is the paper's central correctness claim: the
// reordered simulation is mathematically equivalent to the baseline. With
// per-trial pre-drawn randomness, outcomes must match bit for bit.
func TestEquivalenceOutcomes(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"bv4":    bench.BV(4, 0b111),
		"qft3":   bench.QFT(3),
		"grover": bench.Grover3(),
		"wstate": bench.WState3(),
	}
	for name, c := range circuits {
		m := noise.Uniform("u", c.NumQubits(), 5e-3, 5e-2, 2e-2)
		trials := genTrials(t, c, m, 400, 7)
		base, err := Baseline(c, trials, Options{})
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		reord, err := Reordered(c, trials, Options{})
		if err != nil {
			t.Fatalf("%s reordered: %v", name, err)
		}
		if !EqualOutcomes(base, reord) {
			t.Errorf("%s: outcomes differ between baseline and reordered", name)
		}
		for k, v := range base.Counts {
			if reord.Counts[k] != v {
				t.Errorf("%s: histogram differs at %b: %d vs %d", name, k, v, reord.Counts[k])
			}
		}
	}
}

// TestEquivalenceFinalStates checks equivalence at the strongest level:
// per-trial final state vectors must agree amplitude by amplitude.
func TestEquivalenceFinalStates(t *testing.T) {
	c := bench.QFT(3)
	m := noise.Uniform("u", 3, 1e-2, 1e-1, 0)
	trials := genTrials(t, c, m, 150, 8)
	base, err := Baseline(c, trials, Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	reord, err := Reordered(c, trials, Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		b, r := base.FinalStates[tr.ID], reord.FinalStates[tr.ID]
		if b == nil || r == nil {
			t.Fatalf("missing final state for trial %d", tr.ID)
		}
		if !b.Equal(r, 1e-12) {
			t.Fatalf("trial %d final states differ (max %g)", tr.ID, 0.0)
		}
	}
}

// TestEquivalenceProperty fuzzes equivalence across circuits, error rates
// and seeds.
func TestEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nq := 2 + rng.Intn(3)
		c := circuit.New("fuzz", nq)
		for i := 0; i < 5+rng.Intn(15); i++ {
			switch rng.Intn(4) {
			case 0:
				c.Append(gate.H(), rng.Intn(nq))
			case 1:
				c.Append(gate.T(), rng.Intn(nq))
			case 2:
				c.Append(gate.RX(rng.Float64()*math.Pi), rng.Intn(nq))
			default:
				a := rng.Intn(nq)
				b := (a + 1 + rng.Intn(nq-1)) % nq
				c.Append(gate.CX(), a, b)
			}
		}
		c.MeasureAll()
		m := noise.Uniform("u", nq, rng.Float64()*0.05, rng.Float64()*0.2, rng.Float64()*0.1)
		g, err := trial.NewGenerator(c, m)
		if err != nil {
			return false
		}
		trials := g.Generate(rng, 100)
		base, err := Baseline(c, trials, Options{})
		if err != nil {
			return false
		}
		reord, err := Reordered(c, trials, Options{})
		if err != nil {
			return false
		}
		return EqualOutcomes(base, reord)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExecutedOpsMatchStaticAnalysis: the executed reordered simulation
// must perform exactly the op count the static planner predicted.
func TestExecutedOpsMatchStaticAnalysis(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", 3, 2e-3, 2e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 9)
	plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecutePlan(c, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != plan.OptimizedOps() {
		t.Errorf("executed ops %d != planned %d", res.Ops, plan.OptimizedOps())
	}
	if res.MSV != plan.MSV() {
		t.Errorf("executed MSV %d != planned %d", res.MSV, plan.MSV())
	}
	if res.Copies != plan.Copies() {
		t.Errorf("executed copies %d != planned %d", res.Copies, plan.Copies())
	}
	base, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Ops != plan.BaselineOps() {
		t.Errorf("baseline ops %d != planned %d", base.Ops, plan.BaselineOps())
	}
}

func TestReorderedSavesOps(t *testing.T) {
	d := device.Yorktown()
	c := bench.BV(5, 0b1111)
	trials := genTrials(t, c, d.Model(), 1024, 10)
	base, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reord, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reord.Ops >= base.Ops {
		t.Errorf("reordered (%d ops) did not beat baseline (%d ops)", reord.Ops, base.Ops)
	}
	saving := 1 - float64(reord.Ops)/float64(base.Ops)
	t.Logf("bv5/Yorktown saving with 1024 trials: %.1f%%, MSV %d", saving*100, reord.MSV)
	if saving < 0.5 {
		t.Errorf("saving = %g, expected > 0.5", saving)
	}
}

func TestMeasurementFlipsApplied(t *testing.T) {
	// Circuit leaves |0>; a trial with a forced measurement flip must
	// report bit 1.
	c := circuit.New("t", 1)
	c.Append(gate.I(), 0)
	c.Measure(0, 0)
	tr := &trial.Trial{ID: 0, MeasFlips: 1, SampleU: 0.5}
	res, err := Baseline(c, []*trial.Trial{tr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[1] != 1 {
		t.Errorf("flip not applied: counts %v", res.Counts)
	}
}

func TestInjectedErrorChangesOutcome(t *testing.T) {
	// |0> with an X injected after the only layer must measure 1.
	c := circuit.New("t", 1)
	c.Append(gate.I(), 0)
	c.Measure(0, 0)
	tr := &trial.Trial{ID: 0, SampleU: 0.5}
	tr.Inj = []trial.Key{trial.Pack(0, 0, gate.PauliX)}
	for name, run := range map[string]func() (*Result, error){
		"baseline":  func() (*Result, error) { return Baseline(c, []*trial.Trial{tr}, Options{}) },
		"reordered": func() (*Result, error) { return Reordered(c, []*trial.Trial{tr}, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[1] != 1 {
			t.Errorf("%s: X injection not applied: %v", name, res.Counts)
		}
	}
}

func TestMeasurementMapping(t *testing.T) {
	// Measure qubit 0 into bit 2 and qubit 2 into bit 0; prepare |..1>
	// on qubit 0 only.
	c := circuit.New("t", 3)
	c.Append(gate.X(), 0)
	c.Measure(0, 2)
	c.Measure(2, 0)
	tr := &trial.Trial{ID: 0, SampleU: 0.3}
	res, err := Baseline(c, []*trial.Trial{tr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0b100] != 1 {
		t.Errorf("qubit->bit routing wrong: %v", res.Counts)
	}
}

func TestDistributionNormalization(t *testing.T) {
	c := bench.BV(4, 0b101)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 500, 11)
	res, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.Distribution() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %g", sum)
	}
}

func TestNoisyDistributionConcentratesOnSecret(t *testing.T) {
	// BV with modest noise should still put the plurality of mass on the
	// secret string.
	secret := uint64(0b1011)
	c := bench.BV(5, secret)
	m := noise.Uniform("u", 5, 1e-3, 1e-2, 1e-2)
	trials := genTrials(t, c, m, 3000, 12)
	res, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Distribution()
	best, bestP := uint64(0), -1.0
	for k, p := range dist {
		if p > bestP {
			best, bestP = k, p
		}
	}
	if best != secret {
		t.Errorf("mode = %b (p=%g), want secret %b", best, bestP, secret)
	}
}

func TestOutcomesSortedByTrialID(t *testing.T) {
	c := bench.BV(4, 0b111)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 0)
	trials := genTrials(t, c, m, 64, 13)
	res, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.TrialID != i {
			t.Fatalf("outcomes not in trial-ID order at %d: %d", i, o.TrialID)
		}
	}
}

// TestFinishOrdersAnyIDSet checks finish on the ID sets it meets: a dense
// permutation of 0..n-1 (placed in O(n)), and sparse, out-of-range and
// duplicate IDs (sorted). Each must come out in trial-ID order with the
// outcome multiset and histogram unchanged.
func TestFinishOrdersAnyIDSet(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dense := make([]int, 500)
	for i := range dense {
		dense[i] = i
	}
	cases := map[string][]int{
		"empty":     nil,
		"dense":     dense,
		"sparse":    {40, 3, 17, 1000, 8},
		"negative":  {2, -1, 0, 1},
		"duplicate": {3, 1, 2, 1, 0, 3},
		"dup-early": {0, 0, 1},
	}
	for name, ids := range cases {
		ids = append([]int(nil), ids...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		res := newResult(nil, 0, false)
		want := map[Outcome]int{}
		for _, id := range ids {
			o := Outcome{TrialID: id, Bits: uint64(rng.Intn(4))}
			res.Outcomes = append(res.Outcomes, o)
			want[o]++
		}
		finish(res)
		got := map[Outcome]int{}
		counts := map[uint64]int{}
		for i, o := range res.Outcomes {
			if i > 0 && res.Outcomes[i-1].TrialID > o.TrialID {
				t.Fatalf("%s: outcomes out of trial-ID order at %d: %v", name, i, res.Outcomes)
			}
			got[o]++
			counts[o.Bits]++
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s: outcomes %v, want the multiset %v", name, res.Outcomes, want)
		}
		if !maps.Equal(res.Counts, counts) {
			t.Fatalf("%s: histogram %v, outcomes give %v", name, res.Counts, counts)
		}
	}
}

func TestEqualOutcomesDetectsDifference(t *testing.T) {
	a := &Result{Outcomes: []Outcome{{0, 1}}}
	b := &Result{Outcomes: []Outcome{{0, 2}}}
	if EqualOutcomes(a, b) {
		t.Error("different outcomes reported equal")
	}
	if !EqualOutcomes(a, a) {
		t.Error("identical outcomes reported unequal")
	}
	if EqualOutcomes(a, &Result{}) {
		t.Error("different lengths reported equal")
	}
}

// genOK builds a generator without a testing.T, for property functions.
func genOK(c *circuit.Circuit, m *noise.Model) (*trial.Generator, error) {
	return trial.NewGenerator(c, m)
}

// TestEquivalenceUnderALAPLayering: the reordering stays exact when the
// circuit uses ALAP layers (error positions move, correctness must not).
func TestEquivalenceUnderALAPLayering(t *testing.T) {
	c := bench.QFT(4)
	c.SetLayering(circuit.ALAP)
	m := noise.Uniform("u", 4, 5e-3, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 300, 60)
	base, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reord, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualOutcomes(base, reord) {
		t.Error("ALAP layering broke equivalence")
	}
}

// TestSampleFallbackSkipsZeroAmplitudes: when round-off leaves the total
// mass below the trial's uniform, the sampled outcome is the last one
// with nonzero probability, never a zero-probability basis state.
func TestSampleFallbackSkipsZeroAmplitudes(t *testing.T) {
	c := circuit.New("fallback", 2).MeasureAll()
	h := complex(math.Sqrt(0.5)*(1-1e-12), 0)
	st, err := statevec.FromAmplitudes([]complex128{h, 0, h, 0})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trial.Trial{SampleU: math.Nextafter(1, 0)}
	if got := sampleBitsRaw(st, c, tr); got != 2 {
		t.Fatalf("sampled outcome %d with mass %v below u = %v, want 2 (the last nonzero amplitude)",
			got, 2*real(h)*real(h), tr.SampleU)
	}
	empty, _ := statevec.FromAmplitudes(make([]complex128, 4))
	if got := sampleBitsRaw(empty, c, tr); got != 3 {
		t.Fatalf("all-zero state sampled %d, want 3 (the last index, as State.Sample)", got)
	}
}

// TestMSVTrackerConcurrentHighWater hammers the tracker from many
// goroutines (the -race gate) and checks the peak is at least the
// documented lower bound and at most the arithmetic maximum.
func TestMSVTrackerConcurrentHighWater(t *testing.T) {
	var tr msvTracker
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.add(1)
				tr.add(1)
				tr.add(-1)
				tr.add(-1)
			}
		}()
	}
	wg.Wait()
	hw := tr.highWater()
	// Each goroutine holds at most 2 concurrently; at least one held 2.
	if hw < 2 || hw > 2*workers {
		t.Errorf("high-water %d outside [2, %d]", hw, 2*workers)
	}
	if got := tr.cur.Load(); got != 0 {
		t.Errorf("tracker did not return to zero: %d", got)
	}
}

// TestBudgetedExecutionEquivalence: executing a memory-budgeted plan gives
// bit-identical outcomes to the baseline, with bounded stored vectors.
func TestBudgetedExecutionEquivalence(t *testing.T) {
	c := bench.Grover3()
	m := noise.Uniform("u", 3, 5e-3, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 300, 24)
	base, err := Baseline(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1, 2, 5} {
		plan, err := reorder.BuildPlan(c, trials, budgetOptions(budget))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecutePlan(c, plan, Options{})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !EqualOutcomes(base, res) {
			t.Errorf("budget %d: outcomes differ from baseline", budget)
		}
		if res.MSV > budget {
			t.Errorf("budget %d: executed MSV %d exceeds budget", budget, res.MSV)
		}
		if res.Ops != plan.OptimizedOps() {
			t.Errorf("budget %d: executed ops %d != planned %d", budget, res.Ops, plan.OptimizedOps())
		}
	}
}

// TestBudgetedEquivalenceProperty fuzzes budgets and trial sets.
func TestBudgetedEquivalenceProperty(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		budget := int(budgetRaw % 6)
		rng := rand.New(rand.NewSource(seed))
		c := bench.QV(3, 2, rng)
		m := noise.Uniform("u", 3, rng.Float64()*0.05, rng.Float64()*0.2, rng.Float64()*0.05)
		g, err := genOK(c, m)
		if err != nil {
			return false
		}
		trials := g.Generate(rng, 80)
		base, err := Baseline(c, trials, Options{})
		if err != nil {
			return false
		}
		plan, err := reorder.BuildPlan(c, trials, budgetOptions(budget))
		if err != nil {
			return false
		}
		res, err := ExecutePlan(c, plan, Options{})
		if err != nil {
			return false
		}
		return EqualOutcomes(base, res) && res.MSV <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
