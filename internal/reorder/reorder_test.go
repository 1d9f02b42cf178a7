package reorder

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/trial"
)

func mkTrial(id int, inj ...trial.Injection) *trial.Trial {
	t := &trial.Trial{ID: id}
	for _, in := range inj {
		t.Inj = append(t.Inj, trial.Pack(in.Layer, in.Qubit, in.Op))
	}
	return t
}

// chain builds a serial n-layer circuit on 2 qubits (each layer: one H on
// each qubit -> every layer has 2 gates, layered deterministically).
func chain(layers int) *circuit.Circuit {
	c := circuit.New("chain", 2)
	for l := 0; l < layers; l++ {
		c.Append(gate.H(), 0)
		c.Append(gate.H(), 1)
	}
	c.MeasureAll()
	return c
}

func randomTrials(rng *rand.Rand, n, layers, qubits, maxErr int) []*trial.Trial {
	trials := make([]*trial.Trial, n)
	for i := range trials {
		t := &trial.Trial{ID: i, SampleU: rng.Float64()}
		k := rng.Intn(maxErr + 1)
		seen := map[trial.Key]bool{}
		for j := 0; j < k; j++ {
			key := trial.Pack(rng.Intn(layers), rng.Intn(qubits), gate.Pauli(rng.Intn(3)))
			if !seen[key] {
				seen[key] = true
				t.Inj = append(t.Inj, key)
			}
		}
		// keep sorted
		for a := 1; a < len(t.Inj); a++ {
			for b := a; b > 0 && t.Inj[b] < t.Inj[b-1]; b-- {
				t.Inj[b], t.Inj[b-1] = t.Inj[b-1], t.Inj[b]
			}
		}
		trials[i] = t
	}
	return trials
}

// TestSortMatchesAlgorithmOne proves the lexicographic sort and the
// literal recursive Algorithm 1 produce the same execution order.
func TestSortMatchesAlgorithmOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trials := randomTrials(rng, 50, 6, 3, 4)
		a := Sort(trials)
		b := algorithmOne(trials)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			// Orders must agree on injection sequences; equal trials may
			// permute among themselves (both sorts are stable, so even
			// IDs must agree).
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSortDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := randomTrials(rng, 20, 5, 2, 3)
	ids := make([]int, len(trials))
	for i, tr := range trials {
		ids[i] = tr.ID
	}
	Sort(trials)
	for i, tr := range trials {
		if tr.ID != ids[i] {
			t.Fatal("Sort mutated its input")
		}
	}
}

// TestSortMaximizesConsecutiveSharing: the paper's ordering objective —
// for every pair of consecutive trials in sorted order, no other
// permutation places a trial with a strictly longer shared prefix next to
// the earlier one without breaking another pair. We check a weaker but
// meaningful invariant: each trial's shared layers with its sorted
// successor is at least its shared layers with every LATER trial in the
// order (lexicographic order makes sharing monotonically "peak at the
// neighbor").
func TestSortNeighborSharingDominatesLaterTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trials := Sort(randomTrials(rng, 60, 8, 3, 3))
	for i := 0; i < len(trials)-1; i++ {
		next, _ := trial.SharedLayers(trials[i], trials[i+1])
		for j := i + 2; j < len(trials); j++ {
			later, _ := trial.SharedLayers(trials[i], trials[j])
			if later > next {
				t.Fatalf("trial %d shares %d layers with neighbor but %d with later trial %d",
					i, next, later, j)
			}
		}
	}
}

func TestBuildPlanEmptyTrials(t *testing.T) {
	if _, err := BuildPlan(chain(3), nil); err == nil {
		t.Error("empty trial set accepted")
	}
}

func TestBuildPlanRejectsOutOfRangeLayer(t *testing.T) {
	c := chain(2)
	bad := []*trial.Trial{mkTrial(0, trial.Injection{Layer: 5, Qubit: 0, Op: gate.PauliX})}
	if _, err := BuildPlan(c, bad); err == nil {
		t.Error("out-of-range injection layer accepted")
	}
}

func TestPlanCleanTrialsOnly(t *testing.T) {
	c := chain(4) // 4 layers x 2 gates = 8 gates
	trials := []*trial.Trial{mkTrial(0), mkTrial(1), mkTrial(2)}
	p, err := BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a := p.Analysis()
	if a.OptimizedOps != 8 {
		t.Errorf("optimized ops = %d, want 8 (one pass)", a.OptimizedOps)
	}
	if a.BaselineOps != 24 {
		t.Errorf("baseline ops = %d, want 24", a.BaselineOps)
	}
	if a.MSV != 0 {
		t.Errorf("MSV = %d, want 0", a.MSV)
	}
}

// TestPlanFigure2 reproduces the paper's Figure 2 walkthrough: three
// single-error trials with errors in layers 0, 1, 2 plus the error-free
// trial; the optimized order needs exactly one stored state vector.
func TestPlanFigure2(t *testing.T) {
	c := chain(3) // 3 layers, 2 gates each
	trials := []*trial.Trial{
		mkTrial(1, trial.Injection{Layer: 2, Qubit: 0, Op: gate.PauliX}), // paper's trial 1
		mkTrial(2, trial.Injection{Layer: 1, Qubit: 0, Op: gate.PauliX}), // trial 2
		mkTrial(3, trial.Injection{Layer: 0, Qubit: 0, Op: gate.PauliX}), // trial 3
		mkTrial(0), // error-free
	}
	p, err := BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Optimized order: first-error layer ascending, clean last.
	wantOrder := []int{3, 2, 1, 0}
	for i, tr := range p.Order {
		if tr.ID != wantOrder[i] {
			t.Errorf("order[%d] = t%d, want t%d", i, tr.ID, wantOrder[i])
		}
	}
	if p.MSV() != 1 {
		t.Errorf("MSV = %d, want 1 (the paper's walkthrough)", p.MSV())
	}
	// Cost: shared frontier runs the 3 layers once (6 ops) + 3 injected
	// Paulis + each error trial finishes the remaining layers:
	// t3: layers 1,2 after inject (4 ops), t2: layer 2 (2 ops), t1: 0 ops.
	wantOps := int64(6 + 3 + 4 + 2)
	if p.OptimizedOps() != wantOps {
		t.Errorf("optimized ops = %d, want %d", p.OptimizedOps(), wantOps)
	}
	wantBase := int64(4*6 + 3)
	if p.BaselineOps() != wantBase {
		t.Errorf("baseline ops = %d, want %d", p.BaselineOps(), wantBase)
	}
}

// TestPlanInefficientOrderComparison verifies the Figure 2(b) claim: the
// straight order 1,2,3 needs two stored states, the optimized order one.
// Our builder always uses the optimized order; we simulate the inefficient
// one by checking that reversing the optimal order would need 2 snapshots
// (computed by a tiny reference executor over shared-layer structure).
func TestPlanInefficientOrderComparison(t *testing.T) {
	trials := []*trial.Trial{
		mkTrial(1, trial.Injection{Layer: 2, Qubit: 0, Op: gate.PauliX}),
		mkTrial(2, trial.Injection{Layer: 1, Qubit: 0, Op: gate.PauliX}),
		mkTrial(3, trial.Injection{Layer: 0, Qubit: 0, Op: gate.PauliX}),
	}
	// In order 1,2,3 the executor must hold states S1 and S2
	// simultaneously while running trial 1: sharedLayers(1,2)=1 requires
	// a snapshot after layer 0... after layer 1; sharedLayers(1,3)=0
	// requires the layer-0... both pending at once -> 2 snapshots.
	// Reference count: snapshots needed = distinct shared-layer depths
	// pending across the remaining sequence.
	s12, _ := trial.SharedLayers(trials[0], trials[1])
	s13, _ := trial.SharedLayers(trials[0], trials[2])
	if s12 != 1 || s13 != 0 {
		t.Fatalf("shared layers = %d,%d, want 1,0", s12, s13)
	}
	// Optimized order needs 1 (proved in TestPlanFigure2); the
	// inefficient order provably needs 2 distinct live snapshots.
	distinct := map[int]bool{s12: true, s13: true}
	if len(distinct) != 2 {
		t.Fatal("inefficient order should require 2 stored states")
	}
}

func TestPlanDuplicateTrialsShareEverything(t *testing.T) {
	c := chain(5)
	inj := trial.Injection{Layer: 2, Qubit: 1, Op: gate.PauliZ}
	trials := []*trial.Trial{mkTrial(0, inj), mkTrial(1, inj), mkTrial(2, inj)}
	p, err := BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// One full pass (10 gates) + 1 injection; duplicates free.
	if p.OptimizedOps() != 11 {
		t.Errorf("optimized ops = %d, want 11", p.OptimizedOps())
	}
	if p.MSV() != 0 {
		t.Errorf("MSV = %d, want 0", p.MSV())
	}
	// All three trials emitted by a single Emit step.
	emits := 0
	for _, s := range p.Steps {
		if s.Kind == StepEmit {
			emits++
			if s.To-s.From != 3 {
				t.Errorf("emit carries %d trials, want 3", s.To-s.From)
			}
		}
	}
	if emits != 1 {
		t.Errorf("emit steps = %d, want 1", emits)
	}
}

func TestPlanValidateOnRandomSets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 3 + rng.Intn(6)
		c := chain(layers)
		trials := randomTrials(rng, 1+rng.Intn(80), layers, 2, 4)
		p, err := BuildPlan(c, trials)
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestOptimizedNeverExceedsBaseline: the scheme only removes work.
func TestOptimizedNeverExceedsBaselineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 2 + rng.Intn(8)
		c := chain(layers)
		trials := randomTrials(rng, 1+rng.Intn(100), layers, 2, 5)
		a, err := Analyze(c, trials)
		if err != nil {
			return false
		}
		return a.OptimizedOps <= a.BaselineOps && a.Normalized <= 1+1e-12 && a.MSV >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMSVBoundedBySharedErrorDepth: the paper argues MSV equals the
// reorder recursion depth, bounded by the maximal number of leading
// injections shared between consecutive distinct trials plus one.
func TestMSVBoundedBySharedErrorDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := chain(8)
	trials := randomTrials(rng, 200, 8, 2, 5)
	p, err := BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	// Upper bound: deepest number of shared leading injections between
	// consecutive sorted trials, plus one.
	maxShared := 0
	for i := 0; i+1 < len(p.Order); i++ {
		a, b := p.Order[i], p.Order[i+1]
		n := len(a.Inj)
		if len(b.Inj) < n {
			n = len(b.Inj)
		}
		s := 0
		for s < n && a.Inj[s] == b.Inj[s] {
			s++
		}
		if s > maxShared && trial.Compare(a, b) != 0 {
			maxShared = s
		}
	}
	if p.MSV() > maxShared+1 {
		t.Errorf("MSV %d exceeds shared-error depth bound %d", p.MSV(), maxShared+1)
	}
}

// TestMoreTrialsNeverLowerSaving mirrors the paper's observation that
// savings grow with the number of trials (more overlap is found).
func TestMoreTrialsImproveSaving(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-3, 1e-2, 1e-2)
	gen, err := trial.NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	prev := math.Inf(1)
	for _, n := range []int{256, 1024, 4096} {
		trials := gen.Generate(rng, n)
		a, err := Analyze(c, trials)
		if err != nil {
			t.Fatal(err)
		}
		if a.Normalized > prev+0.02 { // allow small sampling noise
			t.Errorf("normalized computation rose from %g to %g at %d trials", prev, a.Normalized, n)
		}
		prev = a.Normalized
	}
}

// TestLowerErrorRateImprovesSaving mirrors Figure 7's trend.
func TestLowerErrorRateImprovesSaving(t *testing.T) {
	c := bench.QFT(4)
	gen := func(p1 float64) float64 {
		m := noise.Uniform("u", 4, p1, 10*p1, 10*p1)
		g, err := trial.NewGenerator(c, m)
		if err != nil {
			t.Fatal(err)
		}
		trials := g.Generate(rand.New(rand.NewSource(11)), 2000)
		a, err := Analyze(c, trials)
		if err != nil {
			t.Fatal(err)
		}
		return a.Normalized
	}
	hi := gen(1e-2)
	lo := gen(1e-4)
	if lo >= hi {
		t.Errorf("lower error rate should lower normalized computation: %g vs %g", lo, hi)
	}
}

// TestYorktownBenchmarkSavings sanity-checks the headline claim on a real
// benchmark: BV on Yorktown with 1024 trials should save well over half
// the computation with a small MSV.
func TestYorktownBenchmarkSavings(t *testing.T) {
	d := device.Yorktown()
	c := bench.BV(5, 0b1111)
	g, err := trial.NewGenerator(c, d.Model())
	if err != nil {
		t.Fatal(err)
	}
	trials := g.Generate(rand.New(rand.NewSource(12)), 1024)
	a, err := Analyze(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	if a.Saving < 0.5 {
		t.Errorf("saving = %g, expected > 0.5 on bv5/Yorktown", a.Saving)
	}
	if a.MSV > 8 {
		t.Errorf("MSV = %d, expected small", a.MSV)
	}
}

func TestStepKindString(t *testing.T) {
	names := map[StepKind]string{
		StepAdvance: "advance", StepPush: "push", StepInject: "inject",
		StepEmit: "emit", StepPop: "pop",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("StepKind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestGatesInLayers(t *testing.T) {
	c := chain(4)
	p, err := BuildPlan(c, []*trial.Trial{mkTrial(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.GatesInLayers(0, 4); got != 8 {
		t.Errorf("GatesInLayers(0,4) = %d, want 8", got)
	}
	if got := p.GatesInLayers(1, 3); got != 4 {
		t.Errorf("GatesInLayers(1,3) = %d, want 4", got)
	}
}

// TestAnalyzeMatchesBuildPlan proves the streaming analyzer reports
// exactly the metrics of the step-materializing plan builder.
func TestAnalyzeMatchesBuildPlan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 2 + rng.Intn(8)
		c := chain(layers)
		trials := randomTrials(rng, 1+rng.Intn(120), layers, 2, 5)
		a, err := Analyze(c, trials)
		if err != nil {
			return false
		}
		p, err := BuildPlan(c, trials)
		if err != nil {
			return false
		}
		return a == p.Analysis()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAnalyzeCappedExtremes: cap 0 reproduces the baseline exactly; a huge
// cap reproduces the full analysis; savings are monotone in the cap.
func TestAnalyzeCappedExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := chain(8)
	trials := randomTrials(rng, 150, 8, 2, 5)
	full, err := Analyze(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := AnalyzeCapped(c, trials, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.OptimizedOps != zero.BaselineOps {
		t.Errorf("cap 0 ops = %d, want baseline %d", zero.OptimizedOps, zero.BaselineOps)
	}
	if zero.MSV != 0 {
		t.Errorf("cap 0 MSV = %d, want 0", zero.MSV)
	}
	huge, err := AnalyzeCapped(c, trials, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if huge != full {
		t.Errorf("huge cap differs from full analysis: %+v vs %+v", huge, full)
	}
	prev := zero.OptimizedOps
	for cap := 1; cap <= 6; cap++ {
		a, err := AnalyzeCapped(c, trials, cap)
		if err != nil {
			t.Fatal(err)
		}
		if a.OptimizedOps > prev {
			t.Errorf("cap %d ops %d exceed cap %d ops %d", cap, a.OptimizedOps, cap-1, prev)
		}
		prev = a.OptimizedOps
	}
}

// TestBudgetedPlanInvariants: under any snapshot budget the plan stays
// valid, never stores more than the budget, and costs between the full
// plan and the baseline; an unlimited budget reproduces BuildPlan.
func TestBudgetedPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := chain(8)
	trials := randomTrials(rng, 200, 8, 2, 5)
	full, err := BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	for budget := 0; budget <= full.MSV()+1; budget++ {
		p, err := BuildPlanBudget(c, trials, budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if p.MSV() > budget {
			t.Errorf("budget %d: MSV %d exceeds budget", budget, p.MSV())
		}
		if p.OptimizedOps() < full.OptimizedOps() {
			t.Errorf("budget %d: ops %d below full plan's %d", budget, p.OptimizedOps(), full.OptimizedOps())
		}
		if p.OptimizedOps() > p.BaselineOps() {
			t.Errorf("budget %d: ops %d exceed baseline %d", budget, p.OptimizedOps(), p.BaselineOps())
		}
	}
	unlimited, err := BuildPlanBudget(c, trials, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.Analysis() != full.Analysis() {
		t.Error("unlimited budget differs from BuildPlan")
	}
	if _, err := BuildPlanBudget(c, trials, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestBudgetedOpsMonotoneInBudget: more memory never costs more compute.
func TestBudgetedOpsMonotoneInBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 3 + rng.Intn(6)
		c := chain(layers)
		trials := randomTrials(rng, 1+rng.Intn(80), layers, 2, 4)
		prev := int64(-1)
		for budget := 5; budget >= 0; budget-- {
			p, err := BuildPlanBudget(c, trials, budget)
			if err != nil {
				return false
			}
			if err := p.Validate(); err != nil {
				return false
			}
			if prev >= 0 && p.OptimizedOps() < prev {
				return false // shrinking budget must not reduce cost
			}
			prev = p.OptimizedOps()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPlanDump(t *testing.T) {
	c := chain(3)
	trials := []*trial.Trial{
		mkTrial(0, trial.Injection{Layer: 1, Qubit: 0, Op: gate.PauliX}),
		mkTrial(1),
	}
	p, err := BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := p.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"advance", "push", "inject X q0", "emit t0", "emit t1", "pop", "[1]", "[0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestBuildPlanAllocsIndependentOfTrials: building a plan allocates the
// same number of times at 256 and 4,096 trials. Emits name a range of
// the order instead of a slice of indices, Steps is allocated once at
// its exact size, and the builder's prefix and stack are sized once.
func TestBuildPlanAllocsIndependentOfTrials(t *testing.T) {
	// A collection cycle triggered by the multi-MB step slice can count
	// runtime allocations of its own; count only the builder's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		c, trials := benchTrials(t, "qv_n5d5", n, 5)
		ordered := Sort(trials)
		return testing.AllocsPerRun(5, func() {
			if _, err := BuildPlanOrdered(c, ordered); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(256), allocs(4096); small != large {
		t.Errorf("BuildPlanOrdered allocates %.0f times at 256 trials, %.0f at 4096", small, large)
	}
}

// TestPlanStepsExactSize: an unbudgeted plan's Steps is allocated once,
// at exactly the size the order scan counts, on the golden jobs and on
// random sets full of duplicates and shared prefixes.
func TestPlanStepsExactSize(t *testing.T) {
	check := func(label string, c *circuit.Circuit, trials []*trial.Trial) {
		t.Helper()
		p, err := BuildPlan(c, trials)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(p.Steps) != cap(p.Steps) {
			t.Fatalf("%s: %d steps in a slice of capacity %d", label, len(p.Steps), cap(p.Steps))
		}
	}
	for _, job := range goldenJobs(t) {
		check(fmt.Sprintf("%s seed %d", job.name, job.seed), job.c, job.trials)
	}
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 200; round++ {
		check(fmt.Sprintf("random set %d", round), chain(12), randTrialSet(rng, 1+rng.Intn(300)))
	}
}

// TestStepIsFlat pins the plan step at 16 bytes or less: executors stream
// through several steps per trial.
func TestStepIsFlat(t *testing.T) {
	if sz := unsafe.Sizeof(Step{}); sz > 16 {
		t.Errorf("Step is %d bytes, want <= 16", sz)
	}
}

// TestCheckStepRange: a trial or layer count past math.MaxInt32 is an
// error, never a truncated step field; the largest counts that fit pass.
func TestCheckStepRange(t *testing.T) {
	for _, tc := range []struct {
		trials, layers int
		ok             bool
	}{
		{1, 1, true},
		{math.MaxInt32, math.MaxInt32, true},
		{math.MaxInt32 + 1, 1, false},
		{1, math.MaxInt32 + 1, false},
		{math.MaxInt, math.MaxInt, false},
	} {
		err := checkStepRange(tc.trials, tc.layers)
		if (err == nil) != tc.ok {
			t.Errorf("checkStepRange(%d, %d) = %v, want ok %v", tc.trials, tc.layers, err, tc.ok)
		}
	}
}

// TestValidateRejectsBadEmitRange: Plan.Validate and SplitPlan.Validate
// reject an Emit whose trial range is empty or leaves the order.
func TestValidateRejectsBadEmitRange(t *testing.T) {
	c, trials := benchTrials(t, "bv5", 300, 9)
	bad := map[string]func(s *Step, n int){
		"empty":        func(s *Step, n int) { s.To = s.From },
		"reversed":     func(s *Step, n int) { s.From, s.To = s.To, s.From },
		"negative":     func(s *Step, n int) { s.From = -1 },
		"past the end": func(s *Step, n int) { s.To = int32(n) + 1 },
	}
	lastEmit := func(steps []Step) *Step {
		for i := len(steps) - 1; i >= 0; i-- {
			if steps[i].Kind == StepEmit {
				return &steps[i]
			}
		}
		t.Fatal("no emit step")
		return nil
	}
	for name, corrupt := range bad {
		p, err := BuildPlan(c, trials)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(lastEmit(p.Steps), len(p.Order))
		if err := p.Validate(); err == nil {
			t.Errorf("Plan.Validate accepts an emit range that is %s", name)
		}

		sp, err := SplitPlanCut(c, trials, 2, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		st := sp.Subtrees[len(sp.Subtrees)-1]
		corrupt(lastEmit(st.Steps), len(sp.Order))
		if err := sp.Validate(); err == nil {
			t.Errorf("SplitPlan.Validate accepts an emit range that is %s", name)
		}
	}
}
