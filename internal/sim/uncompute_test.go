package sim

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/statevec"
)

// policyCircuits are the shared workloads for the restore-policy tests:
// real benchmark circuits whose gates are NOT exactly invertible (H,
// rotations), so exact-mode rollbacks exercise the replay path, plus a
// permutation-only circuit that exercises true reverse execution on the
// bit-exact path.
func policyCircuits() map[string]*circuit.Circuit {
	return map[string]*circuit.Circuit{
		"qft3":   bench.QFT(3),
		"grover": bench.Grover3(),
		"bv4":    bench.BV(4, 0b101),
	}
}

func outcomesAndStatesIdentical(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if !EqualOutcomes(want, got) {
		t.Fatalf("%s: outcomes differ", name)
	}
	for id, ws := range want.FinalStates {
		gs := got.FinalStates[id]
		if gs == nil {
			t.Fatalf("%s: missing final state for trial %d", name, id)
		}
		wa, ga := ws.Amplitudes(), gs.Amplitudes()
		for i := range wa {
			if math.Float64bits(real(wa[i])) != math.Float64bits(real(ga[i])) ||
				math.Float64bits(imag(wa[i])) != math.Float64bits(imag(ga[i])) {
				t.Fatalf("%s: trial %d amplitude %d not bit-identical", name, id, i)
			}
		}
	}
}

// TestPolicyBitIdenticalOutcomes: uncompute and adaptive executions must
// reproduce the snapshot executor's outcomes and final states
// Float64bits-identical, across budgets, on the compiled FuseOff program
// (the bit-exact path).
func TestPolicyBitIdenticalOutcomes(t *testing.T) {
	for name, c := range policyCircuits() {
		m := noise.Uniform("u", c.NumQubits(), 5e-3, 5e-2, 2e-2)
		trials := genTrials(t, c, m, 200, 11)
		ref, err := Reordered(c, trials, Options{KeepStates: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 1, 2} {
			for _, pol := range []RestorePolicy{PolicyUncompute, PolicyAdaptive} {
				opt := Options{KeepStates: true, SnapshotBudget: budget, Policy: pol}
				res, err := Reordered(c, trials, opt)
				if err != nil {
					t.Fatalf("%s %v budget %d: %v", name, pol, budget, err)
				}
				outcomesAndStatesIdentical(t, name, ref, res)
			}
		}
	}
}

// TestPolicyUncomputeZeroSnapshots: the pure-uncompute policy stores
// nothing — no snapshot pushes, zero MSV, zero copies — on a sequential
// plan execution.
func TestPolicyUncomputeZeroSnapshots(t *testing.T) {
	c := bench.QFT(3)
	m := noise.Uniform("u", 3, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 13)
	met := obs.NewMetrics()
	res, err := Reordered(c, trials, Options{Policy: PolicyUncompute, Recorder: met})
	if err != nil {
		t.Fatal(err)
	}
	if res.MSV != 0 {
		t.Errorf("PolicyUncompute MSV = %d, want 0", res.MSV)
	}
	if res.Copies != 0 {
		t.Errorf("PolicyUncompute copies = %d, want 0", res.Copies)
	}
	if got := met.Counter(obs.SnapshotPushes); got != 0 {
		t.Errorf("snapshot_pushes = %d, want 0", got)
	}
	if got := met.Counter(obs.PolicySnapshotDecisions); got != 0 {
		t.Errorf("policy_snapshot decisions = %d, want 0", got)
	}
	if got := met.Counter(obs.PolicyUncomputeDecisions); got == 0 {
		t.Error("policy_uncompute decisions = 0, want > 0")
	}
}

// TestAdaptiveOpsMonotoneInBudget: under PolicyAdaptive, total executed
// work (forward + uncompute) never increases as the snapshot budget
// grows — more stored frames can only shorten rollbacks.
func TestAdaptiveOpsMonotoneInBudget(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 400, 17)
	var prev int64 = math.MaxInt64
	for _, budget := range []int{1, 2, 3, 4, 6, 0} { // 0 = unlimited, the loosest
		res, err := Reordered(c, trials, Options{Policy: PolicyAdaptive, SnapshotBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		total := res.Ops + res.UncomputeOps
		if total > prev {
			t.Errorf("budget %d: total ops %d > previous (tighter) budget's %d", budget, total, prev)
		}
		prev = total
	}
}

// TestAdaptiveNeverWorseThanFixed: for any budget, adaptive total work is
// bounded by the pure-uncompute policy's (they see identical branch
// points; adaptive only replaces rollbacks with snapshot adoption).
func TestAdaptiveNeverWorseThanFixed(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 19)
	unc, err := Reordered(c, trials, Options{Policy: PolicyUncompute, Fuse: statevec.FuseNumeric})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 2, 0} {
		ada, err := Reordered(c, trials, Options{Policy: PolicyAdaptive, SnapshotBudget: budget, Fuse: statevec.FuseNumeric})
		if err != nil {
			t.Fatal(err)
		}
		if ada.Ops+ada.UncomputeOps > unc.Ops+unc.UncomputeOps {
			t.Errorf("budget %d: adaptive total %d > uncompute total %d",
				budget, ada.Ops+ada.UncomputeOps, unc.Ops+unc.UncomputeOps)
		}
	}
}

// TestPolicyDecisionsReproducible: policy decision counts are a pure
// function of the workload — two identical runs record identical
// decision counters.
func TestPolicyDecisionsReproducible(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 23)
	counts := func() (int64, int64) {
		met := obs.NewMetrics()
		if _, err := Reordered(c, trials, Options{Policy: PolicyAdaptive, SnapshotBudget: 2, Recorder: met}); err != nil {
			t.Fatal(err)
		}
		return met.Counter(obs.PolicySnapshotDecisions), met.Counter(obs.PolicyUncomputeDecisions)
	}
	s1, u1 := counts()
	s2, u2 := counts()
	if s1 != s2 || u1 != u2 {
		t.Errorf("decision counts not reproducible: (%d,%d) vs (%d,%d)", s1, u1, s2, u2)
	}
	if s1+u1 == 0 {
		t.Error("workload produced no branch points — test is vacuous")
	}
}

// TestUncomputeAccountingSeparate: reverse ops are reported in
// UncomputeOps, never in Ops. Under FuseNumeric every rollback
// reverse-executes, so the forward count equals the unbudgeted plan's
// OptimizedOps exactly; legacy snapshot executions report zero
// uncompute ops.
func TestUncomputeAccountingSeparate(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 400, 29)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	res, err := Reordered(c, trials, Options{Policy: PolicyUncompute, Fuse: statevec.FuseNumeric, Recorder: met})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != plan.OptimizedOps() {
		t.Errorf("numeric uncompute forward ops = %d, want plan's %d", res.Ops, plan.OptimizedOps())
	}
	if res.UncomputeOps == 0 {
		t.Error("numeric uncompute executed zero reverse ops — test is vacuous")
	}
	if got := met.Counter(obs.UncomputeOps); got != res.UncomputeOps {
		t.Errorf("uncompute_ops counter %d != result %d", got, res.UncomputeOps)
	}
	if got := met.Counter(obs.Ops); got != res.Ops {
		t.Errorf("ops counter %d != result %d", got, res.Ops)
	}

	// Legacy snapshot executors never uncompute.
	for name, run := range map[string]func() (*Result, error){
		"plan":    func() (*Result, error) { return Reordered(c, trials, Options{}) },
		"subtree": func() (*Result, error) { return ParallelSubtree(c, trials, 2, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.UncomputeOps != 0 {
			t.Errorf("%s: UncomputeOps = %d, want 0", name, res.UncomputeOps)
		}
	}
}

// TestPolicyParallelExecutors: the policy threads through the subtree
// executor — outcomes stay bit-identical to the sequential
// snapshot reference, and pure uncompute keeps snapshot_pushes at 0 at
// every worker count.
func TestPolicyParallelExecutors(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 31)
	ref, err := Reordered(c, trials, Options{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		for _, pol := range []RestorePolicy{PolicyUncompute, PolicyAdaptive} {
			met := obs.NewMetrics()
			opt := Options{KeepStates: true, Policy: pol, SnapshotBudget: 1, Recorder: met}
			sub, err := ParallelSubtree(c, trials, workers, opt)
			if err != nil {
				t.Fatalf("subtree %d %v: %v", workers, pol, err)
			}
			outcomesAndStatesIdentical(t, "subtree", ref, sub)
			if pol == PolicyUncompute {
				if got := met.Counter(obs.SnapshotPushes); got != 0 {
					t.Errorf("subtree %dw uncompute: snapshot_pushes = %d, want 0", workers, got)
				}
			}
		}
	}
}

// observeCapture records every Observe call for one histogram.
type observeCapture struct {
	mu   sync.Mutex
	hist obs.Hist
	vals []int64
}

func (o *observeCapture) Add(obs.Counter, int64)             {}
func (o *observeCapture) SetMax(obs.Gauge, int64)            {}
func (o *observeCapture) PhaseDone(obs.Phase, time.Duration) {}
func (o *observeCapture) Merge(*obs.Tally)                   {}
func (o *observeCapture) Observe(h obs.Hist, v int64) {
	if h != o.hist {
		return
	}
	o.mu.Lock()
	o.vals = append(o.vals, v)
	o.mu.Unlock()
}

// TestBranchRollbackOpsAgreement: the planner's static per-branch
// rollback costs (reorder.BranchRollbackOps) must match the uncompute
// executor's measured rollback segments exactly. FuseNumeric makes every
// rollback a reverse execution, so the captured uncompute_depth
// observations are the dynamic counterpart of the static values.
func TestBranchRollbackOpsAgreement(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 400, 37)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	static := plan.BranchRollbackOps()
	if int64(len(static)) != plan.Copies() {
		t.Fatalf("BranchRollbackOps returned %d entries, plan has %d pushes", len(static), plan.Copies())
	}
	cap := &observeCapture{hist: obs.HistUncomputeDepth}
	res, err := ExecutePlan(c, plan, Options{Policy: PolicyUncompute, Fuse: statevec.FuseNumeric, Recorder: cap})
	if err != nil {
		t.Fatal(err)
	}
	var wantVals []int64
	var sum int64
	for _, v := range static {
		sum += v
		if v > 0 {
			wantVals = append(wantVals, v)
		}
	}
	if res.UncomputeOps != sum {
		t.Errorf("total uncompute ops %d != static sum %d", res.UncomputeOps, sum)
	}
	got := append([]int64(nil), cap.vals...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(wantVals, func(i, j int) bool { return wantVals[i] < wantVals[j] })
	if len(got) != len(wantVals) {
		t.Fatalf("measured %d rollback segments, static predicts %d", len(got), len(wantVals))
	}
	for i := range got {
		if got[i] != wantVals[i] {
			t.Fatalf("rollback size multiset differs at %d: measured %d, static %d", i, got[i], wantVals[i])
		}
	}
}

// TestSamplerMemProbe: the probe reports pressure iff the sampler's most
// recent heap sample exceeds the limit, and an adaptive run under
// constant pressure keeps at most two real frames per component.
func TestSamplerMemProbe(t *testing.T) {
	if probe := SamplerMemProbe(nil, 0); probe() {
		t.Error("nil sampler must report no pressure")
	}
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 1e-2)
	trials := genTrials(t, c, m, 300, 41)
	pressured := Options{
		Policy:   PolicyAdaptive,
		MemProbe: func() bool { return true },
	}
	res, err := Reordered(c, trials, pressured)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSV > 2 {
		t.Errorf("adaptive under constant pressure stored %d frames, want <= 2", res.MSV)
	}
	ref, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualOutcomes(ref, res) {
		t.Error("outcomes differ under memory pressure")
	}
}
