package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/statevec"
)

// cliffordChain returns an n-qubit Clifford circuit: layered H/S/CX with a
// GHZ-like backbone, measured on all qubits.
func cliffordChain(n, depth int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("clifford", n)
	for d := 0; d < depth; d++ {
		for q := 0; q < n; q++ {
			switch rng.Intn(3) {
			case 0:
				c.Append(gate.H(), q)
			case 1:
				c.Append(gate.S(), q)
			default:
				c.Append(gate.Z(), q)
			}
		}
		for q := d % 2; q+1 < n; q += 2 {
			c.Append(gate.CX(), q, q+1)
		}
	}
	c.MeasureAll()
	return c
}

// TestTableauBaselineMatchesReordered runs one Clifford workload's
// unbudgeted plan and its budget 0, 1 and 2 plans on the tableau: every
// plan reproduces the baseline's outcomes and is held to the contract
// the state-vector executors meet (ops and MSV as the plan states them,
// copies as ExecutePlan performs them on the same plan).
func TestTableauBaselineMatchesReordered(t *testing.T) {
	c := cliffordChain(6, 8, 41)
	m := noise.Uniform("u", 6, 5e-3, 3e-2, 1e-2)
	trials := genTrials(t, c, m, 400, 42)
	base, err := BaselineTableau(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{-1, 0, 1, 2} {
		var plan *reorder.Plan
		if budget < 0 {
			plan, err = reorder.BuildPlan(c, trials)
		} else {
			plan, err = reorder.BuildPlanBudget(c, trials, budget)
		}
		if err != nil {
			t.Fatal(err)
		}
		reord, err := ExecutePlanTableau(c, plan)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		sv, err := ExecutePlan(c, plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !EqualOutcomes(base, reord) {
			t.Errorf("budget %d: tableau baseline and reordered disagree", budget)
		}
		if reord.Ops >= base.Ops {
			t.Errorf("budget %d: tableau reordering saved nothing: %d vs %d", budget, reord.Ops, base.Ops)
		}
		if reord.Ops != plan.OptimizedOps() || reord.MSV != plan.MSV() || reord.Copies != sv.Copies {
			t.Errorf("budget %d: ops %d, MSV %d, copies %d; plan says ops %d, MSV %d, ExecutePlan copied %d",
				budget, reord.Ops, reord.MSV, reord.Copies, plan.OptimizedOps(), plan.MSV(), sv.Copies)
		}
		t.Logf("budget %d: ops %d, MSV %d, copies %d", budget, reord.Ops, reord.MSV, reord.Copies)
	}
}

// TestTableauDistributionMatchesStateVector compares the noisy output
// distributions of the two backends on the same Clifford circuit (same
// trials, different sampling randomness, so distribution-level agreement).
func TestTableauDistributionMatchesStateVector(t *testing.T) {
	c := cliffordChain(4, 5, 43)
	m := noise.Uniform("u", 4, 1e-2, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 30000, 44)

	sv, err := Reordered(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ExecutePlanTableau(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	svd, tabd := sv.Distribution(), tab.Distribution()
	var tv float64
	seen := map[uint64]bool{}
	for k := range svd {
		seen[k] = true
	}
	for k := range tabd {
		seen[k] = true
	}
	for k := range seen {
		tv += math.Abs(svd[k] - tabd[k])
	}
	if tv/2 > 0.03 {
		t.Errorf("backends disagree in distribution: TV = %g", tv/2)
	}
}

// TestTableauWideNoisySimulation runs noisy simulation at 80 qubits — a
// width where a single state vector would need 19 ZB — demonstrating the
// reordering scheme on the stabilizer backend.
func TestTableauWideNoisySimulation(t *testing.T) {
	const n = 80
	c := cliffordChain(n, 4, 45)
	m := noise.Uniform("u", n, 1e-3, 1e-2, 1e-2)
	// Only 60 measured bits fit the mask; measure the first 60 qubits.
	c2 := circuit.New("wide", n)
	for _, op := range c.Ops() {
		c2.Append(op.Gate, op.Qubits...)
	}
	for q := 0; q < 60; q++ {
		c2.Measure(q, q)
	}
	trials := genTrials(t, c2, m, 200, 46)
	plan, err := reorder.BuildPlan(c2, trials)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BaselineTableau(c2, trials)
	if err != nil {
		t.Fatal(err)
	}
	reord, err := ExecutePlanTableau(c2, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualOutcomes(base, reord) {
		t.Error("wide tableau simulation equivalence violated")
	}
	saving := 1 - float64(reord.Ops)/float64(base.Ops)
	t.Logf("80-qubit Clifford: %.1f%% ops saved, MSV %d", saving*100, reord.MSV)
	if saving <= 0 {
		t.Error("no saving on wide Clifford circuit")
	}
}

func TestTableauBackendRejectsNonClifford(t *testing.T) {
	c := circuit.New("t", 1)
	c.Append(gate.T(), 0)
	c.Measure(0, 0)
	m := noise.NewModel("clean", 1)
	trials := genTrials(t, c, m, 5, 47)
	if _, err := BaselineTableau(c, trials); err == nil {
		t.Error("non-Clifford circuit accepted by the tableau baseline")
	}
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutePlanTableau(c, plan); err == nil {
		t.Error("non-Clifford circuit accepted by the tableau plan executor")
	}
}

// TestExecutorsRejectCorruptEmitRange: a plan whose last Emit starts
// before the order fails execution with an error, on the state vector
// (dispatch and compiled) and on the tableau, instead of panicking on
// the trial slice.
func TestExecutorsRejectCorruptEmitRange(t *testing.T) {
	c := cliffordChain(5, 6, 7)
	trials := genTrials(t, c, noise.Uniform("u", 5, 5e-3, 3e-2, 1e-2), 200, 8)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(plan.Steps) - 1; i >= 0; i-- {
		if plan.Steps[i].Kind == reorder.StepEmit {
			plan.Steps[i].From = -1
			break
		}
	}
	run := map[string]func() (*Result, error){
		"FuseOff":     func() (*Result, error) { return ExecutePlan(c, plan, Options{Fuse: statevec.FuseOff}) },
		"FuseNumeric": func() (*Result, error) { return ExecutePlan(c, plan, Options{Fuse: statevec.FuseNumeric}) },
		"tableau":     func() (*Result, error) { return ExecutePlanTableau(c, plan) },
	}
	for name, exec := range run {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panics on a corrupt emit range: %v", name, r)
				}
			}()
			if _, err := exec(); err == nil {
				t.Errorf("%s: executes a plan whose emit range starts at -1", name)
			}
		}()
	}
}
