package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/reorder"
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

func TestSVBackendMatchesSpecializedExecutor(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 5e-3, 5e-2, 2e-2)
	trials := genTrials(t, c, m, 300, 40)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ExecutePlan(c, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	generic, err := ExecutePlanBackend(c, plan, NewSVBackend(c.NumQubits()))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualOutcomes(fast, generic) {
		t.Error("generic SV backend disagrees with specialized executor")
	}
	if fast.Ops != generic.Ops || fast.MSV != generic.MSV {
		t.Errorf("accounting differs: ops %d/%d, MSV %d/%d", fast.Ops, generic.Ops, fast.MSV, generic.MSV)
	}
}

func TestTableauBaselineMatchesReordered(t *testing.T) {
	c := cliffordChain(6, 8, 41)
	m := noise.Uniform("u", 6, 5e-3, 3e-2, 1e-2)
	trials := genTrials(t, c, m, 400, 42)
	plan, err := reorder.BuildPlan(c, trials)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BaselineBackend(c, trials, NewTableauBackend(c.NumQubits()))
	if err != nil {
		t.Fatal(err)
	}
	reord, err := ExecutePlanBackend(c, plan, NewTableauBackend(c.NumQubits()))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualOutcomes(base, reord) {
		t.Error("tableau baseline and reordered disagree")
	}
	if reord.Ops >= base.Ops {
		t.Errorf("tableau reordering saved nothing: %d vs %d", reord.Ops, base.Ops)
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
	tab, err := ExecutePlanBackend(c, plan, NewTableauBackend(c.NumQubits()))
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
	base, err := BaselineBackend(c2, trials, NewTableauBackend(n))
	if err != nil {
		t.Fatal(err)
	}
	reord, err := ExecutePlanBackend(c2, plan, NewTableauBackend(n))
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

func TestBackendCopyFromTypeMismatch(t *testing.T) {
	sv := NewSVBackend(2)
	tab := NewTableauBackend(2)
	if err := sv.CopyFrom(tab); err == nil {
		t.Error("cross-type CopyFrom accepted")
	}
	if err := tab.CopyFrom(sv); err == nil {
		t.Error("cross-type CopyFrom accepted")
	}
}

func TestTableauBackendRejectsNonClifford(t *testing.T) {
	c := circuit.New("t", 1)
	c.Append(gate.T(), 0)
	c.Measure(0, 0)
	m := noise.NewModel("clean", 1)
	trials := genTrials(t, c, m, 5, 47)
	if _, err := BaselineBackend(c, trials, NewTableauBackend(1)); err == nil {
		t.Error("non-Clifford circuit accepted on tableau")
	}
}
