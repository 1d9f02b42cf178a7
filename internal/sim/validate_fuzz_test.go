package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/gate"
	"repro/internal/reorder"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// FuzzValidatedPlanExecutes holds Plan.Validate sound against the
// executor: it mutates one step of a valid plan of a small Yorktown job
// (unbudgeted or under a snapshot budget of 1), and whenever Validate
// accepts the result, ExecutePlan must run it without error, reproduce
// Baseline's outcomes and execute exactly the plan's op count, which
// Validate has recounted from the steps.
func FuzzValidatedPlanExecutes(f *testing.F) {
	c, err := bench.Build("qft4", 1)
	if err != nil {
		f.Fatal(err)
	}
	gen, err := trial.NewGenerator(c, device.Yorktown().Model())
	if err != nil {
		f.Fatal(err)
	}
	trials := gen.Generate(rand.New(rand.NewSource(3)), 96)
	base, err := Baseline(c, trials, Options{})
	if err != nil {
		f.Fatal(err)
	}
	plans := make([]*reorder.Plan, 2)
	for i, budget := range []int{math.MaxInt, 1} {
		if plans[i], err = reorder.BuildPlan(c, trials, budgetOptions(budget)); err != nil {
			f.Fatal(err)
		}
	}
	for mut := range uint8(11) {
		for _, idx := range []uint16{0, 3, 17, 60} {
			f.Add(idx, mut, uint8(idx), idx%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, idx uint16, mut, v uint8, budgeted bool) {
		p := *plans[0]
		if budgeted {
			p = *plans[1]
		}
		steps := slices.Clone(p.Steps)
		i := int(idx) % len(steps)
		s := &steps[i]
		switch mut % 11 {
		case 0:
			s.Kind = reorder.StepKind(v % 8) // 7 is no step kind
		case 1:
			s.From++
		case 2:
			s.From--
		case 3:
			s.To++
		case 4:
			s.To--
		case 5:
			s.Qubit++
		case 6:
			s.Qubit--
		case 7:
			s.Op = gate.Pauli(v % 4) // 3 is no Pauli
		case 8:
			steps = slices.Delete(steps, i, i+1)
		case 9:
			steps = slices.Insert(steps, i, *s)
		case 10:
			if i+1 < len(steps) {
				steps[i], steps[i+1] = steps[i+1], steps[i]
			}
		}
		p.Steps = steps
		if p.Validate() != nil {
			return
		}
		res, err := ExecutePlan(c, &p, Options{Fuse: statevec.FuseOff})
		if err != nil {
			t.Fatalf("validated plan fails to execute: %v", err)
		}
		if !EqualOutcomes(res, base) {
			t.Fatal("validated plan's outcomes differ from Baseline's")
		}
		if res.Ops != p.OptimizedOps() {
			t.Fatalf("validated plan executes %d ops, declares %d", res.Ops, p.OptimizedOps())
		}
	})
}
