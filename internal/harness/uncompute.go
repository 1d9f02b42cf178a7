package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// UncomputeBudgets lists the snapshot budgets the restore-policy
// experiment sweeps, tightest first (0 = unlimited, the paper's scheme).
var UncomputeBudgets = []int{1, 2, 0}

// uncomputePolicies lists the three restore policies in report order.
var uncomputePolicies = []sim.RestorePolicy{
	sim.PolicySnapshot, sim.PolicyUncompute, sim.PolicyAdaptive,
}

// Uncompute compares the three branch-point restore policies on a Quantum
// Volume workload: the paper's snapshot stack, pure reverse execution
// (uncompute), and the adaptive per-branch-point mix, each at a tight, a
// moderate, and an unlimited snapshot budget. QV gates are random SU(4)
// blocks — not exactly invertible — so every policy runs under
// FuseNumeric, where reverse execution applies daggered folded kernels;
// the bit-exact guarantees of the difftest corpus are proven separately
// on the dispatch and exact-fusion paths.
//
// The table shows the memory/op tradeoff the policies span: snapshots pay
// MSV (and, under a tight budget, replay ops) to return to branch points;
// uncompute stores nothing and pays reverse ops instead; adaptive
// snapshots up to the budget and reverses beyond it. The experiment
// asserts the policy design's acceptance criteria on the way:
//
//   - uncompute's MSV never exceeds snapshot's at any budget, and its op
//     overhead is bounded — every journaled op is reversed at most once,
//     so reverse ops never exceed forward ops (at most 2x total work);
//   - adaptive never does more total work than pure uncompute at any
//     budget, and at an unlimited budget it matches the snapshot policy's
//     unbudgeted plan exactly (zero reverse ops).
//
// Under a tight budget the fixed snapshot policy can still win on ops:
// its budgeted plan optimizes replay placement globally at plan-build
// time, while adaptive keeps the unbudgeted plan and decides online —
// the price of honoring a budget that is only known (or changes) at run
// time. The table makes that tradeoff visible instead of hiding it.
func Uncompute(cfg Config) (*Table, error) {
	const qubits, depth, trials = 12, 6, 256
	crng := rand.New(rand.NewSource(cfg.Seed ^ int64(qubits*1000+depth)))
	c := bench.QV(qubits, depth, crng)
	m := noise.Uniform("uncompute-1e-2", qubits, 1e-2, 5e-2, 1e-2)
	gen, err := trial.NewGenerator(c, m)
	if err != nil {
		return nil, fmt.Errorf("harness: uncompute: %v", err)
	}
	trialSet := gen.Generate(rand.New(rand.NewSource(UncomputeSeed(cfg, qubits, depth))), trials)

	t := &Table{
		Title: fmt.Sprintf("Restore policies: snapshot vs uncompute vs adaptive on QV n%d d%d (%d trials, numeric fusion)",
			qubits, depth, trials),
		Header: []string{"policy", "budget", "msv", "copies", "forward ops", "uncompute ops", "total ops", "exec time"},
	}
	results := make(map[sim.RestorePolicy]map[int]*sim.Result)
	for _, pol := range uncomputePolicies {
		results[pol] = make(map[int]*sim.Result)
		for _, b := range UncomputeBudgets {
			entry, rec := cfg.scenario("uncompute", fmt.Sprintf("%s/budget%d", pol, b))
			opt := sim.Options{
				SnapshotBudget: b,
				Policy:         pol,
				Fuse:           statevec.FuseNumeric,
				Recorder:       rec,
			}
			start := time.Now()
			res, err := sim.Reordered(c, trialSet, opt)
			if err != nil {
				return nil, fmt.Errorf("harness: uncompute %s/budget %d: %v", pol, b, err)
			}
			dur := time.Since(start)
			if entry != nil {
				a, err := analyze(c, trialSet, reorder.Options{})
				if err != nil {
					return nil, err
				}
				entry.Plan = planStatics(a)
			}
			results[pol][b] = res
			budgetLabel := fmt.Sprintf("%d", b)
			if b == 0 {
				budgetLabel = "unlimited"
			}
			t.AddRow(pol.String(), budgetLabel,
				fmt.Sprintf("%d", res.MSV), fmt.Sprintf("%d", res.Copies),
				fmt.Sprintf("%d", res.Ops), fmt.Sprintf("%d", res.UncomputeOps),
				fmt.Sprintf("%d", res.Ops+res.UncomputeOps),
				fmtNs(float64(dur.Nanoseconds())))
		}
	}

	// The acceptance criteria documented above, checked on every run.
	total := func(r *sim.Result) int64 { return r.Ops + r.UncomputeOps }
	for _, b := range UncomputeBudgets {
		snap, unc, ada := results[sim.PolicySnapshot][b], results[sim.PolicyUncompute][b], results[sim.PolicyAdaptive][b]
		if unc.MSV > snap.MSV {
			return nil, fmt.Errorf("harness: uncompute MSV %d exceeds snapshot MSV %d at budget %d", unc.MSV, snap.MSV, b)
		}
		if unc.UncomputeOps > unc.Ops {
			return nil, fmt.Errorf("harness: uncompute reversed %d ops for %d forward at budget %d (journaled ops must reverse at most once)",
				unc.UncomputeOps, unc.Ops, b)
		}
		if total(ada) > total(unc) {
			return nil, fmt.Errorf("harness: adaptive total %d ops exceeds pure uncompute's %d at budget %d",
				total(ada), total(unc), b)
		}
	}
	snapFree, adaFree := results[sim.PolicySnapshot][0], results[sim.PolicyAdaptive][0]
	if total(adaFree) != total(snapFree) || adaFree.UncomputeOps != 0 {
		return nil, fmt.Errorf("harness: unbudgeted adaptive did %d+%d ops, snapshot plan has %d (must match exactly)",
			adaFree.Ops, adaFree.UncomputeOps, snapFree.Ops)
	}
	return t, nil
}
