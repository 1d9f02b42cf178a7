package difftest

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trial"
)

// Report summarizes one successful differential check, for logging and
// the golden-file corpus.
type Report struct {
	Workload *Workload
	Stats    trial.Stats
	Analysis reorder.Analysis
	// NaiveOps is the measured baseline op count (== Analysis.BaselineOps,
	// asserted by the engine).
	NaiveOps int64
	// Executors is how many execution paths were cross-checked.
	Executors int
}

// Check generates the workload for a seed and runs the full differential
// check, returning the failing seed inside any error. This is the one
// call the quick tests, the deep tests, and `qsim -selftest` all share.
func Check(seed int64, p Params) (*Report, error) {
	w := Generate(seed, p)
	rep, err := CheckWorkload(w)
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d [%s]: %w", seed, w, err)
	}
	return rep, nil
}

// CheckWorkload runs one workload through naive no-reuse execution and
// every registered executor, asserting the paper's exactness claims:
//
//   - per-trial classical outcomes identical everywhere;
//   - final pre-measurement states bit-identical (not approximately —
//     prefix reuse replays the exact op sequence of naive execution, so
//     even the floating-point rounding must agree);
//   - averaged output distributions identical;
//   - measured op counts equal to the static plan's (sequential and
//     subtree executors);
//   - MSV within the snapshot budget for every executor;
//
// plus the metamorphic properties checkMetamorphic documents. Any
// violation returns an error naming the executor and invariant.
func CheckWorkload(w *Workload) (*Report, error) {
	trials, err := w.GenTrials()
	if err != nil {
		return nil, err
	}
	opt := sim.Options{KeepStates: true, SnapshotBudget: w.Budget}

	// The reference: naive no-reuse execution, as the paper's baseline.
	naive, err := sim.Baseline(w.Circuit, trials, opt)
	if err != nil {
		return nil, fmt.Errorf("naive execution: %w", err)
	}

	// The static plans the measured executions are audited against: the
	// unbudgeted plan is the op-count floor for every executor; the
	// budgeted plan is what the sequential executor must realize exactly.
	freePlan, err := reorder.BuildPlan(w.Circuit, trials)
	if err != nil {
		return nil, fmt.Errorf("BuildPlan: %w", err)
	}
	budPlan := freePlan
	if w.Budget > 0 {
		if budPlan, err = reorder.BuildPlanBudget(w.Circuit, trials, w.Budget); err != nil {
			return nil, fmt.Errorf("BuildPlanBudget(%d): %w", w.Budget, err)
		}
	}
	if err := checkStaticPlans(w, naive, freePlan, budPlan); err != nil {
		return nil, err
	}

	execs := Executors()
	for _, ex := range execs {
		res, err := ex.Run(w.Circuit, trials, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ex.Name, err)
		}
		if err := checkAgainstReference(ex.Name, naive, res, trials); err != nil {
			return nil, err
		}
		if err := checkResourceInvariants(w, ex, res, freePlan, budPlan); err != nil {
			return nil, err
		}
	}

	if err := checkMetamorphic(w, naive, trials, freePlan); err != nil {
		return nil, err
	}

	return &Report{
		Workload:  w,
		Stats:     trial.Summarize(trials),
		Analysis:  budPlan.Analysis(),
		NaiveOps:  naive.Ops,
		Executors: len(execs),
	}, nil
}

// checkStaticPlans audits the static planner itself: structural
// validity, op accounting against the measured baseline, and the
// paper's cost guarantees.
func checkStaticPlans(w *Workload, naive *sim.Result, freePlan, budPlan *reorder.Plan) error {
	if err := freePlan.Validate(); err != nil {
		return fmt.Errorf("unbudgeted plan invalid: %w", err)
	}
	if err := budPlan.Validate(); err != nil {
		return fmt.Errorf("budgeted plan invalid: %w", err)
	}
	// The planner's baseline formula must match what naive execution
	// actually performed.
	if naive.Ops != freePlan.BaselineOps() {
		return fmt.Errorf("naive executed %d ops, static baseline predicts %d", naive.Ops, freePlan.BaselineOps())
	}
	// The core claim of Figure 5: reordering never costs more than the
	// baseline.
	if freePlan.OptimizedOps() > freePlan.BaselineOps() {
		return fmt.Errorf("plan ops %d exceed naive ops %d", freePlan.OptimizedOps(), freePlan.BaselineOps())
	}
	// Budgets trade memory for recomputation, never the reverse.
	if budPlan.OptimizedOps() < freePlan.OptimizedOps() {
		return fmt.Errorf("budgeted plan ops %d beat unbudgeted %d", budPlan.OptimizedOps(), freePlan.OptimizedOps())
	}
	if w.Budget > 0 && budPlan.MSV() > w.Budget {
		return fmt.Errorf("budgeted plan MSV %d exceeds budget %d", budPlan.MSV(), w.Budget)
	}
	// The static analyzer must agree with the materialized plan.
	an, err := reorder.Analyze(w.Circuit, budPlan.Order)
	if w.Budget == 0 {
		if err != nil {
			return fmt.Errorf("Analyze: %w", err)
		}
		if an != budPlan.Analysis() {
			return fmt.Errorf("Analyze disagrees with BuildPlan: %+v vs %+v", an, budPlan.Analysis())
		}
	}
	return nil
}

// checkAgainstReference asserts observable equivalence between the
// reference result and an executor's: per-trial outcomes, bit-identical
// final states, and identical averaged distributions.
func checkAgainstReference(name string, ref, res *sim.Result, trials []*trial.Trial) error {
	if !sim.EqualOutcomes(ref, res) {
		return fmt.Errorf("%s: per-trial outcomes differ from naive execution%s", name, firstOutcomeDiff(ref, res))
	}
	for _, t := range trials {
		rs, ok := ref.FinalStates[t.ID]
		es, ok2 := res.FinalStates[t.ID]
		if !ok || !ok2 {
			return fmt.Errorf("%s: final state missing for trial %d", name, t.ID)
		}
		if !statesBitIdentical(rs, es) {
			return fmt.Errorf("%s: final state of trial %d not bit-identical to naive execution", name, t.ID)
		}
	}
	refDist, resDist := ref.Distribution(), res.Distribution()
	if len(refDist) != len(resDist) {
		return fmt.Errorf("%s: distribution support %d vs naive %d", name, len(resDist), len(refDist))
	}
	for bits, p := range refDist {
		if resDist[bits] != p {
			return fmt.Errorf("%s: distribution differs at %b: %g vs %g", name, bits, resDist[bits], p)
		}
	}
	return nil
}

// checkResourceInvariants asserts the cost guarantees each executor kind
// makes: op-count equality with the sequential plan where the
// decomposition preserves all sharing, bounds everywhere else, and MSV
// within the snapshot budget.
func checkResourceInvariants(w *Workload, ex Executor, res *sim.Result, freePlan, budPlan *reorder.Plan) error {
	if res.Ops < freePlan.OptimizedOps() {
		return fmt.Errorf("%s: %d ops beat the unbudgeted sequential plan's %d", ex.Name, res.Ops, freePlan.OptimizedOps())
	}
	switch ex.Kind {
	case KindPlan:
		// Sequential execution realizes the budgeted static plan exactly.
		if res.Ops != budPlan.OptimizedOps() {
			return fmt.Errorf("%s: executed %d ops, plan predicts %d", ex.Name, res.Ops, budPlan.OptimizedOps())
		}
		if res.MSV != budPlan.MSV() {
			return fmt.Errorf("%s: peak %d stored vectors, plan predicts %d", ex.Name, res.MSV, budPlan.MSV())
		}
		if res.Copies != budPlan.Copies() {
			return fmt.Errorf("%s: %d copies, plan predicts %d", ex.Name, res.Copies, budPlan.Copies())
		}
	case KindSubtree:
		// The trie-cut decomposition preserves every shared prefix: ops
		// equal the sequential plan's at every worker count (unbudgeted;
		// budgets apply per component, so only the floor holds there).
		if w.Budget == 0 && res.Ops != freePlan.OptimizedOps() {
			return fmt.Errorf("%s: executed %d ops, sequential plan has %d (sharing lost)", ex.Name, res.Ops, freePlan.OptimizedOps())
		}
	case KindPlanUncompute:
		// Pure uncomputation stores nothing: every branch point is a
		// journal mark, every return is reverse execution (or, where the
		// suffix is not exactly invertible, a replay from the initial
		// state — still copy-free on the sequential path).
		if res.MSV != 0 {
			return fmt.Errorf("%s: stored %d vectors under PolicyUncompute", ex.Name, res.MSV)
		}
		if res.Copies != 0 {
			return fmt.Errorf("%s: made %d copies under PolicyUncompute", ex.Name, res.Copies)
		}
	case KindPlanAdaptive, KindSubtreePolicy:
		// Bit-identity and the global op floor (checked above) are the
		// contract; the budget bound below caps stored vectors.
	}
	if w.Budget > 0 {
		if bound := msvBound(ex, w.Budget); res.MSV > bound {
			return fmt.Errorf("%s: peak %d stored vectors exceeds budget bound %d (budget %d)", ex.Name, res.MSV, bound, w.Budget)
		}
	}
	return nil
}

// msvBound is the documented stored-vector cap for an executor under a
// snapshot budget b: the sequential executor keeps at most b; the
// subtree executor additionally stores the trunk's stack and up to
// 2*workers queued entry states. PolicyUncompute stores nothing;
// PolicyAdaptive respects b like the budgeted sequential executor.
func msvBound(ex Executor, b int) int {
	switch ex.Kind {
	case KindPlan, KindPlanAdaptive:
		return b
	case KindPlanUncompute:
		return 0
	default:
		return (ex.Workers+1)*b + 2*ex.Workers
	}
}

// checkMetamorphic asserts properties that must hold across input
// transformations:
//
//   - permutation invariance: reordered execution of a shuffled trial
//     slice yields the identical per-trial outcomes and final states
//     (the plan depends only on the trial multiset);
//   - BuildPlanOrdered on the sorted slice is BuildPlan on the raw one:
//     identical steps and metrics;
//   - sorting is idempotent at the plan level.
func checkMetamorphic(w *Workload, naive *sim.Result, trials []*trial.Trial, freePlan *reorder.Plan) error {
	shuffled := append([]*trial.Trial(nil), trials...)
	rand.New(rand.NewSource(w.Seed^0x7065726d)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	res, err := sim.Reordered(w.Circuit, shuffled, sim.Options{KeepStates: true, SnapshotBudget: w.Budget})
	if err != nil {
		return fmt.Errorf("permuted reordered execution: %w", err)
	}
	if err := checkAgainstReference("permuted-plan", naive, res, trials); err != nil {
		return err
	}

	orderedPlan, err := reorder.BuildPlanOrdered(w.Circuit, reorder.Sort(shuffled))
	if err != nil {
		return fmt.Errorf("BuildPlanOrdered: %w", err)
	}
	if err := plansEquivalent(freePlan, orderedPlan); err != nil {
		return fmt.Errorf("BuildPlanOrdered != BuildPlan: %w", err)
	}
	return nil
}

// plansEquivalent asserts two plans are the same schedule: identical
// metrics, identical step sequences, and the same trial-ID order.
func plansEquivalent(a, b *reorder.Plan) error {
	if a.Analysis() != b.Analysis() {
		return fmt.Errorf("metrics differ: %+v vs %+v", a.Analysis(), b.Analysis())
	}
	if len(a.Order) != len(b.Order) {
		return fmt.Errorf("order length %d vs %d", len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		// Distinct trials must agree positionally; duplicated injection
		// sequences may legally swap IDs, so compare the sequences.
		if trial.Compare(a.Order[i], b.Order[i]) != 0 {
			return fmt.Errorf("order differs at %d: %s vs %s", i, a.Order[i], b.Order[i])
		}
	}
	if len(a.Steps) != len(b.Steps) {
		return fmt.Errorf("step count %d vs %d", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			return fmt.Errorf("step %d differs: %+v vs %+v", i, a.Steps[i], b.Steps[i])
		}
	}
	return nil
}

// statesBitIdentical reports exact amplitude equality — the strongest
// form of the paper's equivalence claim. NaN-safe via bit comparison.
func statesBitIdentical(a, b *statevec.State) bool {
	aa, ba := a.Amplitudes(), b.Amplitudes()
	if len(aa) != len(ba) {
		return false
	}
	for i := range aa {
		if math.Float64bits(real(aa[i])) != math.Float64bits(real(ba[i])) ||
			math.Float64bits(imag(aa[i])) != math.Float64bits(imag(ba[i])) {
			return false
		}
	}
	return true
}

// firstOutcomeDiff renders the first differing per-trial outcome, for
// failure messages.
func firstOutcomeDiff(ref, res *sim.Result) string {
	n := len(ref.Outcomes)
	if len(res.Outcomes) < n {
		n = len(res.Outcomes)
	}
	for i := 0; i < n; i++ {
		if ref.Outcomes[i] != res.Outcomes[i] {
			return fmt.Sprintf(" (first diff at trial %d: %b vs %b)",
				ref.Outcomes[i].TrialID, res.Outcomes[i].Bits, ref.Outcomes[i].Bits)
		}
	}
	return fmt.Sprintf(" (outcome count %d vs %d)", len(res.Outcomes), len(ref.Outcomes))
}
