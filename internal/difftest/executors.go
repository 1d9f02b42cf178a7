package difftest

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/trial"
)

// ExecKind classifies an executor for invariant selection: which
// op-count and MSV guarantees the engine may assert against it.
type ExecKind int

// Executor kinds.
const (
	// KindPlan is sequential plan execution (sim.Reordered): ops, MSV
	// and copies must equal the static plan's exactly.
	KindPlan ExecKind = iota
	// KindSubtree is trie-cut parallelism (sim.ParallelSubtree): no
	// sharing is lost, so unbudgeted ops equal the sequential plan's at
	// every worker count.
	KindSubtree
	// KindPlanUncompute is sequential plan execution under
	// sim.PolicyUncompute: every branch point is a journal mark instead
	// of a snapshot, so the executor must store zero state vectors and
	// perform zero copies while staying bit-identical to naive execution.
	KindPlanUncompute
	// KindPlanAdaptive is sequential plan execution under
	// sim.PolicyAdaptive: branch points choose between snapshot and
	// uncompute at run time, but the stored-vector peak must stay within
	// the snapshot budget and outcomes stay bit-identical.
	KindPlanAdaptive
	// KindSubtreePolicy is subtree parallelism under a non-snapshot
	// restore policy: bit-identity and the unbudgeted op floor hold; the
	// stored-vector peak is bounded like KindSubtree (entry states
	// dominate — per-branch snapshots are virtual or budget-capped).
	KindSubtreePolicy
)

// Executor is one registered execution path under differential test.
type Executor struct {
	// Name identifies the executor in failure messages, e.g. "subtree-4".
	Name string
	// Kind selects which invariants the engine asserts (see ExecKind).
	Kind ExecKind
	// Workers is the concurrency level (1 for sequential execution).
	Workers int
	// Run executes the trial set and returns the merged result.
	Run func(c *circuit.Circuit, trials []*trial.Trial, opt sim.Options) (*sim.Result, error)
}

// Executors returns the full registry: every reuse-based execution path
// the engine cross-checks against naive no-reuse execution, at several
// worker counts. New executors join the differential harness by being
// added here.
func Executors() []Executor {
	execs := []Executor{{
		Name:    "plan",
		Kind:    KindPlan,
		Workers: 1,
		Run:     sim.Reordered,
	}}
	for _, w := range []int{2, 4} {
		w := w
		execs = append(execs, Executor{
			Name:    fmt.Sprintf("subtree-%d", w),
			Kind:    KindSubtree,
			Workers: w,
			Run: func(c *circuit.Circuit, trials []*trial.Trial, opt sim.Options) (*sim.Result, error) {
				return sim.ParallelSubtree(c, trials, w, opt)
			},
		})
	}
	// Restore-policy variants (see sim.RestorePolicy): reverse execution
	// instead of — or adaptively mixed with — snapshots. The engine passes
	// the workload's snapshot budget through Options; the policy executors
	// enforce it at run time over an unbudgeted plan, so bit-identity must
	// survive a completely different restore mechanism. plan-uncompute
	// additionally proves the zero-snapshot claim (MSV == 0, copies == 0).
	// It runs the compiled FuseOff program (reverse execution exists only
	// on compiled programs), so the compiled bit-exact path stays in the
	// registry. FuseNumeric reassociates products and is validated by
	// tolerance tests in statevec instead.
	execs = append(execs,
		Executor{
			Name:    "plan-uncompute",
			Kind:    KindPlanUncompute,
			Workers: 1,
			Run: func(c *circuit.Circuit, trials []*trial.Trial, opt sim.Options) (*sim.Result, error) {
				opt.Policy = sim.PolicyUncompute
				return sim.Reordered(c, trials, opt)
			},
		},
		Executor{
			Name:    "adaptive",
			Kind:    KindPlanAdaptive,
			Workers: 1,
			Run: func(c *circuit.Circuit, trials []*trial.Trial, opt sim.Options) (*sim.Result, error) {
				opt.Policy = sim.PolicyAdaptive
				return sim.Reordered(c, trials, opt)
			},
		},
		Executor{
			Name:    "subtree-uncompute-2",
			Kind:    KindSubtreePolicy,
			Workers: 2,
			Run: func(c *circuit.Circuit, trials []*trial.Trial, opt sim.Options) (*sim.Result, error) {
				opt.Policy = sim.PolicyUncompute
				return sim.ParallelSubtree(c, trials, 2, opt)
			},
		},
		Executor{
			Name:    "subtree-adaptive-4",
			Kind:    KindSubtreePolicy,
			Workers: 4,
			Run: func(c *circuit.Circuit, trials []*trial.Trial, opt sim.Options) (*sim.Result, error) {
				opt.Policy = sim.PolicyAdaptive
				return sim.ParallelSubtree(c, trials, 4, opt)
			},
		},
	)
	return execs
}
