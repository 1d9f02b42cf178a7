package sim

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/statevec"
)

// Uncomputation as an alternative to snapshots. The paper's executor
// returns to a branch point by storing a prefix state (snapshot) and
// restoring it; this file adds the dual strategy: roll the working state
// *backwards* to the branch point by applying the dagger of every op
// since the branch, in reverse order (statevec.RunReverse), at near-zero
// memory cost. A per-branch-point restore policy chooses between the two.
//
// Mechanics (reorder.Walk drives branchState, interp.go): under a
// non-snapshot policy an execution journals every mutation of the working
// register (layer advances and Pauli injections) along the current path.
// A branch point becomes either a *real* frame — an ordinary snapshot —
// or a *virtual* frame that records only the journal position. Returning
// to a real frame adopts the stored vector; returning to a virtual frame
// reverse-executes the journal suffix. The invariant throughout: the
// working register always equals the journal applied to the execution's
// base state (|0...0> for plans and trunks, the entry state for subtree
// tasks).
//
// Bit-exactness: in non-numeric fusion modes the executors promise
// Float64bits-identical outcomes, so a virtual frame may only be
// reverse-executed when its whole journal suffix is exactly invertible
// (signed-permutation gates and X/Z injections — see
// statevec.ExactlyInvertible). A non-invertible suffix is instead
// replayed forward from the nearest real frame below (or from the base),
// which is the same drop-and-recompute a budgeted plan performs and is
// bit-identical by construction. Under FuseNumeric the bit-exact promise
// is already waived, so every rollback reverse-executes.
//
// Accounting: reverse ops are reported in Result.UncomputeOps and the
// uncompute_ops counter, never in Result.Ops, so the forward count keeps
// satisfying the ops == plan.OptimizedOps() invariants of the snapshot
// executors. Forward replays of non-invertible suffixes do count in
// Result.Ops, exactly like budgeted-plan replays.

// RestorePolicy selects how the executors return to branch points.
type RestorePolicy int

const (
	// PolicySnapshot is the paper's strategy and the default: every
	// branch point stores a prefix state, returns adopt or copy it.
	PolicySnapshot RestorePolicy = iota
	// PolicyUncompute stores nothing: every branch point is virtual and
	// every return rolls the working state back through reverse
	// execution (or a forward replay where exactness forbids reversing).
	PolicyUncompute
	// PolicyAdaptive decides per branch point: snapshot while the budget
	// and memory pressure allow, uncompute otherwise — in particular it
	// goes virtual exactly where a budgeted snapshot plan would be
	// forced into drop-and-recompute restores.
	PolicyAdaptive
)

// String names the policy as the CLI spells it.
func (p RestorePolicy) String() string {
	switch p {
	case PolicySnapshot:
		return "snapshot"
	case PolicyUncompute:
		return "uncompute"
	case PolicyAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseRestorePolicy parses the CLI spelling of a restore policy.
func ParseRestorePolicy(s string) (RestorePolicy, error) {
	switch s {
	case "snapshot":
		return PolicySnapshot, nil
	case "uncompute":
		return PolicyUncompute, nil
	case "adaptive":
		return PolicyAdaptive, nil
	}
	return PolicySnapshot, fmt.Errorf("unknown restore policy %q (snapshot, uncompute, adaptive)", s)
}

// SamplerMemProbe builds a MemProbe from the runtime sampler: it reports
// pressure while the most recent sample's live heap exceeds limitBytes.
// The probe reads only already-collected samples, so probing is cheap
// enough for every branch point.
func SamplerMemProbe(s *obs.Sampler, limitBytes uint64) func() bool {
	return func() bool {
		if s == nil {
			return false
		}
		last, ok := s.Last()
		if !ok {
			return false
		}
		return last.HeapAllocBytes > limitBytes
	}
}

// decideReal is the per-branch-point policy decision. The adaptive
// heuristic snapshots while the budget allows and goes virtual beyond it
// (where the snapshot policy would degrade to drop-and-recompute
// restores). Under live memory pressure it additionally keeps only the
// two shallowest frames real: the PR 5 lifetime/restore-depth histograms
// show shallow snapshots live longest and serve the most returns, while
// deep branch points have short suffixes that are cheap to uncompute.
// Wall-clock histogram values deliberately do not feed the decision —
// decisions must be exactly reproducible for a fixed seed.
func (bs *branchState) decideReal() bool {
	switch bs.opt.Policy {
	case PolicyUncompute:
		return false
	case PolicyAdaptive:
		budget := bs.opt.SnapshotBudget
		if budget <= 0 {
			budget = math.MaxInt
		}
		if bs.realCnt >= budget {
			return false
		}
		if bs.opt.MemProbe != nil && bs.opt.MemProbe() && len(bs.frames)-bs.floor >= 2 {
			return false
		}
		return true
	default:
		return true
	}
}

// suffixInvertible reports whether journal[pos:] can be reverse-executed
// bit-exactly: every advance range contains only signed-permutation
// gates and every injection is an X or Z.
func (bs *branchState) suffixInvertible(pos int) bool {
	for _, e := range bs.journal[pos:] {
		if e.adv {
			if !bs.prog.SegmentExactlyInvertible(e.from, e.to) {
				return false
			}
		} else if !statevec.ExactlyInvertiblePauli(e.op) {
			return false
		}
	}
	return true
}

// rollbackTo returns the working register to its state at journal
// position pos, either by reverse execution (counted separately in
// UncomputeOps) or — when exactness forbids reversing the suffix — by a
// forward replay from the nearest real frame at or below pos (counted in
// Ops, like any budgeted-plan recompute). The caller truncates the
// journal.
func (bs *branchState) rollbackTo(pos int) {
	if pos == len(bs.journal) {
		return
	}
	if !bs.exact || bs.suffixInvertible(pos) {
		var segOps int64
		for i := len(bs.journal) - 1; i >= pos; i-- {
			e := bs.journal[i]
			if e.adv {
				segOps += int64(bs.runRev(e.from, e.to))
			} else {
				// Paulis are self-inverse; X and Z reverse bit-exactly.
				bs.work.ApplyPauli(e.op, e.qubit)
				segOps++
			}
		}
		bs.res.UncomputeOps += segOps
		if bs.sink != nil {
			bs.sink.uncompute(segOps)
		}
		return
	}
	base := -1
	for i := len(bs.frames) - 1; i >= 0; i-- {
		if bs.frames[i].real && bs.frames[i].pos <= pos {
			base = i
			break
		}
	}
	from := 0
	if base >= 0 {
		bs.work.CopyFrom(bs.frames[base].st)
		bs.res.Copies++
		from = bs.frames[base].pos
	} else {
		bs.work.Reset()
	}
	for _, e := range bs.journal[from:pos] {
		if e.adv {
			bs.res.Ops += int64(bs.runFwd(e.from, e.to))
		} else {
			bs.work.ApplyPauli(e.op, e.qubit)
			bs.res.Ops++
		}
	}
}
