package reorder

import (
	"cmp"
	"slices"

	"repro/internal/trial"
)

// algorithmOne is the literal transcription of the paper's Algorithm 1
// (Trial_Reorder): order the trials by the location of the n-th injected
// error, divide them into groups sharing that error, and recurse into each
// group with n+1. Trials that have no n-th error form the final group and
// terminate the recursion (they are fully identical within their group, so
// there is nothing left to order). The input slice is not modified.
//
// Sort is the production implementation; algorithmOne documents the
// paper's pseudocode faithfully and is the reference Sort is checked
// against.
func algorithmOne(trials []*trial.Trial) []*trial.Trial {
	out := make([]*trial.Trial, len(trials))
	copy(out, trials)
	algorithmOneRec(out, 0)
	return out
}

func algorithmOneRec(s []*trial.Trial, n int) {
	if len(s) <= 1 {
		return
	}
	// Line 4: order the trials by the location of the nth injected error.
	// Trials without an nth error take a +inf sentinel, placing them last
	// (see trial.Compare for why that convention minimizes MSV).
	key := func(t *trial.Trial) uint64 {
		if n >= len(t.Inj) {
			return ^uint64(0)
		}
		return uint64(t.Inj[n])
	}
	slices.SortStableFunc(s, func(a, b *trial.Trial) int { return cmp.Compare(key(a), key(b)) })
	// Lines 5-9: divide into groups sharing the nth error and recurse.
	for lo := 0; lo < len(s); {
		k := key(s[lo])
		hi := lo + 1
		for hi < len(s) && key(s[hi]) == k {
			hi++
		}
		if k != ^uint64(0) { // exhausted group: identical trials, stop
			algorithmOneRec(s[lo:hi], n+1)
		}
		lo = hi
	}
}
