package reorder

import (
	"math/rand"
	"testing"

	"repro/internal/gate"
	"repro/internal/trial"
)

// randTrialSet builds trials with random packed injection sequences,
// deliberately including many exact duplicates and shared prefixes so
// the stability and grouping properties are actually exercised. IDs are
// input positions, which is what the stability assertions key off.
func randTrialSet(rng *rand.Rand, n int) []*trial.Trial {
	// A small pool of sequences guarantees collisions.
	pool := make([][]trial.Key, 1+rng.Intn(12))
	for i := range pool {
		seq := make([]trial.Key, rng.Intn(5))
		layer := 0
		for j := range seq {
			layer += rng.Intn(3)
			seq[j] = trial.Pack(layer, rng.Intn(4), gate.Pauli(rng.Intn(3)))
		}
		pool[i] = seq
	}
	out := make([]*trial.Trial, n)
	for i := range out {
		seq := pool[rng.Intn(len(pool))]
		out[i] = &trial.Trial{ID: i, Inj: append([]trial.Key(nil), seq...)}
	}
	return out
}

// refLess is an independent reference implementation of the intended
// order: lexicographic over unpacked (layer, qubit, op) triples, with a
// trial that exhausts its injection list sorting AFTER one that still
// has injections at the point of divergence.
func refLess(a, b *trial.Trial) bool {
	n := len(a.Inj)
	if len(b.Inj) < n {
		n = len(b.Inj)
	}
	for i := 0; i < n; i++ {
		ia, ib := a.Inj[i].Unpack(), b.Inj[i].Unpack()
		if ia != ib {
			if ia.Layer != ib.Layer {
				return ia.Layer < ib.Layer
			}
			if ia.Qubit != ib.Qubit {
				return ia.Qubit < ib.Qubit
			}
			return ia.Op < ib.Op
		}
	}
	return len(a.Inj) > len(b.Inj) // longer sorts first; exhausted last
}

// TestSortIsStableLexicographicOrder is the property test for the
// reorder sort: the output is the reference lexicographic order, equal
// trials keep their input order (stability), and sorting an already
// sorted slice is a no-op.
func TestSortIsStableLexicographicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		trials := randTrialSet(rng, 1+rng.Intn(60))
		sorted := Sort(trials)

		if len(sorted) != len(trials) {
			t.Fatalf("round %d: Sort changed length %d -> %d", round, len(trials), len(sorted))
		}
		// Ordered per the independent reference comparator.
		for i := 1; i < len(sorted); i++ {
			if refLess(sorted[i], sorted[i-1]) {
				t.Fatalf("round %d: out of order at %d: %s before %s", round, i, sorted[i-1], sorted[i])
			}
			if trial.Compare(sorted[i-1], sorted[i]) > 0 {
				t.Fatalf("round %d: Compare disagrees at %d", round, i)
			}
		}
		// Stability: trials with equal injection sequences (Compare == 0)
		// keep ascending input order (ID is the input position).
		for i := 1; i < len(sorted); i++ {
			if trial.Compare(sorted[i-1], sorted[i]) == 0 && sorted[i-1].ID > sorted[i].ID {
				t.Fatalf("round %d: stability violated at %d: id %d before id %d",
					round, i, sorted[i-1].ID, sorted[i].ID)
			}
		}
		// Idempotence: sorting twice is a no-op, element for element.
		twice := Sort(sorted)
		for i := range twice {
			if twice[i] != sorted[i] {
				t.Fatalf("round %d: re-sort moved element %d", round, i)
			}
		}
		// The input slice is never mutated.
		for i, tr := range trials {
			if tr.ID != i {
				t.Fatalf("round %d: input slice mutated at %d", round, i)
			}
		}
		// And the production sort agrees with the paper's literal
		// Algorithm 1 transcription on the same multiset.
		alg := algorithmOne(trials)
		for i := range alg {
			if trial.Compare(alg[i], sorted[i]) != 0 {
				t.Fatalf("round %d: algorithmOne and Sort diverge at %d: %s vs %s",
					round, i, alg[i], sorted[i])
			}
		}
	}
}

// TestSortEqualPrefixKeepsInputOrder pins the stability guarantee on a
// crafted set where every trial shares the same single-injection prefix
// and several are exact duplicates.
func TestSortEqualPrefixKeepsInputOrder(t *testing.T) {
	k := trial.Pack(2, 1, gate.PauliX)
	k2 := trial.Pack(4, 0, gate.PauliZ)
	trials := []*trial.Trial{
		{ID: 0, Inj: []trial.Key{k}},
		{ID: 1, Inj: []trial.Key{k, k2}},
		{ID: 2, Inj: []trial.Key{k}},
		{ID: 3, Inj: []trial.Key{k, k2}},
		{ID: 4, Inj: []trial.Key{k}},
	}
	sorted := Sort(trials)
	var wantIDs = []int{1, 3, 0, 2, 4} // longer first, then exhausted, input order within groups
	for i, want := range wantIDs {
		if sorted[i].ID != want {
			t.Fatalf("position %d: got id %d, want %d", i, sorted[i].ID, want)
		}
	}
}
