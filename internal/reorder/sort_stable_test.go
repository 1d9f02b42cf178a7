package reorder

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/noise"
	"repro/internal/trial"
)

// stableSorted is the reference order Sort must reproduce: the stable
// sort by trial.Compare.
func stableSorted(trials []*trial.Trial) []*trial.Trial {
	out := slices.Clone(trials)
	slices.SortStableFunc(out, trial.Compare)
	return out
}

// checkSortMatchesStable fails unless Sort returns exactly the stable
// order, trial for trial, and leaves its input untouched.
func checkSortMatchesStable(t *testing.T, label string, trials []*trial.Trial) {
	t.Helper()
	in := slices.Clone(trials)
	got, want := Sort(trials), stableSorted(trials)
	if len(got) != len(want) {
		t.Fatalf("%s: Sort returned %d trials, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds %s (id %d), stable sort has %s (id %d)",
				label, i, got[i], got[i].ID, want[i], want[i].ID)
		}
	}
	if !slices.Equal(trials, in) {
		t.Fatalf("%s: Sort mutated its input", label)
	}
}

// TestSortMatchesStableSort checks that the partition sort with the input
// position as tie-break is the stable sort: on random sets full of
// duplicates and shared prefixes, in ID order and shuffled, with keys too
// wide to pack, and on the empty and one-trial sets.
func TestSortMatchesStableSort(t *testing.T) {
	checkSortMatchesStable(t, "nil", nil)
	checkSortMatchesStable(t, "empty", []*trial.Trial{})
	checkSortMatchesStable(t, "one", []*trial.Trial{{ID: 3}})
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		trials := randTrialSet(rng, 1+rng.Intn(300))
		checkSortMatchesStable(t, "in ID order", trials)
		rng.Shuffle(len(trials), func(i, j int) { trials[i], trials[j] = trials[j], trials[i] })
		checkSortMatchesStable(t, "shuffled", trials)
	}
	g, err := trial.NewGenerator(bench.QFT(5), noise.Uniform("u", 5, 0.01, 0.05, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	checkSortMatchesStable(t, "generated", g.Generate(rand.New(rand.NewSource(3)), 4096))
	// Lift some sequences to the top layers, so nodes mix keys too wide
	// to pack with a position.
	for round := 0; round < 50; round++ {
		trials := randTrialSet(rng, 1+rng.Intn(300))
		for _, tr := range trials {
			if len(tr.Inj) > 0 && tr.Inj[0]%2 == 0 {
				for k, key := range tr.Inj {
					in := key.Unpack()
					tr.Inj[k] = trial.Pack(topLayer-8+in.Layer, in.Qubit, in.Op)
				}
			}
		}
		checkSortMatchesStable(t, "wide keys", trials)
	}
}

// mapSummarize is the hashing trial summary that SummarizeSorted
// replaced: every distinct injection sequence is one map key.
func mapSummarize(trials []*trial.Trial) trial.Stats {
	st := trial.Stats{Trials: len(trials)}
	seen := make(map[string]bool, len(trials))
	for _, t := range trials {
		st.TotalErrors += len(t.Inj)
		st.MaxErrors = max(st.MaxErrors, len(t.Inj))
		if len(t.Inj) == 0 {
			st.ErrorFree++
		}
		var key []byte
		for _, k := range t.Inj {
			for s := 0; s < 64; s += 8 {
				key = append(key, byte(k>>uint(s)))
			}
		}
		seen[string(key)] = true
	}
	st.DistinctSeqs = len(seen)
	if st.Trials > 0 {
		st.MeanErrors = float64(st.TotalErrors) / float64(st.Trials)
		st.DuplicateRate = float64(st.Trials-st.DistinctSeqs) / float64(st.Trials)
	}
	return st
}

// TestSummarizeSortedMatchesMapCount checks that counting adjacent
// distinct sequences in Sort order, and Summarize over any order, give
// the map-based statistics exactly.
func TestSummarizeSortedMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sets := [][]*trial.Trial{nil}
	for round := 0; round < 100; round++ {
		trials := randTrialSet(rng, 1+rng.Intn(200))
		rng.Shuffle(len(trials), func(i, j int) { trials[i], trials[j] = trials[j], trials[i] })
		sets = append(sets, trials)
	}
	g, err := trial.NewGenerator(bench.QFT(5), noise.Uniform("u", 5, 0.01, 0.05, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, g.Generate(rand.New(rand.NewSource(4)), 4096))
	for i, trials := range sets {
		want := mapSummarize(trials)
		if got := trial.SummarizeSorted(Sort(trials)); got != want {
			t.Fatalf("set %d: SummarizeSorted(Sort) = %+v, map count %+v", i, got, want)
		}
		if got := trial.Summarize(trials); got != want {
			t.Fatalf("set %d: Summarize = %+v, map count %+v", i, got, want)
		}
	}
}

// topLayer is the largest layer a trial.Key packs. Keys at that layer set
// the top bits, so a node that mixes them with layer-0 keys spans more
// than 64 bits once packed with a position, and Sort takes its wide-key
// path.
const topLayer = 1<<40 - 1

// FuzzSortMatchesStable decodes the input into trials over a small key
// alphabet, so duplicates and shared prefixes are common, and checks
// Sort against the stable sort. A byte of 0xf0 or above ends a trial; a
// byte from 0x80 appends a key at layer topLayer-byte%8, which drives the
// wide-key path; any other byte appends the key byte%8.
func FuzzSortMatchesStable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xf0, 0xf0, 0xf0})
	f.Add([]byte{1, 2, 0xf0, 1, 0xf0, 1, 2, 0xf0, 0xf0, 1, 0xf0, 3})
	f.Add([]byte{5, 0xf0, 4, 0xf0, 5, 0xf0, 4, 4, 0xf0, 0xf0, 5})
	f.Add([]byte{0x80, 0xf0, 0x81, 1, 0xf0, 0x80, 0xf0, 1, 0x81, 0xf0, 0x81, 0xf0, 0x80, 2})
	// Forty trials over two wide keys and one narrow one: long runs of
	// equal keys in a wide-key node, where only the position tie-break
	// keeps the input order.
	wide := []byte{}
	for i := 0; i < 40; i++ {
		wide = append(wide, []byte{0x80, 0x81, 3}[i%3], 0xf0)
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		trials := []*trial.Trial{{ID: 0}}
		for _, b := range data {
			cur := trials[len(trials)-1]
			switch {
			case b >= 0xf0:
				trials = append(trials, &trial.Trial{ID: len(trials)})
			case b >= 0x80:
				cur.Inj = append(cur.Inj, trial.Pack(topLayer-int(b%8), 0, 0))
			default:
				cur.Inj = append(cur.Inj, trial.Key(b%8))
			}
		}
		checkSortMatchesStable(t, "fuzzed", trials)
		checkWalkAgrees(t, plannable(trials))
	})
}

// plannable returns a copy of fuzzed trials a plan can be built for on
// chain(16): the top layers a wide key names map to layers 8-15, and each
// trial's injections are in ascending order, as generated trials' are.
func plannable(trials []*trial.Trial) []*trial.Trial {
	out := make([]*trial.Trial, len(trials))
	for i, tr := range trials {
		inj := make([]trial.Key, len(tr.Inj))
		for k, key := range tr.Inj {
			in := key.Unpack()
			if in.Layer > 7 {
				in.Layer -= topLayer - 15
			}
			inj[k] = trial.Pack(in.Layer, in.Qubit, in.Op)
		}
		slices.Sort(inj)
		out[i] = &trial.Trial{ID: tr.ID, Inj: inj}
	}
	return out
}

// checkWalkAgrees fails unless the plan walk over trials agrees with
// itself every way it can run: the plan validates, budgeted or not; the
// count-only walk reports the same order and counters; a shuffled copy
// of the trials yields the same steps; and the walk's split task counts
// equal the reference count and the split plans it predicts.
func checkWalkAgrees(t *testing.T, trials []*trial.Trial) {
	t.Helper()
	c := chain(16)
	p, err := BuildPlan(c, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("plan: %v", err)
	}
	budgeted, err := BuildPlan(c, trials, Options{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := budgeted.Validate(); err != nil {
		t.Fatalf("budget 1 plan: %v", err)
	}
	counted, err := BuildPlan(c, trials, Options{Count: true})
	if err != nil {
		t.Fatal(err)
	}
	if counted.Steps != nil || counted.Analysis() != p.Analysis() || !slices.Equal(counted.Order, p.Order) {
		t.Fatalf("count-only walk reports %+v, the plan %+v", counted.Analysis(), p.Analysis())
	}
	shuffled := slices.Clone(trials)
	rand.New(rand.NewSource(int64(len(trials)))).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sp, err := BuildPlan(c, shuffled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sp.Steps, p.Steps) {
		t.Fatal("a shuffled copy of the trials yields other steps")
	}
	for cut := 1; cut <= CountedCuts; cut++ {
		split, err := BuildSplitPlan(c, trials, cut, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := countSubtrees(p.Order, cut)
		if got := counted.SplitTasks(cut); got != want || len(split.Subtrees) != want {
			t.Fatalf("cut %d: walk counts %d tasks, the split plan has %d, the reference %d", cut, got, len(split.Subtrees), want)
		}
	}
}
