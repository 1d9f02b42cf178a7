package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/reorder"
)

// Distribution-metric invariants: the trial-latency histogram's count
// equals the trials emitted for every executor at every worker count,
// snapshot-lifetime observations pair with snapshot drops, restore-depth
// observations pair with restores, and worker-local histograms merge to
// the same result in any order. These back the acceptance criterion
// "trial-latency histogram count == trials emitted".

func TestTrialLatencyCountMatchesTrials(t *testing.T) {
	c := bench.QV(5, 4, rand.New(rand.NewSource(13)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 400, 19)
	plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	static := plan.OptimizedOps()

	type runner struct {
		name    string
		sharing bool
		run     func(Options) (*Result, error)
	}
	runners := []runner{
		{"Baseline", false, func(o Options) (*Result, error) { return Baseline(c, trials, o) }},
		{"ExecutePlan", true, func(o Options) (*Result, error) { return ExecutePlan(c, plan, o) }},
		{"Reordered/budget2", false, func(o Options) (*Result, error) {
			o.SnapshotBudget = 2
			return Reordered(c, trials, o)
		}},
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		runners = append(runners,
			runner{name: "ParallelSubtree/" + string(rune('0'+w)), sharing: true, run: func(o Options) (*Result, error) {
				return ParallelSubtree(c, trials, w, o)
			}},
		)
	}
	for _, tc := range runners {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewMetrics()
			res, err := tc.run(Options{Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Hist(obs.HistTrialLatency).Count(); got != int64(len(trials)) {
				t.Errorf("trial-latency count = %d, want %d", got, len(trials))
			}
			if tc.sharing && res.Ops != static {
				t.Errorf("ops = %d, want static plan count %d (histograms must not perturb execution)", res.Ops, static)
			}
			if got, want := rec.Hist(obs.HistSnapshotLifetime).Count(), rec.Counter(obs.SnapshotDrops); got != want {
				t.Errorf("snapshot-lifetime count = %d, want one per drop (%d)", got, want)
			}
			if got, want := rec.Hist(obs.HistRestoreDepth).Count(), rec.Counter(obs.SnapshotRestores); got != want {
				t.Errorf("restore-depth count = %d, want one per restore (%d)", got, want)
			}
		})
	}
}

// TestWorkerHistogramsMergeOrderInvariant executes a contiguous-chunk
// decomposition of the sorted trials by hand, one Metrics per chunk, and
// checks that merging the
// worker-local trial-latency histograms in any order yields identical
// per-bucket counts summing to the trial count — the mergeability claim
// the fixed power-of-two bucket grid exists for.
func TestWorkerHistogramsMergeOrderInvariant(t *testing.T) {
	c := bench.QV(5, 3, rand.New(rand.NewSource(23)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 320, 31)
	ordered := reorder.Sort(trials)
	const workers = 4
	recs := make([]*obs.Metrics, workers)
	for w := 0; w < workers; w++ {
		lo := w * len(ordered) / workers
		hi := (w + 1) * len(ordered) / workers
		plan, err := reorder.BuildPlan(c, ordered[lo:hi], reorder.Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs[w] = obs.NewMetrics()
		if _, err := ExecutePlan(c, plan, Options{Recorder: recs[w]}); err != nil {
			t.Fatal(err)
		}
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	merged := make([]*obs.Histogram, len(orders))
	for oi, order := range orders {
		var h obs.Histogram
		for _, w := range order {
			h.Merge(recs[w].Hist(obs.HistTrialLatency))
		}
		merged[oi] = &h
	}
	for oi, h := range merged {
		if h.Count() != int64(len(trials)) {
			t.Errorf("order %v: merged count = %d, want %d", orders[oi], h.Count(), len(trials))
		}
		if h.Sum() != merged[0].Sum() || h.Max() != merged[0].Max() {
			t.Errorf("order %v: merged sum/max differ from first order", orders[oi])
		}
		for b := 0; b < obs.NumHistBuckets; b++ {
			if h.Bucket(b) != merged[0].Bucket(b) {
				t.Fatalf("order %v: bucket %d = %d, first order has %d", orders[oi], b, h.Bucket(b), merged[0].Bucket(b))
			}
		}
	}
}

// TestConcurrentHistogramRecording drives the subtree executor's worker
// pool into one shared Metrics recorder — with -race this is the
// concurrent-recording coverage for the histogram path, mirroring the
// msvTracker race test.
func TestConcurrentHistogramRecording(t *testing.T) {
	c := bench.QV(5, 4, rand.New(rand.NewSource(29)))
	m := device.Yorktown().Model()
	trials := genTrials(t, c, m, 500, 37)
	rec := obs.NewMetrics()
	if _, err := ParallelSubtree(c, trials, 8, Options{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Hist(obs.HistTrialLatency).Count(); got != int64(len(trials)) {
		t.Errorf("concurrent trial-latency count = %d, want %d", got, len(trials))
	}
	var bucketTotal int64
	h := rec.Hist(obs.HistTrialLatency)
	for b := 0; b < obs.NumHistBuckets; b++ {
		bucketTotal += h.Bucket(b)
	}
	if bucketTotal != h.Count() {
		t.Errorf("bucket total %d != count %d under concurrent recording", bucketTotal, h.Count())
	}
}
