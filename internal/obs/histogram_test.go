package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land in the bucket whose bounds contain it.
	for _, v := range []int64{1, 2, 3, 100, 999, 1 << 20, 1<<40 + 7} {
		i := histBucket(v)
		if v < histBucketLower(i) || v > HistBucketUpper(i) {
			t.Errorf("value %d outside bucket %d bounds [%d, %d]", v, i, histBucketLower(i), HistBucketUpper(i))
		}
	}
	if HistBucketUpper(63) != math.MaxInt64 {
		t.Errorf("top bucket upper = %d, want MaxInt64", HistBucketUpper(63))
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	if h.Sum() != 1000*1001/2 {
		t.Fatalf("Sum = %d, want %d", h.Sum(), 1000*1001/2)
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %d, want 1000", h.Max())
	}
	// Log buckets are coarse: within a factor of 2 is the guarantee.
	checks := []struct {
		q     float64
		exact float64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact/2 || got > c.exact*2 {
			t.Errorf("Quantile(%.2f) = %.1f, want within 2x of %.1f", c.q, got, c.exact)
		}
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Errorf("Quantile(1.0) = %.1f, want clamped to max 1000", q)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Error("empty histogram should read all zeros")
	}
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < float64(histBucketLower(histBucket(42))) || got > 42 {
			t.Errorf("single-value Quantile(%.2f) = %.1f outside [32, 42]", q, got)
		}
	}
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 42 || s.Max != 42 || len(s.Buckets) != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramMergeExactAndOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([]*Histogram, 4)
	var whole Histogram
	for i := range parts {
		parts[i] = &Histogram{}
		for j := 0; j < 500; j++ {
			v := rng.Int63n(1 << 30)
			parts[i].Observe(v)
			whole.Observe(v)
		}
	}
	merge := func(order []int) *Histogram {
		var m Histogram
		for _, i := range order {
			m.Merge(parts[i])
		}
		return &m
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	for _, ord := range orders {
		m := merge(ord)
		if m.Count() != whole.Count() || m.Sum() != whole.Sum() || m.Max() != whole.Max() {
			t.Fatalf("order %v: merged count/sum/max differ from direct observation", ord)
		}
		for i := 0; i < NumHistBuckets; i++ {
			if m.Bucket(i) != whole.Bucket(i) {
				t.Fatalf("order %v: bucket %d = %d, want %d", ord, i, m.Bucket(i), whole.Bucket(i))
			}
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 20))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
	var bucketTotal int64
	for i := 0; i < NumHistBuckets; i++ {
		bucketTotal += h.Bucket(i)
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
}

func TestMetricsSnapshotIncludesHistograms(t *testing.T) {
	m := NewMetrics()
	m.Observe(HistTrialLatency, 100)
	m.Observe(HistTrialLatency, 200)
	m.Observe(HistRestoreDepth, 3)
	s := m.Snapshot()
	if len(s.Histograms) != int(numHists) {
		t.Fatalf("snapshot has %d histograms, want %d (stable schema)", len(s.Histograms), numHists)
	}
	tl := s.Histograms[HistTrialLatency.String()]
	if tl.Count != 2 || tl.Sum != 300 || tl.Max != 200 {
		t.Errorf("trial latency snapshot = %+v", tl)
	}
	if s.Histograms[HistKernelSweep.String()].Count != 0 {
		t.Error("untouched histogram should snapshot empty")
	}
}

func TestMultiFansOutObserve(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	rec := Multi(a, b)
	rec.Observe(HistKernelSweep, 5)
	if a.Hist(HistKernelSweep).Count() != 1 || b.Hist(HistKernelSweep).Count() != 1 {
		t.Error("Multi did not fan out Observe to both Metrics")
	}
}
