package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file implements the distribution layer of the observability
// package: lock-free log-bucketed histograms with *fixed* power-of-two
// bucket boundaries. Fixed boundaries are what makes worker-local
// histograms mergeable exactly — every histogram of the same Hist kind
// uses the identical bucket grid, so merging is integer addition per
// bucket and the merged result is independent of merge order. (Adaptive
// schemes like HDR auto-ranging or t-digests trade that exactness for
// resolution; the executors here are measured in nanoseconds and depths,
// where 2x-wide buckets with interpolated quantiles are plenty.)
//
// Recording is hot-path adjacent: one bits.Len64, three atomic adds and a
// CAS-max — no locks, no allocation — so executors can observe per-trial
// latencies and per-kernel sweep durations whenever a Recorder is
// attached without perturbing the run.

// Hist enumerates the distribution metrics the executors record.
type Hist uint8

// Distribution metrics. Latency histograms are in nanoseconds; depth
// histograms are dimensionless.
const (
	// HistTrialLatency is the end-to-end wall time attributed to one
	// Monte Carlo trial (ns). Plan executors amortize the shared prefix
	// work of an emit batch equally over the batch's trials, so the
	// histogram's count always equals the trials emitted.
	HistTrialLatency Hist = iota
	// HistKernelSweep is the duration of one compiled-kernel sweep over
	// a state vector (ns), striped or serial.
	HistKernelSweep
	// HistSnapshotLifetime is the wall time between a prefix snapshot's
	// push and its drop (ns) — how long stored vectors actually live.
	HistSnapshotLifetime
	// HistRestoreDepth is the snapshot-stack depth at each budget-forced
	// restore (dimensionless): 0 means the plan replayed from |0...0>.
	HistRestoreDepth
	// HistBatchVariantOps is the distribution of independent per-variant
	// plan op counts across an executed batch (dimensionless) — the
	// sum-of-parts side of the batch savings accounting, one observation
	// per variant.
	HistBatchVariantOps
	// HistUncomputeDepth is the distribution of rollback sizes: the
	// number of logical ops (gates plus injections) each uncompute
	// segment ran backwards (dimensionless), one observation per
	// rollback.
	HistUncomputeDepth
	// HistJobLatency is the end-to-end wall time of one simulation-
	// service job, submission to completion (ns): queue wait plus
	// execution.
	HistJobLatency
	// HistJobQueueWait is the time one service job spent queued before a
	// worker picked it up (ns).
	HistJobQueueWait

	numHists
)

var histNames = [numHists]string{
	HistTrialLatency:     "trial_latency_ns",
	HistKernelSweep:      "kernel_sweep_ns",
	HistSnapshotLifetime: "snapshot_lifetime_ns",
	HistRestoreDepth:     "restore_depth",
	HistBatchVariantOps:  "batch_variant_ops",
	HistUncomputeDepth:   "uncompute_depth",
	HistJobLatency:       "job_latency_ns",
	HistJobQueueWait:     "job_queue_wait_ns",
}

// String returns the histogram's canonical (JSON/Prometheus) name.
func (h Hist) String() string { return histNames[h] }

// NumHistBuckets is the fixed bucket count of every Histogram: bucket 0
// holds values <= 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i).
const NumHistBuckets = 64

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// HistBucketUpper returns the inclusive upper bound of bucket i
// (2^i - 1); the last bucket is unbounded (MaxInt64).
func HistBucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// histBucketLower returns the inclusive lower bound of bucket i.
func histBucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << uint(i-1)
}

// Histogram is a lock-free log-bucketed distribution: fixed power-of-two
// boundaries, exact count/sum/max, interpolated quantiles. The zero value
// is ready to use; a Histogram must not be copied after first use. All
// methods are safe for concurrent use.
type Histogram struct {
	buckets [NumHistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Bucket returns the count of bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Merge adds another histogram's contents into h. Because every
// Histogram shares the same fixed bucket grid, merging is exact: the
// merged bucket counts, count, sum and max are identical for every merge
// order. The source is read atomically but not frozen; merge quiescent
// histograms for exact results.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	m := o.max.Load()
	for {
		cur := h.max.Load()
		if m <= cur || h.max.CompareAndSwap(cur, m) {
			return
		}
	}
}

// mergeTally adds a tally histogram's contents into h, exactly as Merge
// adds a Histogram's.
func (h *Histogram) mergeTally(t *tallyHist) {
	if t.count == 0 {
		return
	}
	for i, c := range t.buckets {
		if c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(t.count)
	h.sum.Add(t.sum)
	for {
		cur := h.max.Load()
		if t.max <= cur || h.max.CompareAndSwap(cur, t.max) {
			return
		}
	}
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the containing bucket, clamped to the observed
// max. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < NumHistBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			lo := float64(histBucketLower(i))
			hi := float64(HistBucketUpper(i))
			if m := float64(h.max.Load()); m < hi {
				hi = m // the top bucket extends only to the observed max
			}
			if hi < lo {
				return lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return float64(h.max.Load())
}

// HistBucketCount is one non-empty bucket in a histogram snapshot: LE is
// the bucket's inclusive upper bound, Count the values it holds.
type HistBucketCount struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time, JSON-friendly copy of a
// Histogram: exact count/sum/max, estimated quantiles, and the non-empty
// buckets in increasing-bound order (sparse — empty buckets are omitted;
// consumers reconstruct cumulative series from the fixed grid).
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistBucketCount `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	for i := 0; i < NumHistBuckets; i++ {
		if c := h.buckets[i].Load(); c != 0 {
			s.Buckets = append(s.Buckets, HistBucketCount{LE: HistBucketUpper(i), Count: c})
		}
	}
	return s
}

// Tally is a single-owner accumulation of counter deltas and histogram
// observations: plain integers on the same fixed bucket grid as
// Histogram, so merging one into a Recorder (Recorder.Merge) is exact and
// order-independent. A plan walk keeps one and merges it when it ends,
// instead of making atomic adds per step. A Tally is not safe for
// concurrent use; the zero value is empty and ready to use.
type Tally struct {
	counters [numCounters]int64
	hists    [numHists]tallyHist
}

// tallyHist is a Histogram without atomics.
type tallyHist struct {
	buckets         [NumHistBuckets]int64
	count, sum, max int64
}

// Add adds delta to a counter.
func (t *Tally) Add(c Counter, delta int64) { t.counters[c] += delta }

// ObserveN records n observations of the value v into a distribution
// (none when n <= 0).
func (t *Tally) ObserveN(h Hist, v, n int64) {
	if n <= 0 {
		return
	}
	th := &t.hists[h]
	th.buckets[histBucket(v)] += n
	th.count += n
	th.sum += v * n
	if v > th.max {
		th.max = v
	}
}

// Reset empties the tally.
func (t *Tally) Reset() { *t = Tally{} }
