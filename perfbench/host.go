package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runtime/metrics names the benchmark samples. None of them stops the
// world, unlike runtime.ReadMemStats, so they are safe inside a timed
// window.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mHeapAllocs  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// readMetrics samples the named runtime metrics as float64s.
func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// goCounters is a snapshot of the runtime counters the ledger reports as
// deltas: GC CPU share and bytes allocated.
type goCounters struct{ gcCPU, totalCPU, allocBytes float64 }

func readGoCounters() goCounters {
	v := readMetrics(mGCCPU, mTotalCPU, mHeapAllocs)
	return goCounters{gcCPU: v[0], totalCPU: v[1], allocBytes: v[2]}
}

// since returns the GC CPU fraction and the bytes allocated since g.
func (g goCounters) since() (gcFrac, allocBytes float64) {
	now := readGoCounters()
	if cpu := now.totalCPU - g.totalCPU; cpu > 0 {
		gcFrac = (now.gcCPU - g.gcCPU) / cpu
	}
	return gcFrac, now.allocBytes - g.allocBytes
}

// heapSampler reads the live heap every tick until stopped; its mean is
// the timed window's mean_heap_mb.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sum += readMetrics(mHeapObjects)[0]
			h.n++
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the mean heap in MB and the sample count.
func (h *heapSampler) Stop() (meanMB float64, samples int) {
	close(h.stop)
	<-h.done
	return h.sum / float64(h.n) / 1e6, h.n
}

// copyGBps measures stdlib copy bandwidth between two buffers of size
// bytes, counting each copy as size bytes read plus size bytes written.
// It reports the median of five timings of at least 20 ms each.
func copyGBps(size int) float64 {
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	per := 1 + (64<<20)/size // copies per timing check, about 64 MiB
	var rates []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		copies := 0
		for time.Since(start) < 20*time.Millisecond {
			for i := 0; i < per; i++ {
				copy(dst, src)
			}
			copies += per
		}
		rates = append(rates, 2*float64(size)*float64(copies)/time.Since(start).Seconds()/1e9)
	}
	runtime.KeepAlive(dst)
	return median(rates)
}

// llcBytes reads the size of the highest-level CPU cache from sysfs, or 0
// when sysfs does not report one.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), 0
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		bytes := parseSize(strings.TrimSpace(string(sz)))
		if level > bestLevel || (level == bestLevel && bytes > best) {
			best, bestLevel = bytes, level
		}
	}
	return best
}

// parseSize parses sysfs cache sizes such as "307200K" or "8M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

// memTotalBytes reads MemTotal from /proc/meminfo, or 0 if unavailable.
func memTotalBytes() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemTotal:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// fingerprint describes the host and settings a record was taken under,
// so records from different hosts or settings are never compared silently.
func fingerprint() string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d gogc=%s go=%s os=%s/%s llc=%s mem_total=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(),
		runtime.GOOS, runtime.GOARCH, mib(llcBytes()), mib(memTotalBytes()))
}

func mib(b int64) string {
	if b <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%dMiB", b>>20)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tailQuantile returns the highest percentile up to p99 that leaves at
// least ten samples beyond it, and the nearest-rank value there. With
// 1000 or more samples that is p99; with ten or fewer, the maximum.
func tailQuantile(xs []float64) (q, v float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	switch {
	case n >= 1000:
		q = 0.99
	case n > 10:
		q = 1 - 10/float64(n)
	default:
		q = 1 // too few samples: report the maximum
	}
	return q, quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// clock is a reading of wall time, the process's CPU time and the
// machine's stolen CPU time, taken together.
type clock struct {
	wall  time.Time
	cpu   time.Duration
	steal time.Duration
}

func readClock() clock {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return clock{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), steal: stealTime()}
}

// stealTime is the CPU time the hypervisor gave to other guests while this
// machine's CPUs wanted to run, summed over CPUs (the "steal" column of
// /proc/stat); 0 where it is not reported.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// stealFactor is the share of the CPU time the process wanted between a
// and b that it got: its CPU time ÷ (its CPU time + the machine's steal).
// On a virtual machine whose host is oversubscribed, wall time stretches
// by the steal of other guests; a wall time multiplied by this factor
// excludes it. It is 1 on a host without steal. Steal is read in 10 ms
// ticks, so the factor is taken over spans of tens of milliseconds or
// more: a repetition, a cold start or a whole window.
func stealFactor(a, b clock) float64 {
	c, s := b.cpu-a.cpu, b.steal-a.steal
	if c <= 0 || s <= 0 {
		return 1
	}
	return float64(c) / float64(c+s)
}

// stealTrack reads the clock every interval until stopped, so that an
// operation too short to read steal for is charged the steal factor of
// the interval it ran in.
type stealTrack struct {
	stop  chan struct{}
	done  chan struct{}
	marks []clock
}

func startStealTrack(every time.Duration) *stealTrack {
	t := &stealTrack{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			t.marks = append(t.marks, readClock())
			select {
			case <-t.stop:
				t.marks = append(t.marks, readClock())
				return
			case <-tick.C:
			}
		}
	}()
	return t
}

// Stop ends tracking; factorAt may be called after it returns.
func (t *stealTrack) Stop() {
	close(t.stop)
	<-t.done
}

// factorAt returns the steal factor of the interval containing at, or of
// the whole track when at lies outside it.
func (t *stealTrack) factorAt(at time.Time) float64 {
	i := sort.Search(len(t.marks), func(i int) bool { return t.marks[i].wall.After(at) })
	if i == 0 || i == len(t.marks) {
		return stealFactor(t.marks[0], t.marks[len(t.marks)-1])
	}
	return stealFactor(t.marks[i-1], t.marks[i])
}
