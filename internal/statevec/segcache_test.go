package statevec

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gate"
	"repro/internal/obs"
)

// TestSegmentCacheSharesAcrossPrograms: two Programs compiled from the
// same circuit share one lowered segment per range — the second program
// hits on content, pays no lowering, and runs bit-identically.
func TestSegmentCacheSharesAcrossPrograms(t *testing.T) {
	ResetSegmentCache()
	defer ResetSegmentCache()
	rng := rand.New(rand.NewSource(3))
	c := randCompileCircuit(rng, 4, 40)
	for _, fuse := range []FuseMode{FuseOff, FuseNumeric} {
		ResetSegmentCache()
		p1 := CompileWith(c, CompileOptions{Fuse: fuse})
		s1 := NewState(4)
		p1.RunAll(s1)
		_, misses := SegmentCacheStats()
		if misses != 1 {
			t.Fatalf("fuse %v: first compile+run had %d misses, want 1", fuse, misses)
		}
		p2 := CompileWith(c, CompileOptions{Fuse: fuse})
		s2 := NewState(4)
		p2.RunAll(s2)
		hits, misses := SegmentCacheStats()
		if hits != 1 || misses != 1 {
			t.Fatalf("fuse %v: second identical program gave (hits %d, misses %d), want (1, 1)", fuse, hits, misses)
		}
		if n := segmentCacheLen(); n != 1 {
			t.Fatalf("fuse %v: cache holds %d segments, want 1", fuse, n)
		}
		a1, a2 := s1.Amplitudes(), s2.Amplitudes()
		for i := range a1 {
			if math.Float64bits(real(a1[i])) != math.Float64bits(real(a2[i])) ||
				math.Float64bits(imag(a1[i])) != math.Float64bits(imag(a2[i])) {
				t.Fatalf("fuse %v: shared segment changed amplitudes at %d", fuse, i)
			}
		}
	}
}

// TestSegmentCacheKeysOnContent: different fusion modes, different
// circuit content, and different ranges must not collide; a re-request of
// the same range within one program stays in the per-program map and
// touches the shared cache once.
func TestSegmentCacheKeysOnContent(t *testing.T) {
	ResetSegmentCache()
	defer ResetSegmentCache()
	rng := rand.New(rand.NewSource(5))
	c := randCompileCircuit(rng, 3, 24)
	p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
	pOff := CompileWith(c, CompileOptions{Fuse: FuseOff})
	s := NewState(3)
	p.RunAll(s)
	s.Reset()
	pOff.RunAll(s)
	hits, misses := SegmentCacheStats()
	if hits != 0 || misses != 2 {
		t.Errorf("distinct fuse modes: (hits %d, misses %d), want (0, 2)", hits, misses)
	}

	// Same circuit but one rotation angle differs in the last float bit:
	// content differs, so no sharing (bit-exactness over convenience).
	c2 := randCompileCircuit(rand.New(rand.NewSource(5)), 3, 24)
	c2.Append(gate.RZ(math.Nextafter(1.0, 2.0)), 0)
	c3 := randCompileCircuit(rand.New(rand.NewSource(5)), 3, 24)
	c3.Append(gate.RZ(1.0), 0)
	ResetSegmentCache()
	s.Reset()
	CompileWith(c2, CompileOptions{Fuse: FuseNumeric}).RunAll(s)
	s.Reset()
	CompileWith(c3, CompileOptions{Fuse: FuseNumeric}).RunAll(s)
	hits, misses = SegmentCacheStats()
	if hits != 0 || misses != 2 {
		t.Errorf("one-ulp angle difference: (hits %d, misses %d), want (0, 2)", hits, misses)
	}

	// Distinct ranges of one program are distinct content; a repeat of a
	// range is served from the per-program map without consulting the
	// shared cache again.
	ResetSegmentCache()
	q := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
	half := q.NumLayers() / 2
	s.Reset()
	q.Run(s, 0, half)
	q.Run(s, half, q.NumLayers())
	s.Reset()
	q.Run(s, 0, half)
	hits, misses = SegmentCacheStats()
	if hits != 0 || misses != 2 {
		t.Errorf("two ranges + repeat: (hits %d, misses %d), want (0, 2)", hits, misses)
	}
}

// TestSegmentCacheRecorder: hit/miss counts flow to the compile
// recorder's obs counters.
func TestSegmentCacheRecorder(t *testing.T) {
	ResetSegmentCache()
	defer ResetSegmentCache()
	rng := rand.New(rand.NewSource(7))
	c := randCompileCircuit(rng, 3, 20)
	rec := obs.NewMetrics()
	s := NewState(3)
	CompileWith(c, CompileOptions{Fuse: FuseNumeric, Recorder: rec}).RunAll(s)
	s.Reset()
	CompileWith(c, CompileOptions{Fuse: FuseNumeric, Recorder: rec}).RunAll(s)
	if got := rec.Counter(obs.SegCacheMisses); got != 1 {
		t.Errorf("SegCacheMisses = %d, want 1", got)
	}
	if got := rec.Counter(obs.SegCacheHits); got != 1 {
		t.Errorf("SegCacheHits = %d, want 1", got)
	}
}

// TestSegmentCacheConcurrent: many programs of identical content compiled
// and run concurrently agree bit-for-bit and settle on one cached
// segment. Run with -race.
func TestSegmentCacheConcurrent(t *testing.T) {
	ResetSegmentCache()
	defer ResetSegmentCache()
	rng := rand.New(rand.NewSource(9))
	c := randCompileCircuit(rng, 4, 30)
	ref := NewState(4)
	CompileWith(c, CompileOptions{Fuse: FuseNumeric}).RunAll(ref)
	refAmp := ref.Amplitudes()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
			s := NewState(4)
			p.RunAll(s)
			for i, a := range s.Amplitudes() {
				if math.Float64bits(real(a)) != math.Float64bits(real(refAmp[i])) ||
					math.Float64bits(imag(a)) != math.Float64bits(imag(refAmp[i])) {
					errs <- "amplitudes diverged under concurrent compilation"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := segmentCacheLen(); n != 1 {
		t.Errorf("cache holds %d segments after 16 identical programs, want 1", n)
	}
	hits, misses := SegmentCacheStats()
	if hits+misses < 16 || misses < 1 {
		t.Errorf("stats (hits %d, misses %d) inconsistent with 16 lookups", hits, misses)
	}
}
