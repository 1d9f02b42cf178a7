package statevec

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
)

// distinctCircuit builds a one-segment circuit whose lowered content is
// unique per tag (the rotation angle feeds the content digest).
func distinctCircuit(tag int) *circuit.Circuit {
	c := circuit.New("bound-test", 2)
	c.Append(gate.H(), 0)
	c.Append(gate.RZ(0.1+float64(tag)), 1)
	c.Append(gate.CX(), 0, 1)
	return c
}

// runFresh compiles a fresh Program for the circuit and runs it once,
// touching the shared cache exactly once per distinct content.
func runFresh(c *circuit.Circuit) *State {
	s := NewState(c.NumQubits())
	CompileWith(c, CompileOptions{Fuse: FuseNumeric}).RunAll(s)
	return s
}

// TestSegmentCacheEvictionBound: with a capacity set, the cache never
// exceeds it, evictions are counted exactly, and shrinking the capacity
// evicts immediately.
func TestSegmentCacheEvictionBound(t *testing.T) {
	ResetSegmentCache()
	prev := SetSegmentCacheCapacity(4)
	defer func() {
		SetSegmentCacheCapacity(prev)
		ResetSegmentCache()
	}()

	const distinct = 10
	for i := 0; i < distinct; i++ {
		runFresh(distinctCircuit(i))
		if n := SegmentCacheSize(); n > 4 {
			t.Fatalf("after %d inserts cache holds %d entries, capacity 4", i+1, n)
		}
	}
	if n := SegmentCacheSize(); n != 4 {
		t.Fatalf("cache holds %d entries, want 4 (at capacity)", n)
	}
	if ev := SegmentCacheEvictions(); ev != distinct-4 {
		t.Fatalf("evictions %d, want %d", ev, distinct-4)
	}
	hits, misses := SegmentCacheStats()
	if hits != 0 || misses != distinct {
		t.Fatalf("(hits %d, misses %d), want (0, %d)", hits, misses, distinct)
	}

	// Shrinking below the current size evicts immediately.
	if got := SetSegmentCacheCapacity(2); got != 4 {
		t.Fatalf("SetSegmentCacheCapacity returned prev %d, want 4", got)
	}
	if n := SegmentCacheSize(); n != 2 {
		t.Fatalf("after shrink cache holds %d entries, want 2", n)
	}
	if ev := SegmentCacheEvictions(); ev != distinct-2 {
		t.Fatalf("evictions after shrink %d, want %d", ev, distinct-2)
	}
}

// TestSegmentCacheSecondChance: a recently hit entry survives the clock
// sweep; the unreferenced one is evicted first.
func TestSegmentCacheSecondChance(t *testing.T) {
	ResetSegmentCache()
	prev := SetSegmentCacheCapacity(2)
	defer func() {
		SetSegmentCacheCapacity(prev)
		ResetSegmentCache()
	}()

	a, b, c := distinctCircuit(100), distinctCircuit(200), distinctCircuit(300)
	runFresh(a) // miss: insert A
	runFresh(b) // miss: insert B
	runFresh(a) // hit: sets A's reference bit
	hits, misses := SegmentCacheStats()
	if hits != 1 || misses != 2 {
		t.Fatalf("warm-up gave (hits %d, misses %d), want (1, 2)", hits, misses)
	}

	runFresh(c) // miss: must evict; clock passes referenced A, evicts B
	if ev := SegmentCacheEvictions(); ev != 1 {
		t.Fatalf("evictions %d, want 1", ev)
	}
	runFresh(a) // A survived: hit
	hits, _ = SegmentCacheStats()
	if hits != 2 {
		t.Fatalf("A was evicted despite its reference bit (hits %d, want 2)", hits)
	}
	runFresh(b) // B was the victim: miss again
	hits, misses = SegmentCacheStats()
	if hits != 2 || misses != 4 {
		t.Fatalf("final (hits %d, misses %d), want (2, 4)", hits, misses)
	}
}

// TestSegmentCacheCollisionRejected: a cache entry whose 64-bit digest
// matches but whose discriminators differ must not be served. The
// requester counts a collision, compiles privately (correct amplitudes),
// and does not overwrite the entry — the key stays poisoned for both.
func TestSegmentCacheCollisionRejected(t *testing.T) {
	ResetSegmentCache()
	defer ResetSegmentCache()

	c := distinctCircuit(7)
	ref := runFresh(c) // honest compile for the reference amplitudes
	p := CompileWith(c, CompileOptions{Fuse: FuseNumeric})
	ck := p.contentKey(0, len(p.layers))

	// Forge: re-point the circuit's real content key at an empty segment
	// with impossible discriminators — the shape of a digest collision.
	// If a victim ever executes it, it applies zero kernels and the state
	// stays |00>, so a silently served collision is detectable below.
	ResetSegmentCache()
	forged := &segment{}
	if got, _ := publishSegment(ck, segDiscriminators{layers: -1, ops: -1}, forged); got != forged {
		t.Fatal("forged publish did not insert")
	}

	s := runFresh(c)
	if col := SegmentCacheCollisions(); col != 1 {
		t.Fatalf("collisions %d, want 1", col)
	}
	hits, misses := SegmentCacheStats()
	if hits != 0 || misses != 1 {
		t.Fatalf("(hits %d, misses %d), want (0, 1) — collision must count as a miss", hits, misses)
	}
	ra, sa := ref.Amplitudes(), s.Amplitudes()
	for i := range ra {
		if math.Float64bits(real(ra[i])) != math.Float64bits(real(sa[i])) ||
			math.Float64bits(imag(ra[i])) != math.Float64bits(imag(sa[i])) {
			t.Fatalf("collision victim produced wrong amplitude at %d: got %v want %v", i, sa[i], ra[i])
		}
	}

	// The private compile must not have displaced the resident entry, and
	// a second requester collides again (poisoned key, still correct).
	if n := SegmentCacheSize(); n != 1 {
		t.Fatalf("cache holds %d entries after collision, want 1 (forged entry only)", n)
	}
	s2 := runFresh(c)
	if col := SegmentCacheCollisions(); col != 2 {
		t.Fatalf("second requester: collisions %d, want 2", col)
	}
	sa2 := s2.Amplitudes()
	for i := range ra {
		if sa2[i] != sa[i] {
			t.Fatalf("second collision victim diverged at %d", i)
		}
	}
}
