package statevec

import "testing"

// TestPoolRetentionCap: each size class keeps at most the configured
// number of idle buffers; overflow releases are dropped and counted, and
// Get still serves what was retained.
func TestPoolRetentionCap(t *testing.T) {
	p := NewBufferPoolRetain(2)

	for i := 0; i < 5; i++ {
		p.Put(make([]complex128, 8))
	}
	if got := p.Retained(); got != 2 {
		t.Fatalf("raw buffers retained %d, want 2", got)
	}
	if got := p.Drops(); got != 3 {
		t.Fatalf("drops %d, want 3", got)
	}

	// A different size is its own class with its own cap.
	for i := 0; i < 3; i++ {
		p.Put(make([]complex128, 16))
	}
	if got := p.Retained(); got != 4 {
		t.Fatalf("retained across two classes %d, want 4", got)
	}
	if got := p.Drops(); got != 4 {
		t.Fatalf("drops %d, want 4", got)
	}

	// States are capped the same way.
	for i := 0; i < 4; i++ {
		p.PutState(NewState(3))
	}
	if got := p.Retained(); got != 6 {
		t.Fatalf("retained with states %d, want 6", got)
	}
	if got := p.Drops(); got != 6 {
		t.Fatalf("drops with states %d, want 6", got)
	}

	// The retained buffers are still served as hits.
	p.Get(8)
	p.Get(8)
	p.Get(8) // third is a miss: the class only kept two
	hits, misses := p.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("(hits %d, misses %d), want (2, 1)", hits, misses)
	}
}

// TestPoolUnboundedRetention: perClass <= 0 disables the cap (the
// pre-daemon behavior for callers that manage lifetime themselves).
func TestPoolUnboundedRetention(t *testing.T) {
	p := NewBufferPoolRetain(0)
	for i := 0; i < 500; i++ {
		p.Put(make([]complex128, 4))
	}
	if got := p.Retained(); got != 500 {
		t.Fatalf("retained %d, want 500", got)
	}
	if got := p.Drops(); got != 0 {
		t.Fatalf("drops %d, want 0", got)
	}
}

// TestPoolDefaultRetention: NewBufferPool applies DefaultPoolRetain.
func TestPoolDefaultRetention(t *testing.T) {
	p := NewBufferPool()
	for i := 0; i < DefaultPoolRetain+10; i++ {
		p.Put(make([]complex128, 2))
	}
	if got := p.Retained(); got != DefaultPoolRetain {
		t.Fatalf("retained %d, want %d", got, DefaultPoolRetain)
	}
	if got := p.Drops(); got != 10 {
		t.Fatalf("drops %d, want 10", got)
	}
}

// TestGetStateWidthLimit: the pool refuses the same widths NewState does,
// so no caller can size an allocation from an unchecked qubit count.
func TestGetStateWidthLimit(t *testing.T) {
	p := NewBufferPool()
	for _, n := range []int{0, -1, MaxQubits + 1, 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GetState(%d) did not panic", n)
				}
			}()
			p.GetState(n)
		}()
	}
	if s := p.GetState(3); s.NumQubits() != 3 {
		t.Fatalf("GetState(3) returned %d qubits", s.NumQubits())
	}
}

// TestBufferPoolReuse pins the zero-alloc contract: the second acquisition
// of every pooled shape is a free-list hit returning the same object.
func TestBufferPoolReuse(t *testing.T) {
	p := NewBufferPool()

	buf := p.Get(16)
	if len(buf) != 16 {
		t.Fatalf("Get(16) returned %d elements", len(buf))
	}
	p.Put(buf)
	if again := p.Get(16); &again[0] != &buf[0] {
		t.Fatal("Get after Put did not reuse the buffer")
	}

	s := p.GetState(4)
	if s.NumQubits() != 4 {
		t.Fatalf("GetState(4) returned %d qubits", s.NumQubits())
	}
	p.PutState(s)
	if again := p.GetState(4); again != s {
		t.Fatal("GetState after PutState did not reuse the register")
	}

	hits, misses := p.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("Stats() = %d hits, %d misses; want 2, 2", hits, misses)
	}

	// nil returns are ignored.
	p.Put(nil)
	p.PutState(nil)
}

// TestBufferPoolSteadyStateAllocs proves the pooled cycle itself is
// allocation-free after warm-up.
func TestBufferPoolSteadyStateAllocs(t *testing.T) {
	p := NewBufferPool()
	p.PutState(p.GetState(6))
	p.Put(p.Get(64))
	allocs := testing.AllocsPerRun(100, func() {
		s := p.GetState(6)
		b := p.Get(64)
		p.Put(b)
		p.PutState(s)
	})
	if allocs != 0 {
		t.Fatalf("steady-state pooled cycle allocates %.1f objects per op", allocs)
	}
}
