package statevec

import "fmt"

// BatchState packs K sibling n-qubit amplitude vectors contiguously — the
// structure-of-arrays register of the batched subtree executor. Each lane
// is an independent *State view aliasing one 2^n-amplitude stripe of the
// shared backing buffer, so per-lane operations (CopyFrom, ApplyPauli,
// sampling) use the ordinary State API while the batched kernel sweeps
// walk all lanes of one cache block before advancing.
type BatchState struct {
	n, lanes int
	buf      []complex128
	states   []State        // lane headers aliasing buf
	amps     [][]complex128 // per-lane amplitude slices for RunBatch
}

// NewBatchState allocates a batch register of `lanes` n-qubit lanes with
// unspecified contents.
func NewBatchState(n, lanes int) *BatchState {
	checkWidth(n)
	if lanes < 1 {
		panic(fmt.Sprintf("statevec: batch lane count %d < 1", lanes))
	}
	dim := 1 << uint(n)
	b := &BatchState{
		n:      n,
		lanes:  lanes,
		buf:    make([]complex128, dim*lanes),
		states: make([]State, lanes),
		amps:   make([][]complex128, lanes),
	}
	for i := 0; i < lanes; i++ {
		amp := b.buf[i*dim : (i+1)*dim : (i+1)*dim]
		b.states[i] = State{n: n, amp: amp}
		b.amps[i] = amp
	}
	return b
}

// Qubits returns the per-lane register width.
func (b *BatchState) Qubits() int { return b.n }

// Lanes returns the lane count K.
func (b *BatchState) Lanes() int { return b.lanes }

// Lane returns lane i as an ordinary state register. The returned pointer
// aliases the batch buffer and is only valid while the batch is held.
func (b *BatchState) Lane(i int) *State { return &b.states[i] }

// LaneAmps returns the per-lane amplitude slices of lanes [0, k), the form
// Program.RunBatch consumes. The returned slice aliases the batch buffer.
func (b *BatchState) LaneAmps(k int) [][]complex128 { return b.amps[:k] }
