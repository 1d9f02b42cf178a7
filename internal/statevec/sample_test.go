package statevec

import (
	"math/rand"
	"testing"
)

// TestSampleNeverZeroProbability is State.Sample's round-off fallback on
// {0.5, 1e-170}: |1e-170|^2 underflows to 0, so outcome 1 has probability
// 0 and a uniform above 0.25 must fall back to outcome 0, the last one
// with positive probability, not to the last nonzero amplitude.
func TestSampleNeverZeroProbability(t *testing.T) {
	s, err := FromAmplitudes([]complex128{0.5, 1e-170})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := s.Sample(rng); got != 0 {
			t.Fatalf("draw %d: Sample returned outcome %d, whose probability is 0", i, got)
		}
	}
}
