package statevec

// SampleIndex returns the outcome index of uniform u on amp by
// inverse-CDF sampling: the first index i at which the running sum of
// |amp[j]|^2, j <= i, added in index order, exceeds u. When round-off
// leaves the whole sum at or below u, it is the last index with
// |amp[i]|^2 > 0 (the last index when there is none), so an outcome of
// zero probability is never returned unless every outcome has it.
func SampleIndex(amp []complex128, u float64) int {
	var cum float64
	for i, a := range amp {
		cum += real(a)*real(a) + imag(a)*imag(a)
		if u < cum {
			return i
		}
	}
	for i := len(amp) - 1; i >= 0; i-- {
		if a := amp[i]; real(a)*real(a)+imag(a)*imag(a) > 0 {
			return i
		}
	}
	return len(amp) - 1
}
