//go:build !amd64 || purego

package statevec

import "testing"

// setAVX512 does nothing: this build has no ZMM sweeps to switch.
func setAVX512(testing.TB, bool) {}
