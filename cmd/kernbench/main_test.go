package main

import (
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/statevec"
)

// TestRoofsFollowKernels: kernbench measures the flop roof of every
// instruction set the kernels use, decided from the capabilities rather
// than from the KernelISA name, so a new name cannot silently drop a roof.
// Each roof loop runs and reports a positive rate.
func TestRoofsFollowKernels(t *testing.T) {
	isa := statevec.KernelISA()
	want := map[string]int{}
	if strings.Contains(isa, "avx2") {
		want["mul-add"] = 96
	}
	if strings.Contains(isa, "fma") {
		want["fma"] = 96
	}
	if strings.Contains(isa, "avx512") {
		want["fma-zmm"] = 192
	}
	got := map[string]int{}
	for _, r := range flopRoofs(statevec.Kernels()) {
		got[r.name] = r.flops
	}
	if !maps.Equal(got, want) {
		t.Fatalf("kernels %q: roofs %v, want %v", isa, got, want)
	}
	for _, r := range roofCases(time.Millisecond) {
		if r.GFlops <= 0 {
			t.Fatalf("roof %s: %v GFLOP/s", r.Variant, r.GFlops)
		}
	}
}
