//go:build !amd64 || purego

package main

import "repro/internal/statevec"

// flopRoofs is empty: the roof loops are amd64 assembly.
func flopRoofs(statevec.KernelFeatures) []flopRoof { return nil }
