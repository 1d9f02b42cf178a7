//go:build !amd64 || purego

package main

// flopRoofs is empty: the roof loops are amd64 assembly.
func flopRoofs(bool) []flopRoof { return nil }
