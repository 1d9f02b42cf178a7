//go:build !amd64 || purego

package statevec

import "testing"

// setISA reports whether this build runs the KernelISA level isa: only
// "go", which it runs already.
func setISA(_ testing.TB, isa string) bool { return isa == "go" }
