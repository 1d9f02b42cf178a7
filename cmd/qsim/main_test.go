package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs qsim itself when QSIM_TEST_ARGS is set, so a test can
// start the test binary as the CLI and read its exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("QSIM_TEST_ARGS"); ok {
		os.Args = append([]string{"qsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestParRejectsRemovedModes: -par names only the subtree decomposition;
// the removed chunked and subtree-batched modes exit 1 with an error
// naming the valid choice.
func TestParRejectsRemovedModes(t *testing.T) {
	for _, mode := range []string{"chunked", "subtree-batched"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "QSIM_TEST_ARGS=-bench bv4 -trials 8 -workers 2 -par "+mode)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("-par %s: %v, want exit status 1\n%s", mode, err, out)
		}
		if !strings.Contains(string(out), "unknown parallel mode") || !strings.Contains(string(out), "(subtree)") {
			t.Errorf("-par %s: output does not name the valid mode:\n%s", mode, out)
		}
	}
}
