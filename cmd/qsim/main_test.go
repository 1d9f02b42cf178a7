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

// qsimExit runs the CLI with args and returns its output and exit status.
func qsimExit(t *testing.T, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "QSIM_TEST_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("%s: %v", args, err)
	}
	if ee != nil {
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

// TestParRejectsRemovedModes: the removed exact fusion mode exits 1 with
// an error naming the valid modes, and the removed -par and -stripes
// flags fail as unknown flags (status 2 from the flag package).
func TestParRejectsRemovedModes(t *testing.T) {
	const base = "-bench bv4 -trials 8 -workers 2 "
	if out, code := qsimExit(t, base+"-fuse exact"); code != 1 || !strings.Contains(out, "(off, numeric)") {
		t.Errorf("-fuse exact: exit %d, want 1 naming (off, numeric):\n%s", code, out)
	}
	for _, flag := range []string{"-par subtree", "-stripes 4"} {
		name := strings.Fields(flag)[0]
		out, code := qsimExit(t, base+flag)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+name) {
			t.Errorf("%s: exit %d, want 2 for an unknown flag:\n%s", flag, code, out)
		}
	}
}
