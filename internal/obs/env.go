package obs

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// EnvMeta stamps a benchmark or metrics artifact with enough environment
// metadata to decide, later, whether two measurements are comparable:
// toolchain, platform, parallelism, source revision and wall-clock time.
// BENCH_kernels.json (cmd/kernbench) carries one.
type EnvMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"git_commit,omitempty"`
	Timestamp  string `json:"timestamp"` // RFC3339, UTC
}

// CaptureEnv snapshots the current environment. The git commit is
// best-effort (empty when git or the work tree is unavailable); a
// "-dirty" suffix marks uncommitted changes.
func CaptureEnv() EnvMeta {
	return EnvMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit:  gitCommit(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	if commit == "" {
		return ""
	}
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(status))) > 0 {
		commit += "-dirty"
	}
	return commit
}
