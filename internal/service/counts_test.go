package service

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
)

// TestFormatCountsMatchesSprintf: FormatCounts' keys are exactly
// fmt.Sprintf("%0*b", width, bits) at every key width from 1 to 64, the
// width being the measurement count, or the qubit count for a circuit
// that measures nothing. Values wider than the width keep all their
// digits, as Sprintf does.
func TestFormatCountsMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 1; w <= 64; w++ {
		c := circuit.New("w", w)
		if w%2 == 0 {
			c.MeasureAll()
		}
		mask := ^uint64(0) >> (64 - w)
		counts := map[uint64]int{0: 1, mask: 2, 1 << (w - 1): 3, rng.Uint64() & mask: 4}
		if w < 64 {
			counts[1<<w|1] = 5
		}
		want := make(map[string]int, len(counts))
		for bits, n := range counts {
			want[fmt.Sprintf("%0*b", w, bits)] = n
		}
		if got := FormatCounts(counts, c); !maps.Equal(got, want) {
			t.Errorf("width %d (measured %d): FormatCounts = %v, want %v", w, len(c.Measurements()), got, want)
		}
		if got := newCountList(counts, c).format(); !maps.Equal(got, want) {
			t.Errorf("width %d: retained counts format as %v, want %v", w, got, want)
		}
	}
}

// TestRetiredJobCountsMatchDirectRun: GET /v1/jobs/{id} on a finished,
// retired job returns the histogram FormatCounts gives for a direct
// core.Run of the same configuration, though the job keeps its counts
// only as a sorted (bits, count) list.
func TestRetiredJobCountsMatchDirectRun(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reqs := []JobRequest{
		{Bench: "qv_n5d5", Trials: 640, Seed: 2},
		{Bench: "bv5", Trials: 64, Seed: 1},
		{QASM: "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n", Trials: 128, Seed: 4},
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		id, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, req := range reqs {
		if _, err := s.WaitJob(ctx, ids[i]); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		retired := s.jobs[ids[i]].retired
		s.mu.Unlock()
		if !retired {
			t.Fatalf("job %d finished but is not retired", i)
		}
		v, err := c.Job(ctx, ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("job %d: state %q (%s)", i, v.State, v.Error)
		}
		var circ *circuit.Circuit
		if req.Bench != "" {
			circ, err = bench.Build(req.Bench, req.Seed)
		} else {
			circ, err = circuit.ParseQASM(req.QASM)
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Run(core.Config{
			Circuit: circ, Device: device.Yorktown(), Trials: req.Trials, Seed: req.Seed,
			Mode: core.ModeReordered, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := FormatCounts(rep.Reordered.Counts, rep.Circuit); !maps.Equal(v.Counts, want) {
			t.Errorf("job %d (%s): GET counts %v, direct run %v", i, req.Bench, v.Counts, want)
		}
	}
}
