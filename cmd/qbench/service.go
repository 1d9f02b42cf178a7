package main

import (
	"context"
	"fmt"

	"repro/internal/service"
	"repro/internal/statevec"
)

// buildServiceScenarios benchmarks the daemon's job latency in-process
// (no HTTP: Submit + WaitJob against a 1-worker service core), isolating
// what the shared caches buy a long-running process:
//
//   - service-cold resets the process-global segment cache before every
//     repetition, so each job pays full kernel compilation — the per-
//     invocation cost a one-shot CLI pays on every run.
//   - service-warm submits the identical job against the warm daemon, so
//     every repetition runs all-hit against the segments the warmup
//     compiled and draws its state vectors from the warm arena.
//
// Both carry the sharing invariant (ops == the direct run's), so the
// daemon path can never silently change the computation it schedules.
// The job names fuse "exact": the daemon's default, "off", compiles
// nothing, so it would leave the segment cache these scenarios measure
// out of the path.
func buildServiceScenarios(cfg config) ([]scenario, error) {
	const benchName = "qv_n5d3"
	req := service.JobRequest{Bench: benchName, Trials: cfg.trials, Seed: cfg.seed, Fuse: "exact"}
	srv := service.New(service.Config{Workers: 1, QueueCap: 4})
	srv.Start()
	runJob := func() (int64, error) {
		id, err := srv.Submit(req)
		if err != nil {
			return 0, err
		}
		v, err := srv.WaitJob(context.Background(), id)
		if err != nil {
			return 0, err
		}
		if v.State != service.StateDone {
			return 0, fmt.Errorf("service job ended %q: %s", v.State, v.Error)
		}
		return v.Ops, nil
	}
	// The static op count is discovered from the first execution: the
	// daemon derives its plan from (bench, trials, seed) alone, so every
	// subsequent repetition must reproduce it exactly.
	statevec.ResetSegmentCache()
	static, err := runJob()
	if err != nil {
		return nil, fmt.Errorf("service scenario probe: %w", err)
	}
	return []scenario{
		{"service-cold", static, func() (int64, error) {
			statevec.ResetSegmentCache()
			return runJob()
		}},
		{"service-warm", static, func() (int64, error) {
			return runJob()
		}},
	}, nil
}
