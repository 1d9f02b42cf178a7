GO ?= go

.PHONY: build vet test race race-verify bench bench-json perfbench verify verify-deep selftest fuzz-smoke metrics-smoke serve-smoke trace-smoke asm-digest loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel executors share MSV trackers and work queues across
# goroutines; always gate changes to them on the race detector. The obs
# package's histograms and sampler are written to concurrently by every
# parallel executor, so they ride along, as do qsimd's worker pool and
# job retention (service), the span tracer and its ring (trace) and the
# pipeline that drives them (core).
race:
	$(GO) test -race ./internal/sim/... ./internal/reorder/... ./internal/obs/... ./internal/service ./internal/trace ./internal/core

# Compiled programs and their segments are shared by every worker of a
# run; race-verify drives the compiled paths (numeric fusion, and the
# FuseOff programs reverse execution compiles) under the race detector,
# end to end through the CLI.
race-verify:
	$(GO) test -race ./internal/statevec/... ./internal/sim/... ./internal/reorder/... ./internal/difftest/... ./internal/obs/...
	$(GO) run -race ./cmd/qsim -bench qv_n5d5 -mode both -fuse numeric -workers 4 -trials 256
	$(GO) run -race ./cmd/qsim -bench qv_n5d5 -mode both -restore adaptive -budget 2 -workers 4 -trials 256
	$(GO) run -race ./cmd/qsim -bench qft5 -mode both -fuse numeric -restore uncompute -trials 256

bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ .

# Machine-readable kernel/fusion benchmark results for regression tracking.
bench-json:
	$(GO) run ./cmd/kernbench -out BENCH_kernels.json

# The repository benchmark: one 10 s run (seed 1, tracing off) of every
# workload BENCHMARK.json declares. Each run prints its metrics as one JSON
# line last; the build goes to the gitignored .bench_build.
PERFBENCH_WORKLOADS = $(shell sed -n '/"workloads"/,/^  \]/s/.*"name": "\(.*\)".*/\1/p' BENCHMARK.json)

perfbench:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "== $$w"; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# Non-test Go lines per package outside perfbench/ and examples/, then
# their total: the line counts ROADMAP.md and CHANGES.md quote.
loc:
	@for d in $$(find cmd internal -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		printf '%6d %s\n' $$(cat $$(ls $$d/*.go | grep -v _test) | wc -l) $$d; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# One sha256 (first 16 hex digits) per TEXT symbol of
# internal/statevec/kernels_amd64.s, over the instruction bytes go tool
# objdump reads from the statevec test binary (built into the gitignored
# .asm_digest). Run it on two trees and diff the outputs to check that
# the assembly's machine code is byte-identical. kern2FMAQ0512 loads its
# permutation tables (q0lo, q0hi) RIP-relative: the displacement, and so
# that symbol's digest, moves whenever the text section grows, with no
# change to the routine.
asm-digest:
	@mkdir -p .asm_digest
	@$(GO) test -c -o .asm_digest/statevec.test ./internal/statevec
	@$(GO) tool objdump -s 'statevec\.' .asm_digest/statevec.test | \
		awk '/^TEXT/ { sym = ($$3 ~ /kernels_amd64\.s$$/) ? $$2 : ""; next } sym != "" { print sym, $$3 }' \
		> .asm_digest/bytes.txt
	@for s in $$(cut -d' ' -f1 .asm_digest/bytes.txt | uniq); do \
		printf '%s %s\n' "$$(awk -v s="$$s" '$$1 == s { printf "%s", $$2 }' .asm_digest/bytes.txt | \
			sha256sum | cut -c1-16)" "$$s"; \
	done | sort -k2

# The purego pass runs the statevec, sim and difftest suites (the golden
# corpus included) on the portable Go kernels, so the fallback behind the
# amd64 AVX2 kernels stays checked on machines that have AVX2.
verify: build vet test race
	$(GO) test -tags purego ./internal/statevec ./internal/sim ./internal/difftest

# perfbench is its own module (go vet ./... skips it) but calls the sim,
# core and service APIs, so an API break fails vet rather than the
# benchmark run. Any file gofmt would rewrite fails vet too. The arm64
# pass proves the build without the amd64 assembly kernels compiles.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	cd perfbench && $(GO) vet .

# End-to-end observability check: run a QV circuit with metrics capture,
# then re-read the file and verify the executed counters agree with the
# static plan analysis (ops == OptimizedOps, emitted == trials, ...).
# -prom-smoke additionally serves the recorded metrics on an ephemeral
# port, scrapes /metrics over HTTP in-process, and validates the
# Prometheus text exposition format.
metrics-smoke: build
	$(GO) run ./cmd/qsim -bench qv_n5d5 -trials 512 -mode both -metrics /tmp/qsim_metrics_smoke.json -prom-smoke -sample-interval 20ms
	$(GO) run ./cmd/qsim -verify-metrics /tmp/qsim_metrics_smoke.json

# End-to-end tracing check: run a fused QV circuit with span-trace
# capture, then re-read the exported Chrome trace-event JSON and verify
# it is Perfetto-loadable with exact span nesting (one root, every
# parent resolvable, children contained in their parents). The second
# run is qsimd's default path (FuseOff, one worker: the sequential walk
# whose step events the sink writes); its digest must list the walk's
# snapshot_push events. The serve smoke (below, also under verify-deep)
# covers the HTTP side: traces scraped from a live qsimd over /v1/traces
# with the traceparent header propagated and segment-compile spans
# reconciled against segcache misses.
trace-smoke: build
	$(GO) run ./cmd/qsim -bench qv_n5d5 -trials 512 -mode reordered -fuse numeric -workers 2 -trace-out /tmp/qsim_trace_smoke.json
	$(GO) run ./cmd/qsim -verify-trace /tmp/qsim_trace_smoke.json
	$(GO) run ./cmd/qsim -bench qv_n5d5 -trials 512 -mode reordered -fuse off -workers 1 -trace-out /tmp/qsim_trace_smoke_off.json -trace-summary > /tmp/qsim_trace_smoke_off.txt
	cat /tmp/qsim_trace_smoke_off.txt
	grep -q '^  snapshot_push ' /tmp/qsim_trace_smoke_off.txt
	$(GO) run ./cmd/qsim -verify-trace /tmp/qsim_trace_smoke_off.json

# Daemon smoke test: start a qsimd core on a loopback listener, drive it
# with the client-side load generator (one cold job, then identical jobs
# fanned out across tenants), and assert the daemon contract end to end —
# histograms bit-identical to direct core.Run, warm jobs all-hit against
# the shared segment cache, cache/pool bounds respected, /metrics a valid
# exposition with per-tenant series, and drain completing every admitted
# job before refusing new work.
serve-smoke: build
	$(GO) run ./cmd/repro -exp service

# The seeded differential self-test: randomized workloads through every
# executor, cross-checked bit-for-bit against naive execution.
selftest: build
	$(GO) run ./cmd/qsim -selftest -seed 1 -selftest-runs 50

# Short fuzz passes over every fuzz target (one -fuzz per package run).
fuzz-smoke:
	$(GO) test -run ^$$ -fuzz FuzzTrialSerializeRoundTrip -fuzztime 10s ./internal/trial
	$(GO) test -run ^$$ -fuzz FuzzGeometricSkip -fuzztime 10s ./internal/trial
	$(GO) test -run ^$$ -fuzz FuzzSortMatchesStable -fuzztime 10s ./internal/reorder
	$(GO) test -run ^$$ -fuzz FuzzValidatedPlanExecutes -fuzztime 10s ./internal/sim
	$(GO) test -run ^$$ -fuzz FuzzParseQASM -fuzztime 10s ./internal/circuit
	$(GO) test -run ^$$ -fuzz FuzzCompileParity -fuzztime 10s ./internal/statevec
	$(GO) test -run ^$$ -fuzz FuzzDaggerRoundTrip -fuzztime 10s ./internal/statevec
	$(GO) test -run ^$$ -fuzz FuzzKernelAsmParity -fuzztime 10s ./internal/statevec
	$(GO) test -run ^$$ -fuzz FuzzKernelFMAParity -fuzztime 10s ./internal/statevec
	$(GO) test -run ^$$ -fuzz FuzzKernelZMMParity -fuzztime 10s ./internal/statevec
	$(GO) test -run ^$$ -fuzz FuzzKernelPauliParity -fuzztime 10s ./internal/statevec
	$(GO) test -run ^$$ -fuzz FuzzKernelDiagHParity -fuzztime 10s ./internal/statevec
	$(GO) test -run ^$$ -fuzz FuzzTapeParity -fuzztime 10s ./internal/statevec
	$(GO) test -run ^$$ -fuzz FuzzParseTraceparent -fuzztime 10s ./internal/trace

# The deep correctness gate: everything verify runs, plus vet, the race
# detector over the whole tree (includes the -short-gated deep
# differential sweep, the batch bit-identity sweep at 1/2/4/8 workers,
# and the restore-policy matrix), fuzz smoke, the CLI self-test, the
# daemon smoke test, the cross-circuit batch and restore-policy
# experiments end to end, and the 100-qubit Clifford RB example (the
# tableau plan path at width; it exits 1 unless the reordered run matches
# the baseline and executes exactly the plan's ops). The steady-state
# allocation contract is a Go test in internal/sim, so every go test run
# checks it.
verify-deep: build
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) selftest
	$(MAKE) trace-smoke
	$(MAKE) serve-smoke
	$(GO) run ./cmd/repro -exp batch
	$(GO) run ./cmd/repro -exp uncompute
	$(GO) run ./examples/clifford_rb
