# CI entry points. `make ci` is the gate, ordered cheapest-first so the
# fastest check that can fail, fails first: format check, then the
# static-analysis gate (`lint` = go vet + the in-repo mclint suite —
# before any compile/test work because a determinism or cancellation
# violation invalidates everything downstream), then build, the
# race-tested short suite, a one-iteration benchmark smoke pass over the
# transient/campaign benchmarks (catches perf-path regressions that only
# show up when the solver actually runs), an mcserved smoke run that
# boots the HTTP campaign service and drives one small campaign through
# its own API, and a fabric smoke run that shards a campaign across two
# HTTP workers and checks the merged result against the single-node
# run. `make test` runs the full suite including the long Monte-Carlo
# campaigns.

GO ?= go
GOFMT ?= gofmt

# Perf trajectory snapshot number: bump per PR (or override with
# `make bench-json BENCH_N=7`) so BENCH_<N>.json files accumulate and
# bench-diff always compares the two most recent.
BENCH_N ?= 10
BENCH_PREV = $(shell expr $(BENCH_N) - 1)

.PHONY: ci fmt vet lint lint-json build perfbench-check test race bench bench-json bench-smoke bench-diff fuzz-smoke serve-smoke fabric-smoke load load-smoke

ci: fmt lint build perfbench-check race bench-smoke serve-smoke fabric-smoke load-smoke

# gofmt gate: fail with the offending file list when any file is unformatted.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static-analysis gate: go vet plus mclint, the in-repo suite enforcing
# the engine's determinism (detrand, maporder), cancellation (ctxflow),
# hot-path allocation (hotalloc) and error-handling (errdrop) contracts.
# Zero unsuppressed findings or the build fails; see cmd/mclint and
# README "Static analysis" for the directive escape hatch.
lint: vet
	$(GO) run ./cmd/mclint

# Machine-readable findings for the CI artifact: always exits 0 via the
# trailing guard (the blocking gate is `lint`), so the artifact uploads
# even when findings exist.
lint-json:
	$(GO) run ./cmd/mclint -json > mclint.json || true

build:
	$(GO) build ./...

# The benchmark of record (perfbench/) is its own module, so ./... above
# never reaches it: vet and test it against the current tree so a core or
# monitor API change cannot break the benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full suite, including the long Monte-Carlo campaigns.
test:
	$(GO) test ./...

# Race-tested subset: -short skips the long campaigns so the ~10x race
# overhead stays within CI budget while still exercising every
# parallelized runner.
race:
	$(GO) test -race -short ./...

# Paper-vs-measured benchmark table (one pass per artifact).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Perf trajectory snapshot: the full benchmark suite in `go test -json`
# event form (benchstat reads it directly: `benchstat BENCH_$(BENCH_N).json`,
# and cmd/benchdiff compares two snapshots without external tools).
# BENCH_N bumps per PR so the trajectory accumulates.
bench-json:
	$(GO) test -bench=. -benchtime=1x -run=^$$ -json . > BENCH_$(BENCH_N).json

# Benchstat-style regression report between the two most recent
# snapshots, implemented in-repo (cmd/benchdiff, stdlib only) so CI needs
# no extra tooling. Fails on a >30% ns/op regression in the pinned
# hot-path benchmarks (SPICE linear transient, batched signature engine,
# streaming reduction); everything else is report-only. The CI workflow
# runs it as a non-blocking report step — single-iteration snapshots are
# noisy, so only humans act on it.
bench-diff:
	$(GO) run ./cmd/benchdiff -old BENCH_$(BENCH_PREV).json -new BENCH_$(BENCH_N).json

# Smoke gate: single-iteration run of the SPICE transient, the
# SPICE-campaign (rebuild, template and batched trial engines), the
# batched-signature-engine, the streaming-reduction, the
# registry-dispatch, the null-calibration and the
# checkpoint-cadence benchmarks (fast path, Newton baseline, CUT
# output, trial templates, fault table, LUT capture vs the LUT-less
# reference bank, the warm per-die exact signature, Reduce vs Run, spec
# dispatch, streamed null calibration,
# span reduction with/without a checkpoint sink) — proves the hot paths
# still execute end to end.
bench-smoke:
	$(GO) test -bench='TransientTowThomas|SpiceCUT|SpiceTrialEngine|FaultTableSpice|SignatureCapture|ExactSignatureScratch|AveragedNDF|BankClassify|BankLUTBuild|RegistryDispatch|CampaignReduce1M|CampaignRun1M|NoiseNullCalibration|CheckpointOverhead' -benchtime=1x -run=^$$ .

# Short-budget fuzz pass over the SPICE netlist parser, the signature
# binary decoder, the trial-template mutation engine, the fabric job-log
# replay and the shard accumulator codecs (seed corpora are checked in
# under testdata/fuzz). Each target gets 10s — enough to exercise the
# mutator on every seed class without blowing the CI budget. `go test -fuzz` accepts one target per
# invocation, hence the per-target runs.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz='^FuzzParseValue$$' -fuzztime=10s ./internal/spice
	$(GO) test -run=^$$ -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/spice
	$(GO) test -run=^$$ -fuzz='^FuzzTemplateMutation$$' -fuzztime=10s ./internal/spice
	$(GO) test -run=^$$ -fuzz='^FuzzUnmarshalBinary$$' -fuzztime=10s ./internal/signature
	$(GO) test -run=^$$ -fuzz='^FuzzJobLogReplay$$' -fuzztime=10s ./internal/fabric
	$(GO) test -run=^$$ -fuzz='^FuzzShardBlobUnmarshal$$' -fuzztime=10s ./internal/testbench

# HTTP service smoke: boot mcserved on an ephemeral port and run one
# small campaign through its own API (list, submit, poll, result).
serve-smoke:
	$(GO) run ./cmd/mcserved -smoke

# Distributed-fabric smoke: coordinator + two in-process HTTP workers
# run a sharded yield campaign with one deliberately dropped lease; the
# merged result must be bit-identical to the single-node run and the
# dropped shard must be re-leased after its TTL.
fabric-smoke:
	$(GO) run ./cmd/mcserved -fabric-smoke

# Load gate: replay the deterministic mixed workload through an
# in-process mcserved, write the throughput/latency report, and fail on
# a regression against the checked-in baseline (throughput floor 1/4x,
# latency quantile ceiling 4x — wide enough for machine variation, tight
# enough to catch a blocking instrument or accidental O(n^2) route; see
# cmd/mcload). LOAD_BASELINE.json regenerates with
# `go run ./cmd/mcload -baseline LOAD_BASELINE.json -update-baseline`.
load:
	$(GO) run ./cmd/mcload -jobs 40 -concurrency 4 -seed 1 \
		-baseline LOAD_BASELINE.json -report load_report.json

# Short load profile for the CI gate: same workload, fewer jobs.
load-smoke:
	$(GO) run ./cmd/mcload -jobs 12 -concurrency 4 -seed 1 \
		-baseline LOAD_BASELINE.json -report load_report.json
