# Developer entry points. `make check` is the full pre-merge gate: build,
# gofmt, go vet, the repo's own vaxlint static analyzers (cross-table invariant,
# determinism-contract, and µflow attribution proofs, see DESIGN.md
# "Static analysis & invariants"), the test suite
# under the race detector, the chaos soak (fault injection into a full OS
# workload, DESIGN.md "Fault model & machine checks"), the crash-
# consistency proof (kill a checkpointed run mid-write, resume, demand
# bit-identical results; DESIGN.md "Checkpoint format & run supervision"),
# and a short fuzz smoke over the disassembler, instruction decoder,
# checkpoint loader, memory-state import, and the I-box's frame-window
# decode against per-byte translation.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build fmt vet lint vaxlint sarif escape-truth latency latency-truth test race soak farmsoak crash-consistency fuzz-smoke bench golden

check: build fmt vet vaxlint escape-truth latency-truth race soak farmsoak crash-consistency fuzz-smoke

build:
	$(GO) build ./...

# Every Go file, test data included, is gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# All sixteen analyzers, human-readable; vet is its own target above.
vaxlint:
	$(GO) run ./cmd/vaxlint -vet=false ./...

# Same run as a SARIF 2.1.0 log on stdout — for CI code-scanning upload.
sarif:
	$(GO) run ./cmd/vaxlint -vet=false -sarif ./...

# Same run, one JSON object per finding on stdout — for editors and CI
# annotators.
lint:
	$(GO) run ./cmd/vaxlint -vet=false -json ./...

# Escape ground truth: diff the hotpath analyzer's composite-literal
# escape verdicts against `go build -gcflags=-m` over the real hot set;
# drift in either direction — a stack claim the compiler refutes, or an
# unpinned over-approximation — fails the gate (see
# internal/analysis/escape_truth_test.go).
escape-truth:
	$(GO) test -run TestEscapeGroundTruth ./internal/analysis

# Latency oracle (DESIGN.md §16): regenerate the committed LATENCY.md +
# latency.json from the microroutines (TestLatencyTruth with -update).
latency:
	$(GO) test -run '^TestLatencyTruth$$' -count=1 ./internal/analysis -args -update

# Latency oracle drift gate: re-derive the table in memory and diff both
# committed files (a one-cycle microroutine change fails here), then run
# the dynamic cross-check — every registered opcode and addressing mode
# single-stepped on a real machine must land inside its static bounds.
latency-truth:
	$(GO) test -run '^TestLatencyTruth$$' -count=1 ./internal/analysis
	$(GO) test -run 'TestLatency' ./internal/experiments

test:
	$(GO) test ./...

# Rewrite the committed histogram digests (internal/workload/testdata/
# golden.sha256) that TestGoldenDigests checks in tier-1. Only for a
# deliberate behaviour change, recorded and explained in CHANGES.md.
golden:
	$(GO) test -run '^TestGoldenDigests$$' -count=1 ./internal/workload -args -update

race:
	$(GO) test -race ./...

# Chaos soak: millions of cycles of OS workload with every fault-injection
# point firing; nothing worse than a machine check may come out.
soak:
	$(GO) test -run TestChaosSoak -race ./internal/fault

# Farm soak: race-enabled chaos smoke over the fleet supervisor — workers
# killed mid-sweep with the fault plane firing must leave the merged
# histograms bit-identical to the unperturbed same-seed run, and killing
# every worker must shed with causes instead of hanging.
farmsoak:
	$(GO) test -race -run 'TestFarmChaosRescue|TestFarmPoolExhaustion' ./internal/farm

# Crash consistency: interrupt a checkpointed run, truncate the newest
# snapshot generation (a simulated crash mid-write), resume, and require
# results bit-identical to an uninterrupted run — under the race detector.
crash-consistency:
	$(GO) test -race -run 'TestCheckpointResumeDeterminism|TestCrashConsistencyKillAndResume' ./internal/workload

# Short native-fuzz smoke per target; raise FUZZTIME for a real campaign.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDisasmOne -fuzztime $(FUZZTIME) ./internal/asm
	$(GO) test -fuzz=FuzzDecode$$ -fuzztime $(FUZZTIME) ./internal/vax
	$(GO) test -fuzz=FuzzDecodeSpecifier -fuzztime $(FUZZTIME) ./internal/vax
	$(GO) test -fuzz=FuzzCheckpointLoad -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -fuzz=FuzzMemoryImport -fuzztime $(FUZZTIME) ./internal/mem
	$(GO) test -fuzz=FuzzIStreamDifferential -fuzztime $(FUZZTIME) ./internal/cpu

# Regenerate every table and figure of the paper (see bench_test.go);
# the 108 paper-shape checks fail only here. Simulator speed is measured
# by the repo benchmark: `bash perfbench/run.sh` (see perfbench/METRICS.md);
# the analyzer suite's own cost, per analyzer with its findings count, by
# `go test -run '^$$' -bench BenchmarkAnalyzers -benchtime 1x ./internal/analysis`.
bench:
	$(GO) test -bench . -benchtime 1x
