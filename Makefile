# Development gates. CI (.github/workflows/ci.yml) runs the same steps;
# `make lint` is the contributor-facing one-liner for the static gate.

GO ?= go

.PHONY: all build test race bench perf lint fuzz sweep-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage for every concurrent runtime and the benchmark.
race:
	$(GO) test -race ./internal/island/... ./internal/supervise/... \
		./internal/masterslave/... ./internal/cellular/... ./internal/p2p/... \
		./internal/cluster/... ./internal/hga/... ./internal/ga/... \
		./internal/transport/... ./cmd/pgaperf/

bench:
	$(GO) test -bench=. -benchmem ./...

# Perf gate: hard allocation budgets on the generation hot path (zero
# steady-state allocs for the sequential engines, small fixed budgets
# for parallel/island), then the JSON benchmark report vs the seed
# baselines (BENCH_8.json — uploaded as a CI artifact). -gate 1.0
# fails the target when a gated word-path benchmark stops beating its
# seed baseline.
perf:
	$(GO) test -run 'AllocBudget' -count=1 ./internal/ga/ ./internal/cellular/ ./internal/island/
	$(GO) run ./cmd/pgabench -json -quick -gate 1.0 -out BENCH_8.json

# Static gate: pgalint (determinism + concurrency contracts) and vet,
# including explicit copylocks/unusedresult passes. -time reports
# per-rule wall time; the 60s deadline fails the gate if the
# interprocedural engine's cost ever outgrows the module, and the
# per-rule budget catches a single rule going quadratic long before
# that. -baseline is the suppression ratchet: the //pgalint:ignore
# count may not grow past lint-baseline.txt without a reviewed bump.
lint:
	$(GO) run ./cmd/pgalint -time -deadline 60s -rulebudget 20s -baseline lint-baseline.txt ./...
	$(GO) vet ./...
	$(GO) vet -copylocks -unusedresult ./...

# Short local fuzz passes for the property-tested surfaces: the persist
# wire decoder, the packed BitString vs its []bool reference model, and
# the run-spec parser (structured errors, never panics).
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalPopulation -fuzztime=30s ./internal/persist/
	$(GO) test -fuzz=FuzzBitStringOps -fuzztime=30s ./internal/genome/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/spec/

# Sweep determinism smoke: validate every checked-in sweep config, then
# run the smoke sweep twice and require byte-identical result files.
sweep-smoke:
	@for f in examples/sweeps/*.json; do \
		$(GO) run ./cmd/pgarun -config $$f -validate || exit 1; \
	done
	$(GO) run ./cmd/pgarun -config examples/sweeps/smoke.json -quiet -out /tmp/sweep-a.json
	$(GO) run ./cmd/pgarun -config examples/sweeps/smoke.json -quiet -out /tmp/sweep-b.json
	cmp /tmp/sweep-a.json /tmp/sweep-b.json
	@echo "sweep-smoke: determinism OK"
