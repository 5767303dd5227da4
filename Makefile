GO ?= go

.PHONY: all build vet test race fuzz fuzz-smoke obs-smoke loadgen-smoke remote-smoke ingest-smoke fleet-obs-smoke perfbench-smoke mutation prodcover cover bench examples experiments clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet race fuzz-smoke obs-smoke loadgen-smoke remote-smoke ingest-smoke fleet-obs-smoke perfbench-smoke cover
	$(GO) test ./...

# End-to-end sweep of the observability surface through the real CLI:
# access log, span tree, Prometheus exposition, pprof mount.
obs-smoke:
	$(GO) test -run 'TestObsSmoke|TestObservabilityEndToEnd|TestPrometheusGolden' ./cmd/ossm-serve ./internal/server

# Short load-generator runs against a live in-process server: nonzero
# throughput, zero errors, parseable report, and the usage errors. Part
# of the default gate.
loadgen-smoke:
	$(GO) test -run 'TestLoadgen' -count=1 ./cmd/ossm-loadgen

# End-to-end remote fleet: two real worker processes, a coordinator
# routing over them from a -topology file (including a SIGHUP reload),
# ossm-loadgen driving it over HTTP with zero errors, and the answers
# diffed bit-identically against the library. Part of the default gate.
remote-smoke:
	$(GO) test -run 'TestRemoteSmoke' -count=1 ./cmd/ossm-serve

# Durability gate: a real ossm-serve ingesting a live stream is
# SIGKILLed mid-stream, restarted on the same WAL directory, and must
# recover every acknowledged record with exact counts. Part of the
# default gate.
ingest-smoke:
	$(GO) test -run 'TestIngestSmoke' -count=1 ./cmd/ossm-serve

# Cross-process observability gate: two real worker processes plus a
# coordinator, a batch through the fleet, then the assembled trace at
# /v1/traces must stitch worker serve spans under the coordinator's RPC
# spans with non-empty shard attribution, /v1/fleetz must report a
# healthy fleet, and ossm-loadgen -fleetz must poll it. Part of the
# default gate.
fleet-obs-smoke:
	$(GO) test -run 'TestFleetObsSmoke' -count=1 ./cmd/ossm-serve

# Coverage floor for the packages the serving path leans on: the facade
# (bound queries, persistence, recipes), the HTTP server and the
# observability layer. Fails if any drops below $(COVER_FLOOR)%. The
# durability layer carries its own higher floor ($(WAL_COVER_FLOOR)%) —
# the crash-point harness is expected to exercise nearly every path.
COVER_FLOOR ?= 75
WAL_COVER_FLOOR ?= 85
cover:
	@check() { \
		line=$$($(GO) test -cover $$1 | grep -o 'coverage: [0-9.]*%' | head -1); \
		pct=$$(echo $$line | sed 's/coverage: //; s/%//'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
		echo "cover: $$1 $$pct% (floor $$2%)"; \
		ok=$$(echo "$$pct $$2" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "cover: $$1 below the $$2% floor"; exit 1; fi; \
	}; \
	for pkg in . ./internal/server ./internal/obs ./internal/shard ./internal/shard/remote; do \
		check $$pkg $(COVER_FLOOR) || exit 1; \
	done; \
	check ./internal/wal $(WAL_COVER_FLOOR)

race:
	$(GO) test -race ./...

# Short fuzzing pass over every parser (text/binary datasets, OSSM maps).
fuzz:
	$(GO) test -run Fuzz -fuzz FuzzReadText   -fuzztime 15s ./internal/dataset
	$(GO) test -run Fuzz -fuzz FuzzReadBinary -fuzztime 15s ./internal/dataset
	$(GO) test -run Fuzz -fuzz FuzzReadMap    -fuzztime 15s ./internal/core

# 10-second smoke of every fuzz target — part of the default test gate,
# so a regression any of them can find fails `make test`, not just a
# dedicated fuzzing run.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz FuzzReadText                -fuzztime 10s ./internal/dataset
	$(GO) test -run=NONE -fuzz FuzzReadBinary              -fuzztime 10s ./internal/dataset
	$(GO) test -run=NONE -fuzz FuzzReadMap                 -fuzztime 10s ./internal/core
	$(GO) test -run=NONE -fuzz 'FuzzBoundKernels$$'        -fuzztime 10s ./internal/core
	$(GO) test -run=NONE -fuzz FuzzBoundKernelsLargeCells  -fuzztime 10s ./internal/core
	$(GO) test -run=NONE -fuzz FuzzSumDiff                 -fuzztime 10s ./internal/core
	$(GO) test -run=NONE -fuzz FuzzIndexRoundTrip          -fuzztime 10s .
	$(GO) test -run=NONE -fuzz FuzzAppenderSnapshot        -fuzztime 10s .
	$(GO) test -run=NONE -fuzz FuzzWALReplay               -fuzztime 10s ./internal/wal
	$(GO) test -run=NONE -fuzz FuzzHashTreeCount           -fuzztime 10s ./internal/mining
	$(GO) test -run=NONE -fuzz FuzzPairCount               -fuzztime 10s ./internal/mining
	$(GO) test -run=NONE -fuzz FuzzParseTraceParent        -fuzztime 10s ./internal/obs

# End-to-end benchmark smoke: a 2-second window of each workload
# (perfbench/README.md) must check every answer correct with no failed
# op. The mining workloads run untraced and traced (the traced run also
# replays the per-layer consistency checks); the serving workloads run
# untraced. Part of the default gate.
perfbench-smoke:
	@for run in mine-prune:0 mine-prune:1 mine-count:0 mine-count:1 serve-fleet:0 serve-ingest:0; do \
		w=$${run%:*}; tr=$${run#*:}; \
		last=$$(bash perfbench/run.sh --workload $$w --seconds 2 --setups 1 --trace $$tr | tail -n 1); \
		echo "perfbench-smoke $$w trace=$$tr: $$(echo "$$last" | cut -c1-60)"; \
		echo "$$last" | grep -q '"correct": *true' || { echo "perfbench-smoke: $$w trace=$$tr answers not correct"; exit 1; }; \
		echo "$$last" | grep -q '"failed": *0[,}]' || { echo "perfbench-smoke: $$w trace=$$tr had failed ops"; exit 1; }; \
	done

# Mutation gate: every committed mutation (testdata/mutations/*.patch,
# each naming the gate that must catch it) is applied to a scratch copy
# of the tree, and its gate must fail there (scripts/mutation.sh). Kept
# out of `make test`.
mutation:
	bash scripts/mutation.sh

# Production-coverage audit: builds every binary with -cover, runs each
# end to end (scripts/prodcover.sh lists the runs), adds the root
# package's tests, and prints every function none of them reached. Kept
# out of `make test`.
prodcover:
	bash scripts/prodcover.sh

# Scaled-down deterministic versions of every paper table/figure plus
# micro-benchmarks (see EXPERIMENTS.md for recorded full runs).
bench:
	$(GO) test -bench=. -benchmem ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/retail
	$(GO) run ./examples/alarms
	$(GO) run ./examples/explore
	$(GO) run ./examples/stream

# Regenerate every table and figure of the paper at the default scale.
experiments:
	$(GO) run ./cmd/ossm-bench all

clean:
	$(GO) clean ./...
