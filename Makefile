GO ?= go

.PHONY: build test lint check chaos crash fuzz bench bench-smoke benchmark-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint checks that every Go file is gofmt-clean (testdata excepted: the
# tracvet golden files pin line numbers), then runs the stock vet plus
# tracvet, the repo's own invariant suite (catalog-version bumps, lock
# pairing, error wrapping, checked Close/Sync, lock-order cycles, batch-pool
# ownership, crashfs discipline). Exits non-zero on any finding.
lint:
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/tracvet ./...

# check is the CI gate: lint everything, run the concurrency-sensitive
# packages (parallel scan, plan cache, plan templates, MVCC; the planner's
# property tests drive parallel scans whose batches view segment memory
# across goroutines, and storage owns that memory; the exec re-Open tests and
# the server's DDL-race hammer run reused plan trees; the LRU behind the plan
# cache and the templates is hammered from several goroutines; the sniffer
# fleet polls every source concurrently into one engine) under the race
# detector, run the crash-injection recovery sweeps, then smoke every
# benchmark — BenchmarkPlanSelect's fresh and template paths included — so
# bench-only code paths cannot rot unnoticed. The serving layer's tests run
# twenty times over: its admission tests must hold by construction, not by
# winning a race against the goroutines they contend with. The tail-window
# race test runs ten times over under the race detector: scans and recency
# probes read windows that appends fill, seals drop and kind demotions
# replace. The report path (internal/core/... and the root package) runs
# under the race detector too: a report's recency leg runs on a goroutine of
# its own beside its user query, and the two consistency tests — a loader
# committing events with their Heartbeat advance while reports, point and
# wide, on one engine and on three shards, check that the newest event they
# return is the recency they report — run ten times over under it. It also
# runs each native fuzz target for ten seconds (see fuzz).
check: lint bench-smoke benchmark-smoke crash fuzz
	$(GO) test -race . ./internal/core/... ./internal/exec/... ./internal/planner/... ./internal/storage/... ./internal/engine/... ./internal/txn/... ./internal/shard/... ./internal/workload/... ./internal/server/... ./internal/lru/... ./internal/sniffer/... ./client/...
	$(GO) test -count 20 ./internal/server
	$(GO) test -race -count 10 -run '^TestTailWindowsRace$$' ./internal/exec
	$(GO) test -race -count 10 -run '^TestSnapshotConsistencyUnderConcurrentLoad$$' ./internal/core/report ./internal/shard

# crash kills the storage stack at every mutating filesystem operation and
# asserts the reopened database is a consistent cut: the engine sweep covers
# WAL append/fsync, segment spill, dump and manifest writes across repeated
# checkpoints; the sniffer sweep covers a full ingestion fleet recovering
# exactly-once against a never-crashed reference.
crash:
	$(GO) test -race -count=1 -run 'TestCrashRecoverySweep' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestFleetCrashRecoveryExactlyOnce' ./internal/sniffer/

# fuzz runs each native fuzz target for ten seconds beyond its checked-in
# corpus (testdata/fuzz/, which plain `go test` already replays): the SQL
# parser's parse → print → parse fixpoint, the wire's frame reader and
# payload decoders, the segment-file decoder, then the WAL scanner, the
# manifest reader and the checkpoint-dump decoder, and last the column
# constraints: a random single-column conjunct's typed selection loop and
# zone-map proofs against the row evaluator. `go test -fuzz` takes one
# target per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRoundTrip$$' -fuzztime 10s ./internal/sqlparser
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayloads$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzReadSegmentFile$$' -fuzztime 10s ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzScanWAL$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzReadManifest$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzLoadDump$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzConstraintMatchesEvaluator$$' -fuzztime 10s ./internal/exec

# bench-smoke runs every Go benchmark exactly once — not for numbers, just
# to prove the benchmark harnesses still build, run, and cross-check.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchmark-smoke runs the repository benchmark (BENCHMARK.json, bench/) on
# tiny datasets: all four workloads, untraced and traced, with the emitted
# metric names held against BENCHMARK.json. bench/ is a module of its own,
# so `go test ./...` at the root does not reach it.
benchmark-smoke:
	$(GO) test -C bench ./...

# chaos runs the ingestion robustness suite with elevated fault-injection
# rates and the race detector: fault-injected logs, retry/backoff, circuit
# breakers, durable-offset restarts, and the exactly-once drain check.
chaos:
	TRAC_CHAOS=1 $(GO) test -race -count=1 ./internal/gridsim/... ./internal/sniffer/...

# bench runs the repository benchmark (BENCHMARK.json, bench/) once per
# workload, end to end, at the length the benchmark declares. The last line
# each run prints is its result object; bench/README.md has the traced
# per-layer run and the self-check.
bench:
	for w in wire_point scan_join wide_sharded ingest_durable; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 22 --trace 0 || exit 1; \
	done
