# Development targets. `make check` is the tier-1 gate; `make race`
# covers the goroutine fan-out paths (ml batch prediction, sched batch
# checks, experiment worker pools, concurrent Evaluate on one model);
# `make bench` records the §6.4 micro-benchmark trajectory in
# BENCH_gsight.json.

GO ?= go

.PHONY: check race bench build vet vuln test fuzzsmoke crashcheck servecheck benchcheck docs-numbers docscheck nodeprecated loc loccheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# govulncheck is optional locally (skipped when not installed); CI
# installs it and fails on findings.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Run every fuzz target over its seed corpus (no random exploration;
# `go test -fuzz` does that — see ci.yml's fuzz job).
fuzzsmoke:
	$(GO) test -run '^Fuzz' ./internal/persist ./internal/faults ./internal/core ./internal/serve

# Kill-and-resume equivalence on the real gsight-sim binary: a run
# crashed twice and resumed from checkpoints must reproduce the
# uninterrupted run byte-for-byte.
crashcheck:
	scripts/crashcheck.sh

# SIGKILL-under-load failover on the real gsight-serve binary: the
# active is killed mid-load, the standby takes over through the lease,
# and the merged decision log must match an uninterrupted run
# byte-for-byte.
servecheck:
	scripts/servecheck.sh

# Alloc-regression smoke gate: low-alloc benchmarks must not allocate
# more per op than the latest BENCH_gsight.json entry records.
benchcheck:
	scripts/bench.sh check

# What a deletion pass removed stays removed: no Deprecated: marker in
# a .go file outside benchmark/ (a wrapper kept for old callers is
# deleted, not annotated), no import of the retired sortx package, none
# of the sealed view, the conflict budget or the shard option, and none
# of the peek-truncate-rewind protocol or the JSON forest format.
nodeprecated:
	@if grep -rnE --include='*.go' --exclude-dir=benchmark 'Deprecated:|"gsight/internal/sortx"|ClusterView|maxTxnAttempts|WithShards|FlushLog|RemoveWALsAfter|OpenAppendTruncated|ForestExport' .; then \
		echo "nodeprecated: a retired name is back (delete the wrapper; slices.SortFunc; Place takes *State; PlaceAll has no budget or shards; telemetry.Stream syncs and truncates, persist.Store recovers the WAL chain; predictor checkpoints are the model format)"; exit 1; \
	fi

check: build vet vuln test fuzzsmoke crashcheck servecheck benchcheck docscheck nodeprecated loccheck

# Non-test Go lines of the root module's product code (the figure
# CHANGES.md and ROADMAP quote).
loc:
	@(find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat; cat gsight.go) | wc -l

# The north star's "small" axis only ratchets down: product code may not
# grow past the figure the last deletion pass left. A PR that removes
# lines lowers LOC_CEILING to its own `make loc`; one that must add
# lines says why in CHANGES.md and raises it in the same commit.
LOC_CEILING = 26587
loccheck:
	@n=$$($(MAKE) -s loc); if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loccheck: $$n non-test lines > ceiling $(LOC_CEILING)"; exit 1; \
	fi

race:
	$(GO) test -race ./internal/ml ./internal/core ./internal/sched ./internal/experiments ./internal/telemetry ./internal/persist ./internal/serve \
		./internal/perfmodel ./internal/scenario ./internal/platform ./internal/sim ./internal/obs

bench:
	scripts/bench.sh

# Regenerate the start-up timing tables in DESIGN.md §16 and README from
# scripts/docnumbers/result.json (copy a fresh benchmark/out/result-*.json
# over it first to refresh the figures).
docs-numbers:
	$(GO) run ./scripts/docnumbers DESIGN.md README.md

# The generated tables must match the result file they quote.
docscheck:
	$(GO) run ./scripts/docnumbers -check DESIGN.md README.md
