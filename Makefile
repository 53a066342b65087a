# Development targets. `make check` is the tier-1 gate and runs no
# benchmark: allocation budgets are AllocsPerRun tests inside `go test`
# (allocs_test.go), and timing belongs to the repository benchmark
# (BENCHMARK.json). `make race` covers the goroutine fan-out paths (the
# par worker pool; ml batch prediction, experiment worker pools,
# concurrent Evaluate on one model; start-up SLA-curve calibration,
# bootstrap labelling and row encoding). Placement is serial and has
# no fan-out of its own.

GO ?= go

.PHONY: check race build vet vuln test fuzzsmoke simcheck servecheck harnesscheck docs-numbers docscheck nodeprecated deadcheck fmtcheck loc loccheck

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
	$(GO) test -run '^Fuzz' ./internal/persist ./internal/faults ./internal/core ./internal/serve ./internal/workload ./internal/cli ./internal/telemetry

# Re-execution on the real `gsight sim`: the same seeded chaos run
# in two processes, at GOMAXPROCS=1 and at GOMAXPROCS=4, must
# write byte-identical decision logs and reports, and their logs render
# byte-identical traces and inspect views. Rerunning is the simulator's
# whole recovery story.
simcheck:
	scripts/simcheck.sh

# SIGKILL-under-load failover on the real `gsight serve`: the
# active is killed mid-load, the standby takes over through the lease,
# and the merged decision log must match an uninterrupted run
# byte-for-byte (and so must its inspect summary).
servecheck:
	scripts/servecheck.sh

# The benchmark harness is its own module (benchmark/go.mod), which
# `go vet ./...` and `go test ./...` above do not enter.
harnesscheck:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# What a deletion pass removed stays removed: no Deprecated: marker in
# a .go file outside benchmark/ (a wrapper kept for old callers is
# deleted, not annotated), no import of the retired sortx package, none
# of the sealed view, the conflict budget or the shard option, none
# of the peek-truncate-rewind protocol or the JSON forest format,
# neither the daemon's re-commit replay nor the platform's retry ladder,
# none of the standalone transaction API or the state wrapper, no
# functional option on the root API (it configures through config
# structs and the returned value's fields), none of the retired
# micro-benchmark history and its tools, no fallback dispatcher, no
# second debug-server entry point, none of the simulator's snapshot
# checkpointer, controller-crash injection or crash markers (a run is
# a pure function of its flags and recovers by rerunning), no
# predictor-unavailable error nothing returns, no second worker
# pool beside par.For (no sync.WaitGroup in product code outside
# internal/par and the paced producer/consumer of
# internal/serve/loadgen.go), no second append-only file writer beside
# telemetry.Stream (no bufio in internal/persist), no batch form of
# /v1/place and no acknowledgement type beside serve.PlaceAck (the
# daemon takes one request shape), no discrete-event engine (the simulator's
# timeline is two presorted slices, fault changes and job arrivals,
# merged by two cursors), no observability bundle or event twin types
# (each simulator event is one telemetry struct), no second simulator
# event stream (the decision log is the one; gsight inspect trace
# renders the Perfetto trace from it through obs.Tracer, and its step
# events replace the flight recorder), no second reading of the
# decision log (gsight inspect decodes each line into its telemetry
# struct, a daemon's through serve's WAL decoder), no placement
# record beside telemetry.PlacementDecision
# (a scheduler fills Request.Detail and logs nothing), no hand-written
# JSON under internal/ (encoding/json writes every line from the event
# structs' own tags), no one-off tree fit
# beside the forest's staged update, no QoS predictor beside core.Predictor
# (ESP, Pythia and the model variants are its constructors, it learns
# tail latency and JCT in log space itself, and every predictor answers
# a batch), no binary in cmd/ beside gsight and the
# gsight-sim entry the benchmark harness builds (every tool is a
# sub-command in internal/cli), no placer pool, commit stamp,
# re-proposal count or -placers flag (placement is serial; the pool's
# names live on only in the frozen benchmark's shim), and no fallback
# field on a scheduler (sched.ProposeOrDegrade is the one
# degradation rule; the benchmark's Gsight.Fallback lives on only in
# that shim, read by nothing).
nodeprecated:
	@if grep -rnE --include='*.go' --exclude-dir=benchmark 'Deprecated:|"gsight/internal/sortx"|ClusterView|maxTxnAttempts|WithShards|FlushLog|RemoveWALsAfter|OpenAppendTruncated|ForestExport|applyRecord|placedOutcome|RetryPolicy|PlacementRetries|SchedulerTxn|ErrTxnConflict|ClusterState|\.Base\(\)|\*ShardedState\)|With(Seed|Telemetry|Fallback|Placers|TopK)\(|buildOptions|BENCH_gsight|benchhist|scripts/bench\.sh|fallbackPlace|ServeDebugHealth|PeekCheckpoint|CheckpointMeta|checkpoint-interval|StepperState|\bInjectorState\b|ExportState|parallelFor|forEachOn|ErrControllerCrashed|ControllerCrash|CheckpointConfig|PlatformCheckpoint|crashMarker|skipCrashes|platform_resumes_total|ErrUnavailable|"gsight/internal/sim"|sim\.Engine|RunUntilCtx|SimInstruments|FitIndexed|FitSeeded' .; then \
		echo "nodeprecated: a retired name is back (delete the wrapper; slices.SortFunc; Place takes *State; PlaceAll has no budget or shards; telemetry.Stream syncs and truncates, persist.Store recovers the WAL chain and verifies its re-execution; predictor checkpoints are the model format; a placement asks the primary once; Place and PlaceAll share one *sched.State; the root API has one way to configure; allocation budgets are AllocsPerRun tests; ServeDebug is the one debug server; the simulator has no crash path and recovers by rerunning; par.For is the one worker pool; the simulator needs no event engine, its timeline is two presorted slices; trees grow only inside a forest update)"; exit 1; \
	fi
	@extra=$$(ls cmd | grep -vxE 'gsight|gsight-sim'); if [ -n "$$extra" ]; then \
		echo "nodeprecated: cmd/ holds $$extra (a tool is a sub-command of cmd/gsight, in internal/cli)"; exit 1; \
	fi
	@pools=$$(grep -rlE --include='*.go' --exclude='*_test.go' 'sync\.WaitGroup' internal cmd gsight.go | grep -vxE 'internal/par/par\.go|internal/serve/loadgen\.go' | tr '\n' ' '); if [ -n "$$pools" ]; then \
		echo "nodeprecated: sync.WaitGroup in $$pools (par.For is the one worker pool)"; exit 1; \
	fi
	@if grep -rn --include='*.go' bufio internal/persist; then \
		echo "nodeprecated: bufio in internal/persist (the WAL writes through telemetry.Stream)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'RidgeCapture|ReadRidgeState|RidgeDecoded|RidgeLimits|Tier0Gen' .; then \
		echo "nodeprecated: a tier-0 checkpoint name is back (tier-0 is built when a scheduler prunes and is never persisted)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'CPUOversub|"gsight/internal/logx"|calibBins|\.Calib\b' .; then \
		echo "nodeprecated: a retired knob or duplicate is back (CPU oversubscription is a per-policy constant under the one worstFit rule; the standard log package is the one logger; PredQ keeps no calibration histogram)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' 'placeBody|placeResponse|json:"batch' internal/serve; then \
		echo "nodeprecated: a batch body or a second placement acknowledgement in internal/serve (the daemon takes one request shape; PlaceAck is the one acknowledgement)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'obs\.Recorder|obs\.New\(|obs\.Config|DriftInfo|PlacementInfo|TrackPrediction' .; then \
		echo "nodeprecated: the observability bundle or an event twin type is back (each simulator event is one telemetry struct the decision log encodes and obs.Tracer renders, and PredQ runs in every simulation)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'obs\.Flight|NewFlight|ReadFlight|FlightData|flight\.bin|[(,] ?"record", ' .; then \
		echo "nodeprecated: the flight recorder or sim -record is back (a simulator run has one recording, the decision log: each platform step is a step event, and -decision-log is the one recording flag)"; exit 1; \
	fi
	@if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'PlacementDetail' .; then \
		echo "nodeprecated: a second placement record is back (a placement is one telemetry.PlacementDecision: the scheduler fills Request.Detail and emits nothing, the simulator completes it and writes it once to the decision log)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'LogTarget|featurePredictor|AsBatch|loopBatch|"gsight/internal/baselines"' .; then \
		echo "nodeprecated: a second predictor skeleton or model wrapper is back (core.Predictor is the one QoSPredictor: ESP, Pythia and the model variants are core constructors, the predictor learns tail latency and JCT in log space itself, and PredictBatchInto is on the interface)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'readTrace|traceEvent|summarizeTrace|\bTrace:|^\s+Trace\s' .; then \
		echo "nodeprecated: a second simulator event stream is back (the decision log is the simulator's one event stream; gsight inspect trace renders the Perfetto trace from it, and platform.Config has no Trace field)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' 'strconv\.AppendQuote|AppendQuoted|appendKey\(|telemetry\.Append' internal; then \
		echo "nodeprecated: hand-written JSON is back (encoding/json writes every JSON line from the event structs' own tags: the decision log and obs.Tracer hand telemetry.Stream.EndJSON the struct)"; exit 1; \
	fi
	@if ls internal/cli/inspect*.go | grep -v '_test\.go$$' | xargs grep -nE 'map\[string\](interface\{\}|any)|\b(num|str|ints)\('; then \
		echo "nodeprecated: a generic decode is back in gsight inspect (each event struct decodes its own line through its JSON tags, telemetry.NewEvent picks it, and a daemon's records go through serve.DecodeRecord)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'PlacerPool|PlaceAll|PlaceResult|NewPlacerPool' . | grep -v '^\./internal/sched/benchshim\.go:'; then \
		echo "nodeprecated: the placer pool is back outside the benchmark shim (placement is serial: Propose, then Commit on success, one request at a time)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark '\bstamps\b|\.Retries|serve_commit_conflicts_total|scalePlacers|"placers"' .; then \
		echo "nodeprecated: the placer pool's commit stamps, re-proposal count or -placers flag is back (no parallel proposer, so nothing goes stale)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude-dir=benchmark '\.Fallback\b|Fallback +\*WorstFit' . | grep -v '^\./internal/sched/benchshim\.go:'; then \
		echo "nodeprecated: a scheduler's fallback field is back (sched.ProposeOrDegrade is the one degradation rule the simulator and the daemon call; Gsight reports a predictor error and the caller falls back)"; exit 1; \
	fi

# Every name the module declares is referenced by non-test code
# somewhere in the tree (product code, examples, scripts and benchmark/
# count; root-package names also count when README.md shows them). A
# reference from a _test.go file does not: a name only tests reach is
# deleted with those tests, or moves into the test that needs it, and
# a test seam becomes a field the in-package test sets.
deadcheck:
	$(GO) run ./scripts/deadnames .

# Every tracked Go file outside benchmark/ is gofmt-clean.
fmtcheck:
	@out=$$(git ls-files '*.go' ':!:benchmark/*' | xargs gofmt -l); if [ -n "$$out" ]; then \
		echo "fmtcheck: gofmt -l lists:"; echo "$$out"; exit 1; \
	fi

check: build vet vuln test fuzzsmoke simcheck servecheck harnesscheck docscheck nodeprecated deadcheck fmtcheck loccheck

# Non-test Go lines of the root module's product code (the figure
# CHANGES.md and ROADMAP quote).
loc:
	@(find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat; cat gsight.go) | wc -l

# The north star's "small" axis only ratchets down: product code may not
# grow past the figure the last deletion pass left. A PR that removes
# lines lowers LOC_CEILING to its own `make loc`; one that must add
# lines says why in CHANGES.md and raises it in the same commit.
LOC_CEILING = 22662
loccheck:
	@n=$$($(MAKE) -s loc); if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loccheck: $$n non-test lines > ceiling $(LOC_CEILING)"; exit 1; \
	fi

race:
	$(GO) test -race ./internal/par ./internal/ml ./internal/core ./internal/sched ./internal/experiments ./internal/telemetry ./internal/persist ./internal/serve \
		./internal/perfmodel ./internal/scenario ./internal/platform ./internal/obs ./internal/cli

# Regenerate the start-up timing tables in DESIGN.md §16 and README from
# scripts/docnumbers/result.json (copy a fresh benchmark/out/result-*.json
# over it first to refresh the figures).
docs-numbers:
	$(GO) run ./scripts/docnumbers DESIGN.md README.md

# The generated tables must match the result file they quote.
docscheck:
	$(GO) run ./scripts/docnumbers -check DESIGN.md README.md
