#!/usr/bin/env sh
# bench.sh — run the §6.4 operational micro-benchmarks with -benchmem
# and append a dated entry to the BENCH_gsight.json history, so the
# performance trajectory accumulates across PRs instead of each run
# overwriting the last.
#
# Usage: scripts/bench.sh [benchtime] [out.json] [label]
#   benchtime  go test -benchtime value (default 200x: fixed iteration
#              count keeps incremental-update window growth bounded)
#   out.json   history path (default BENCH_gsight.json in the repo root)
#   label      optional label recorded on the new history entry
#
#        scripts/bench.sh check [out.json]
#   Alloc-regression smoke gate (run from `make check`): re-measures
#   the low-alloc benchmarks at a reduced iteration count, three times
#   each, and fails if the best run of any of them allocates more per
#   op than the latest history entry recorded. ns/op is deliberately
#   not gated — it needs a quiet machine — but allocs/op is
#   deterministic and catches escape-analysis regressions the test
#   suite cannot see.
set -eu

cd "$(dirname "$0")/.."

BENCHES='BenchmarkInference$|BenchmarkInferenceBatch$|BenchmarkIncrementalUpdate$|BenchmarkEncode$|BenchmarkScenarioEvaluation$|BenchmarkNewCatalog$|BenchmarkForestTraining$|BenchmarkForestTrainingParallel$|BenchmarkBootstrapFit$|BenchmarkPredictorCheckpoint$|BenchmarkPredictorRestore$|BenchmarkBinarySearchScheduling$|BenchmarkSchedulingInstrumented$|BenchmarkShardedScheduling$|BenchmarkShardedPlacement$|BenchmarkTwoTierPlacement$|BenchmarkFaultyPlatform$|BenchmarkTracedPlatform$|BenchmarkEngineStep$|BenchmarkPlatformStep$'
ML_BENCHES='BenchmarkWindowAbsorb$'
PERSIST_BENCHES='BenchmarkCheckpointSnapshot$|BenchmarkWALAppend$'

if [ "${1:-}" = "check" ]; then
    OUT="${2:-BENCH_gsight.json}"
    # The low-alloc subset: steady-state alloc-free (or near-free)
    # paths whose budgets the history pins. The pooled benchmarks warm
    # their pools before the timer starts, and benchhist keeps each
    # benchmark's minimum over -count 3: a GC that empties a sync.Pool
    # mid-run adds one allocation to 50 iterations, which rounds to 1
    # alloc/op on an untouched tree.
    # BenchmarkTwoTierPlacement's K=∞ rows allocate past lowAllocMax
    # (the legacy ladder), so the gate automatically pins only the
    # pruned rows' 1 alloc/op.
    SMOKE='BenchmarkInference$|BenchmarkInferenceBatch$|BenchmarkEncode$|BenchmarkScenarioEvaluation$|BenchmarkBinarySearchScheduling$|BenchmarkSchedulingInstrumented$|BenchmarkShardedScheduling$|BenchmarkTwoTierPlacement$|BenchmarkEngineStep$'
    RAW="$(go test -run '^$' -bench "$SMOKE" -benchmem -benchtime 50x -count 3 .)
$(go test -run '^$' -bench "$ML_BENCHES" -benchmem -benchtime 50x -count 3 ./internal/ml)"
    echo "$RAW"
    echo "$RAW" | go run ./scripts/benchhist -out "$OUT" -check
    exit 0
fi

BENCHTIME="${1:-200x}"
OUT="${2:-BENCH_gsight.json}"
LABEL="${3:-}"

RAW="$(go test -run '^$' -bench "$BENCHES" -benchmem -benchtime "$BENCHTIME" .)
$(go test -run '^$' -bench "$ML_BENCHES" -benchmem -benchtime "$BENCHTIME" ./internal/ml)
$(go test -run '^$' -bench "$PERSIST_BENCHES" -benchmem -benchtime "$BENCHTIME" ./internal/persist)"
echo "$RAW"

echo "$RAW" | go run ./scripts/benchhist \
    -out "$OUT" -date "$(date +%F)" -benchtime "$BENCHTIME" -label "$LABEL"
