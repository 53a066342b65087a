#!/usr/bin/env sh
# servecheck.sh — SIGKILL-under-load failover gate for `gsight serve`.
#
# Runs the same ordered load twice: once against a single
# uninterrupted daemon, once against an active/standby pair sharing a
# data dir where the active is SIGKILLed mid-load and the standby takes
# over through the lease. The merged decision log of the crashed run
# must be byte-identical to the uninterrupted run's — every
# acknowledged record survives the kill (WAL fsync before ack) and
# the takeover resumes the exact decision stream (DESIGN.md §16), and
# `gsight inspect summary` reads the two logs to the same summary.
# Three passes: placements only, then placements with observations and
# releases, so the learner's state, a background training between its
# flush and its install, and background snapshot publishes sit inside
# the kill window, then placements on an untrained daemon (-train 0),
# whose every placement takes the WorstFit fallback, so the replay of
# degraded records is checked too.
#
# Usage: scripts/servecheck.sh [requests] [seed]
set -eu

cd "$(dirname "$0")/.."
REQUESTS="${1:-200}"
SEED="${2:-7}"

WORK="$(mktemp -d)"
cleanup() {
    [ -z "${ACTIVE_PID:-}" ] || kill -9 "$ACTIVE_PID" 2>/dev/null || true
    [ -z "${STANDBY_PID:-}" ] || kill -9 "$STANDBY_PID" 2>/dev/null || true
    [ -z "${REF_PID:-}" ] || kill -9 "$REF_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/gsight" ./cmd/gsight

REF_ADDR=127.0.0.1:7461
ACT_ADDR=127.0.0.1:7462
STB_ADDR=127.0.0.1:7463
MIX='matmul,social-network,dd,e-commerce,kmeans'
SERVE_FLAGS="-seed $SEED -snapshot-every 64 -lease-ttl 500ms"
LOAD_FLAGS="-warmup 0 -seed 11 -mix $MIX -ordered -workers 8"

wait_exit() { # pid timeout_s
    i=0
    while kill -0 "$1" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -lt $(( $2 * 10 )) ] || return 1
        sleep 0.1
    done
    return 0
}

wait_log() { # file pattern timeout_s
    i=0
    while ! grep -q "$2" "$1" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -lt $(( $3 * 10 )) ] || return 1
        sleep 0.1
    done
    return 0
}

# pass NAME REQUESTS KILL_AT_BYTES HOLD TRAIN LOAD_EXTRA...: one
# reference run and one crash run of the same ordered load on daemons
# bootstrapped on TRAIN scenarios; the active is killed once its
# decision log passes KILL_AT_BYTES and, with HOLD=learner, once its
# /metrics report a learner training in flight.
pass() {
    name="$1"; requests="$2"; kill_at="$3"; hold="$4"; train="$5"; shift 5
    serve_flags="$SERVE_FLAGS -train $train"
    load_flags="-n $requests $LOAD_FLAGS $*"
    ref="$WORK/$name-ref"; crash="$WORK/$name-crash"

    echo "servecheck[$name]: reference run (uninterrupted)..."
    "$WORK/gsight" serve -data "$ref" -addr "$REF_ADDR" $serve_flags \
        > "$WORK/$name-ref.log" 2>&1 &
    REF_PID=$!
    "$WORK/gsight" loadgen -addr "http://$REF_ADDR" $load_flags > "$WORK/$name-ref-load.out"
    kill -TERM "$REF_PID"
    wait_exit "$REF_PID" 30 || { echo "servecheck[$name]: FAIL (reference daemon did not drain)" >&2; exit 1; }
    REF_PID=

    echo "servecheck[$name]: crash run (active + standby, SIGKILL mid-load)..."
    "$WORK/gsight" serve -data "$crash" -addr "$ACT_ADDR" $serve_flags \
        > "$WORK/$name-active.log" 2>&1 &
    ACTIVE_PID=$!
    # The active must hold the lease before the standby starts, or the
    # standby wins the initial acquisition and the roles invert.
    wait_log "$WORK/$name-active.log" 'listening on' 30 || {
        echo "servecheck[$name]: FAIL (active never came up)" >&2
        cat "$WORK/$name-active.log" >&2
        exit 1
    }
    "$WORK/gsight" serve -data "$crash" -addr "$STB_ADDR" -standby $serve_flags \
        > "$WORK/$name-standby.log" 2>&1 &
    STANDBY_PID=$!

    # Kill the active once the decision log shows real progress.
    (
        i=0
        held=0
        limit=$((kill_at * 2))
        while [ "$i" -lt 600 ]; do
            if [ -f "$crash/decisions.jsonl" ]; then
                sz=$(wc -c < "$crash/decisions.jsonl")
            else
                sz=0
            fi
            # Past the mark, hold the kill. With HOLD=learner, first for a
            # learner training in flight — from its flush to its install,
            # 256 records on, as /metrics reports it — so the standby
            # restores or replays into that pending install. Then for a
            # snapshot publish in flight (its temp file is visible for a
            # few milliseconds, so no sleep here), up to twice the mark,
            # or ~100 records past the flush, or 4000 looks.
            if [ "$sz" -gt "$kill_at" ]; then
                held=$((held + 1))
                if [ "$hold" = learner ]; then
                    if curl -s "http://$ACT_ADDR/metrics" | grep -q '^serve_learner_inflight 1$'; then
                        hold=publish
                        limit=$((sz + 20000))
                    fi
                    [ "$held" -le 2000 ] || hold=publish
                    continue
                fi
                if [ "$sz" -gt "$limit" ] || [ "$held" -gt 4000 ] ||
                    ls "$crash"/snap-*.tmp* >/dev/null 2>&1; then
                    kill -9 "$ACTIVE_PID"
                    exit 0
                fi
                continue
            fi
            i=$((i + 1))
            sleep 0.05
        done
        exit 1
    ) &
    KILLER_PID=$!

    "$WORK/gsight" loadgen -addr "http://$ACT_ADDR,http://$STB_ADDR" $load_flags \
        > "$WORK/$name-crash-load.out" || {
            echo "servecheck[$name]: FAIL (load generator errored during failover)" >&2
            cat "$WORK/$name-crash-load.out" "$WORK/$name-active.log" "$WORK/$name-standby.log" >&2
            exit 1
        }
    wait "$KILLER_PID" || { echo "servecheck[$name]: FAIL (active was never killed — load too small?)" >&2; exit 1; }
    ACTIVE_PID=

    grep -q 'lease acquired' "$WORK/$name-standby.log" || {
        echo "servecheck[$name]: FAIL (standby never took over)" >&2
        cat "$WORK/$name-standby.log" >&2
        exit 1
    }
    kill -TERM "$STANDBY_PID"
    wait_exit "$STANDBY_PID" 30 || { echo "servecheck[$name]: FAIL (standby did not drain)" >&2; exit 1; }
    STANDBY_PID=

    if ! cmp -s "$ref/decisions.jsonl" "$crash/decisions.jsonl"; then
        echo "servecheck[$name]: FAIL (decision logs differ after SIGKILL takeover)" >&2
        cmp "$ref/decisions.jsonl" "$crash/decisions.jsonl" >&2 || true
        diff "$ref/decisions.jsonl" "$crash/decisions.jsonl" | head -8 >&2 || true
        exit 1
    fi
    # The offline view of the daemon's log reads both logs alike.
    for run in ref crash; do
        "$WORK/gsight" inspect summary "$WORK/$name-$run/decisions.jsonl" > "$WORK/$name-$run.summary"
    done
    if ! cmp -s "$WORK/$name-ref.summary" "$WORK/$name-crash.summary"; then
        echo "servecheck[$name]: FAIL (inspect summary differs between the two logs)" >&2
        diff "$WORK/$name-ref.summary" "$WORK/$name-crash.summary" >&2 || true
        exit 1
    fi
    echo "servecheck[$name]: inspect summary: $(head -1 "$WORK/$name-ref.summary")"
    lines=$(wc -l < "$ref/decisions.jsonl")
    echo "servecheck[$name]: crash-run load: $(cat "$WORK/$name-crash-load.out")"
    grep 'restored snapshot' "$WORK/$name-standby.log" | sed "s/^/servecheck[$name]: standby: /" || true
    if [ "$hold" = learner ] && ! grep -q 'restored snapshot.*learner install pending' "$WORK/$name-standby.log"; then
        echo "servecheck[$name]: FAIL (the standby did not restore a pending learner install)" >&2
        exit 1
    fi
    echo "servecheck[$name]: OK ($lines decisions byte-identical across SIGKILL + takeover)"
}

# Placements only: the kill lands in the first WAL generation.
pass place "$REQUESTS" 3000 publish 4 -release 0 -observe 0
# Mixed: observations and releases ride the ordered stream (1.8 records
# per placement) and the kill comes later — after the learner's first
# flush and before its install, 256 records on (the standby's restore
# line then says "learner install pending"), with pending observations
# in its snapshots, several -snapshot-every 64 rotations behind it and,
# when the killer catches one, a generation's publish in flight (the
# standby then logs "from generations N..N+1").
pass mixed "$((REQUESTS * 3))" 40000 learner 4 -release 0.5 -observe 0.3
# Untrained: every placement is degraded (or, once WorstFit finds no
# room, an error) with reason predictor-error. An untrained daemon
# answers fast, so the load is paced to put the kill inside it.
pass untrained 120 3000 publish 0 -release 0 -observe 0 -rate 200
