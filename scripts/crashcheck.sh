#!/usr/bin/env sh
# crashcheck.sh — end-to-end kill-and-resume equivalence gate.
#
# Runs gsight-sim over the same seeded hour uninterrupted and then with
# two injected controller crashes, crash markers on and a resume loop
# (exit code 3 = deliberate crash, rerun with -resume, which re-executes
# the run from t = 0 past the crashes the newest marker counts) — once
# as it is, once with a byte of the newest marker flipped after the
# first crash. The first pass must take exactly 3 incarnations, the
# second exactly 4 (the corrupt marker is fallen back over, so its crash
# is taken again), and each must produce a byte-identical decision log,
# lifecycle trace and flight recording (-record bundle), and an
# identical report (wall-clock timing lines filtered) — checked on the
# real binary rather than in-process test harnesses.
#
# Usage: scripts/crashcheck.sh [hours] [train] [seed] [topk]
#   topk defaults to 4 so two-tier placement (the tier-0 score cache,
#   DESIGN.md §15) is part of the resume-equivalence guarantee; pass 0
#   to disable.
set -eu

cd "$(dirname "$0")/.."
HOURS="${1:-1}"
TRAIN="${2:-64}"
SEED="${3:-42}"
TOPK="${4:-4}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM

go build -o "$WORK/gsight-sim" ./cmd/gsight-sim

cat > "$WORK/crash.json" <<EOF
{"name":"crashcheck","events":[
 {"at_s":1000,"kind":"controller-crash"},
 {"at_s":2600,"kind":"controller-crash"}]}
EOF

common="-hours $HOURS -train $TRAIN -seed $SEED -topk $TOPK -quiet"

echo "crashcheck: baseline run (no faults, no checkpoints)..."
"$WORK/gsight-sim" $common -record "$WORK/rec-base" \
    -decision-log "$WORK/base.jsonl" > "$WORK/base.out"

# crashed_run <name> <corrupt>: the seeded hour with two controller
# crashes, resumed until it finishes. With corrupt=1 one byte of the
# newest marker is flipped after the first crash: the resume finds no
# valid marker, starts with no crash skipped and takes the first crash
# again, so the run finishes in exactly 4 incarnations, byte-identical.
crashed_run() {
    name="$1"; corrupt="$2"
    run="-faults $WORK/crash.json -checkpoint-dir $WORK/ck-$name \
        -record $WORK/rec-$name -decision-log $WORK/$name.jsonl"
    rc=0
    "$WORK/gsight-sim" $common $run > "$WORK/$name.out" || rc=$?
    tries=1
    while [ "$rc" -eq 3 ]; do
        [ "$tries" -lt 10 ] || { echo "crashcheck: FAIL (no convergence after $tries attempts)" >&2; exit 1; }
        if [ "$corrupt" -eq 1 ] && [ "$tries" -eq 1 ]; then
            newest="$(ls "$WORK/ck-$name"/snap-*.ckpt | tail -n 1)"
            at=$(($(wc -c < "$newest") / 2))
            byte="$(dd if="$newest" bs=1 skip="$at" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')"
            printf "\\$(printf '%03o' $((byte ^ 64)))" | dd of="$newest" bs=1 seek="$at" conv=notrunc 2>/dev/null
            echo "crashcheck: flipped a byte in $(basename "$newest")"
        fi
        tries=$((tries + 1))
        echo "crashcheck: crashed (expected), resuming (attempt $tries)..."
        rc=0
        "$WORK/gsight-sim" $common $run -resume > "$WORK/$name.out" || rc=$?
    done
    [ "$rc" -eq 0 ] || { echo "crashcheck: FAIL (unexpected exit code $rc)" >&2; exit 1; }
    want=$((3 + corrupt))
    [ "$tries" -eq "$want" ] || { echo "crashcheck: FAIL (expected $want incarnations, got $tries)" >&2; exit 1; }

    if ! cmp -s "$WORK/base.jsonl" "$WORK/$name.jsonl"; then
        echo "crashcheck: FAIL ($name: decision logs differ)" >&2
        cmp "$WORK/base.jsonl" "$WORK/$name.jsonl" >&2 || true
        exit 1
    fi
    # The observability bundle must also survive the crashes unchanged:
    # controller crashes are invisible in every recorded stream.
    for f in trace.json flight.bin; do
        if ! cmp -s "$WORK/rec-base/$f" "$WORK/rec-$name/$f"; then
            echo "crashcheck: FAIL ($name: $f differs between baseline and resumed run)" >&2
            cmp "$WORK/rec-base/$f" "$WORK/rec-$name/$f" >&2 || true
            exit 1
        fi
    done
    # The report is deterministic except for wall-clock timing lines.
    grep -v 'wall-clock' "$WORK/$name.out" > "$WORK/$name.flt"
    if ! diff "$WORK/base.flt" "$WORK/$name.flt" >&2; then
        echo "crashcheck: FAIL ($name: reports differ)" >&2
        exit 1
    fi
}
grep -v 'wall-clock' "$WORK/base.out" > "$WORK/base.flt"

echo "crashcheck: crashing run (2 controller crashes)..."
crashed_run crashed 0
echo "crashcheck: crashing run again, newest marker corrupted after the first crash..."
crashed_run corrupt 1
echo "crashcheck: OK (both resumed runs byte-identical to the uninterrupted run)"
