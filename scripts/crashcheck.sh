#!/usr/bin/env sh
# crashcheck.sh — end-to-end kill-and-resume equivalence gate.
#
# Runs gsight-sim twice over the same seeded hour: once uninterrupted,
# once with two injected controller crashes, checkpointing enabled and
# a resume loop (exit code 3 = deliberate crash, rerun with -resume).
# The crashed-and-resumed run must produce a byte-identical decision
# log, lifecycle trace and flight recording (-record bundle), and an
# identical report (wall-clock timing lines filtered) — the repo's
# headline recovery guarantee, checked on the real binary rather than
# in-process test harnesses.
#
# Usage: scripts/crashcheck.sh [hours] [train] [seed] [topk]
#   topk defaults to 4 so two-tier placement (the tier-0 score cache
#   and its checkpointed ridge state, DESIGN.md §15) is part of the
#   resume-equivalence guarantee; pass 0 to disable.
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

echo "crashcheck: crashing run (2 controller crashes, 600s snapshots)..."
rc=0
"$WORK/gsight-sim" $common -faults "$WORK/crash.json" \
    -checkpoint-dir "$WORK/ck" -checkpoint-interval 600 \
    -record "$WORK/rec-crash" \
    -decision-log "$WORK/crashed.jsonl" > "$WORK/crashed.out" || rc=$?
tries=1
while [ "$rc" -eq 3 ]; do
    [ "$tries" -lt 10 ] || { echo "crashcheck: FAIL (no convergence after $tries attempts)" >&2; exit 1; }
    tries=$((tries + 1))
    echo "crashcheck: crashed (expected), resuming (attempt $tries)..."
    rc=0
    "$WORK/gsight-sim" $common -faults "$WORK/crash.json" \
        -checkpoint-dir "$WORK/ck" -checkpoint-interval 600 -resume \
        -record "$WORK/rec-crash" \
        -decision-log "$WORK/crashed.jsonl" > "$WORK/crashed.out" || rc=$?
done
[ "$rc" -eq 0 ] || { echo "crashcheck: FAIL (unexpected exit code $rc)" >&2; exit 1; }
[ "$tries" -eq 3 ] || { echo "crashcheck: FAIL (expected 3 incarnations, got $tries)" >&2; exit 1; }

if ! cmp -s "$WORK/base.jsonl" "$WORK/crashed.jsonl"; then
    echo "crashcheck: FAIL (decision logs differ)" >&2
    cmp "$WORK/base.jsonl" "$WORK/crashed.jsonl" >&2 || true
    exit 1
fi
# The observability bundle must also survive the crashes unchanged:
# controller crashes are invisible in every recorded stream.
for f in trace.json flight.bin; do
    if ! cmp -s "$WORK/rec-base/$f" "$WORK/rec-crash/$f"; then
        echo "crashcheck: FAIL ($f differs between baseline and resumed run)" >&2
        cmp "$WORK/rec-base/$f" "$WORK/rec-crash/$f" >&2 || true
        exit 1
    fi
done
# The report is deterministic except for wall-clock timing lines.
grep -v 'wall-clock' "$WORK/base.out" > "$WORK/base.flt"
grep -v 'wall-clock' "$WORK/crashed.out" > "$WORK/crashed.flt"
if ! diff "$WORK/base.flt" "$WORK/crashed.flt" >&2; then
    echo "crashcheck: FAIL (reports differ)" >&2
    exit 1
fi
echo "crashcheck: OK (resumed run byte-identical across $tries incarnations)"
