#!/usr/bin/env sh
# simcheck.sh — end-to-end determinism gate for `gsight sim`.
#
# A simulator run is a pure function of its flags, so rerunning it is
# its recovery (DESIGN.md §12). This builds the real binary and runs
# one seeded chaos hour twice in separate processes: once with
# GOMAXPROCS=1 and once with GOMAXPROCS=4 (Go accepts more than the
# machine's cores), so the start-up worker pool (par.For) always runs
# at two different widths. The decision log (-decision-log, step
# samples included), the Perfetto trace and the views each run's log
# renders (gsight inspect trace, summary, predq, errors and heat) and
# the report on stdout (wall-clock lines filtered) must be
# byte-identical.
#
# Usage: scripts/simcheck.sh [hours] [train] [seed] [topk]
#   topk defaults to 4 so two-tier placement (the tier-0 score cache,
#   DESIGN.md §15) is part of the guarantee; pass 0 to disable.
set -eu

cd "$(dirname "$0")/.."
HOURS="${1:-1}"
TRAIN="${2:-64}"
SEED="${3:-42}"
TOPK="${4:-4}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM

go build -o "$WORK/gsight" ./cmd/gsight

# sim <name> [env...]: the seeded chaos hour, outputs under $WORK/<name>.
sim() {
    name="$1"; shift
    mkdir -p "$WORK/$name"
    env "$@" "$WORK/gsight" sim -hours "$HOURS" -train "$TRAIN" -seed "$SEED" \
        -topk "$TOPK" -faults chaos -quiet -decision-log "$WORK/$name/decisions.jsonl" > "$WORK/$name/stdout"
    grep -v 'wall-clock' "$WORK/$name/stdout" > "$WORK/$name/report"
    "$WORK/gsight" inspect trace -o "$WORK/$name/trace.json" "$WORK/$name/decisions.jsonl"
    for verb in summary predq errors heat; do
        "$WORK/gsight" inspect $verb "$WORK/$name/decisions.jsonl" > "$WORK/$name/$verb"
    done
}

echo "simcheck: run at GOMAXPROCS=1..."
sim serial GOMAXPROCS=1
echo "simcheck: run at GOMAXPROCS=4..."
sim wide GOMAXPROCS=4

[ -s "$WORK/serial/decisions.jsonl" ] || { echo "simcheck: FAIL (empty decision log)" >&2; exit 1; }
for f in decisions.jsonl trace.json summary predq errors heat report; do
    if ! cmp -s "$WORK/serial/$f" "$WORK/wide/$f"; then
        echo "simcheck: FAIL ($f differs between the two runs)" >&2
        cmp "$WORK/serial/$f" "$WORK/wide/$f" >&2 || true
        exit 1
    fi
done
echo "simcheck: OK (two processes at different widths, byte-identical outputs)"
