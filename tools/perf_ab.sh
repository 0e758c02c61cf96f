#!/usr/bin/env bash
# Same-host A/B of the perfbench workloads between a base ref and HEAD.
#
#   tools/perf_ab.sh BASE_REF [PAIRS [SEED [SECONDS [WORKLOAD...]]]]
#
# Checks BASE_REF and HEAD out into scratch git worktrees, builds each
# side's perfbench in its own CARGO_TARGET_DIR, then runs
# perfbench/run.py PAIRS times per side and workload (default 10 pairs,
# seed 1, 10-second runs, every workload in BENCHMARK.json). The two
# runs of a pair are back to back and the side that goes first
# alternates, so slow drift of the host loads both sides alike. For
# every end-to-end metric in BENCHMARK.json it prints each side's median
# and quartiles, the HEAD/base ratio of the medians, and how many pairs
# each side won. Only committed state is measured: commit first.
# Scratch space under ${TMPDIR:-/tmp} is removed on exit.
set -euo pipefail

if [[ $# -lt 1 || $1 == -h || $1 == --help ]]; then
    sed -n '2,15s/^# \{0,1\}//p' "$0"
    exit $(( $# < 1 ))
fi
base_ref=$1 pairs=${2:-10} seed=${3:-1} seconds=${4:-10}
shift $(( $# < 4 ? $# : 4 ))

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
declare -A sha
sha[base]=$(git -C "$repo" rev-parse --verify "$base_ref^{commit}")
sha[head]=$(git -C "$repo" rev-parse --verify "HEAD^{commit}")
scratch=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
cleanup() {
    for side in base head; do
        if [[ -d "$scratch/$side" ]]; then
            git -C "$repo" worktree remove --force "$scratch/$side"
        fi
    done
    rm -rf "$scratch"
}
trap cleanup EXIT

workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
    mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' \
        "$repo/BENCHMARK.json")
fi

# One run's JSON result line; build output goes to the side's log.
run_side() {
    (cd "$scratch/$1" && CARGO_TARGET_DIR="$scratch/target-$1" \
        python3 perfbench/run.py --workload "$2" --seed "$seed" \
        --seconds "$3" --trace 0 2>> "$scratch/build-$1.log" | tail -n 1)
}

for side in base head; do
    git -C "$repo" worktree add --detach --quiet "$scratch/$side" \
        "${sha[$side]}"
    echo "perf_ab: building $side (${sha[$side]})" >&2
    # A one-second run builds the benchmark; its result is discarded.
    run_side "$side" "${workloads[0]}" 1 > /dev/null || {
        cat "$scratch/build-$side.log" >&2
        exit 1
    }
done

results="$scratch/results.jsonl"
for workload in "${workloads[@]}"; do
    for (( i = 0; i < pairs; i++ )); do
        order=(base head)
        (( i % 2 )) && order=(head base)
        for side in "${order[@]}"; do
            echo "perf_ab: $workload pair $((i + 1))/$pairs $side" >&2
            echo "[\"$workload\", $i, \"$side\", $(run_side "$side" \
                "$workload" "$seconds")]" >> "$results"
        done
    done
done

python3 - "$repo/BENCHMARK.json" "$results" "$base_ref" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = {}  # workload -> pair -> side -> result
for workload, pair, side, res in map(json.loads, open(sys.argv[2])):
    runs.setdefault(workload, {}).setdefault(pair, {})[side] = res

def stats(xs):
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                   if len(xs) > 1 else xs * 3)
    return "%.4g [%.4g, %.4g]" % (med, q1, q3), med

print("perf_ab: %s (base) vs HEAD, median [q1, q3]" % sys.argv[3])
for workload, pairs in runs.items():
    sides = [p for p in pairs.values() if len(p) == 2]
    print("\n== %s: %d pairs, failed cells base %d, head %d" % (
        workload, len(sides), sum(p["base"]["failed"] for p in sides),
        sum(p["head"]["failed"] for p in sides)))
    print("  %-16s %28s %28s %9s %8s" % ("metric", "base", "head",
                                         "head/base", "wins b:h"))
    for m in spec["end_to_end"]:
        name, sign = m["name"], -1 if m["better"] == "lower" else 1
        b = [p["base"]["metrics"][name]["value"] for p in sides]
        h = [p["head"]["metrics"][name]["value"] for p in sides]
        (bs, bm), (hs, hm) = stats(b), stats(h)
        print("  %-16s %28s %28s %9.3f %5d:%d" % (
            name, bs, hs, hm / bm if bm else float("nan"),
            sum(sign * (x - y) > 0 for x, y in zip(b, h)),
            sum(sign * (y - x) > 0 for x, y in zip(b, h))))
EOF
