#!/usr/bin/env bash
# CI entry point: build and test a plain Release build and an
# AddressSanitizer + UBSan build (SI_SANITIZE, see the top CMakeLists)
# with libstdc++'s bounds assertions, so an out-of-range operator[]
# aborts instead of reading silently, plus a targeted ThreadSanitizer
# build of the parallel engine.
# Each pass also runs the static kernel verifier (silint) over every
# checked-in kernel against the golden report (with the si-lint-v1 JSON
# export schema-checked), and the 256-seed differential sweep with
# static/dynamic cross-checking (--verify). The Release pass adds the
# 256-seed race-sanitizer soundness sweep (difftest --race).
# The Release pass additionally exercises the machine-readable
# exporters: a bench --json run validated against the checked-in
# si-bench-v1 schema (whose table must match the same bench run as a
# campaign, with one and with four children), four ported sweeps whose
# tables and documents must match at --jobs 1 and 0, a swprof
# trace + stall-report export, and fig9 swprof --diff reports that must
# agree from si-stats-v1 and si-metrics-v1 inputs. It also
# runs the campaign soak: a short sweep under fault injection with a
# forced mid-campaign restart, whose resumable si-campaign-v1 manifest
# is validated against tools/campaign_schema.json. A fig9 and a memlat
# run resumed from a mid-run checkpoint must print the same stdout,
# stats and metrics as uninterrupted runs. The Release pass also
# cross-validates the event-driven fast-forward execution core:
# the 256-seed sweep, the memlat stats/metrics exports, and the fig13
# and fig15 tables must be byte-identical with cycle leaping forced on
# and off. Finally the perfbench workloads' statistics digests must
# match tests/golden/perfbench_digests.txt. Speed is not gated here:
# the one perf gate is a same-host A/B of perfbench, tools/perf_ab.sh.
# Before any build, a source check refuses process-terminating calls in
# src/: every failure there must be a SimError.
set -euo pipefail
cd "$(dirname "$0")"

# One failure path: nothing in src/ may end the process. Every error is
# a SimError that the run boundary turns into a RunStatus, so one bad
# cell cannot take a whole sweep down. The campaign child's _exit
# (src/harness/campaign.cc), which hands its result file to the parent,
# is the one exception.
check_no_process_exit() {
    echo "=== process-terminating calls (src/)"
    local call='(abort|exit|quick_exit|_Exit|_exit|assert|panic|panic_if|fatal|fatal_if)'
    local hits rc=0
    hits=$(grep -rnE "(^|[^[:alnum:]_.>:&*])(::)?(std::)?$call[[:space:]]*\\(" \
        src) || rc=$?
    if ((rc > 1)); then
        echo "process-exit check: grep failed (status $rc)" >&2
        exit 1
    fi
    hits=$(grep -vE '^src/harness/campaign\.cc:[0-9]+: *_exit\(' \
        <<< "$hits" || true)
    if [[ -n $hits ]]; then
        echo "$hits" >&2
        echo "src/ must throw SimError instead of ending the process" >&2
        exit 1
    fi
}

# Static analysis over the host sources. clang-tidy is not part of the
# minimal toolchain image, so absence only skips the gate — export
# SI_REQUIRE_CLANG_TIDY=1 (as a full CI runner should) to make absence
# itself a failure. Configuration lives in .clang-tidy.
lint_host_sources() {
    local dir=$1
    if ! command -v clang-tidy >/dev/null 2>&1; then
        if [[ "${SI_REQUIRE_CLANG_TIDY:-0}" != 0 ]]; then
            echo "=== clang-tidy required but not installed" >&2
            exit 1
        fi
        echo "=== clang-tidy not installed; skipping the lint gate"
        return 0
    fi
    echo "=== clang-tidy $dir"
    # Sources only; headers are covered through HeaderFilterRegex.
    git ls-files 'src/**/*.cc' 'tools/*.cc' |
        xargs -P "$(nproc)" -n 4 clang-tidy -p "$dir" --quiet
}

run() {
    local dir=$1
    shift
    echo "=== configure $dir ($*)"
    cmake -B "$dir" -S . "$@"
    echo "=== build $dir"
    cmake --build "$dir" -j "$(nproc)"
    lint_host_sources "$dir"
    echo "=== test $dir"
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
    echo "=== silint $dir (checked-in kernels vs golden report)"
    # Every checked-in kernel; examples/ ships C++ API samples only, so
    # kernels/ is the whole .sasm surface. The si-order-dependent pass
    # gates here too (--Werror), and the machine-readable report is
    # validated against the si-lint-v1 schema below.
    mkdir -p "$dir/artifacts"
    "$dir/tools/silint" --Werror --report --jobs 0 \
        --json "$dir/artifacts/silint_kernels.json" kernels/*.sasm |
        diff -u tests/golden/silint_kernels.txt -
    if command -v python3 >/dev/null 2>&1; then
        python3 tools/check_bench_json.py tools/lint_schema.json \
            "$dir/artifacts/silint_kernels.json"
    else
        echo "=== python3 not installed; skipping the lint schema gate"
    fi
    echo "=== difftest $dir (256 kernels, static + dynamic oracles)"
    "$dir/tools/difftest" --seeds 256 --verify
}

# SI-hazard soundness sweep: 256 seeds through the race oracle — clean
# generated kernels must be race-free statically AND dynamically, the
# racy-witness positive control must be caught on both sides, and every
# dynamic race must lie inside the static may-race set (DESIGN.md
# section 11). Release only: the sweep runs each seed through the whole
# config matrix twice (clean + witness).
check_race() {
    local dir=$1
    echo "=== difftest $dir (256-seed race-sanitizer soundness sweep)"
    "$dir/tools/difftest" --seeds 256 --race --jobs 0
}

# Bench binaries whose sweeps once ran outside bench::Grid: their
# tables and si-bench-v1 documents must not depend on --jobs.
ported_sweeps=(async_compute ablation_scene_complexity ablation_exec_order
               comparison_wavefront)

# Machine-readable exporters: run benches with --json and validate them
# against the checked-in schema; run swprof and check its exports parse.
check_exports() {
    local dir=$1
    local art="$dir/artifacts"
    mkdir -p "$art"
    echo "=== bench --json $dir (si-bench-v1 schema check)"
    "$dir/bench/fig12a_speedup" --json "$art/fig12a_speedup.json" \
        > "$art/fig12a_speedup.txt"
    echo "=== bench campaign path $dir (fig12a table, campaign vs grid, 1 and 4 children)"
    rm -rf "$art/fig12a-campaign" "$art/fig12a-campaign-j4"
    "$dir/bench/fig12a_speedup" --campaign-state "$art/fig12a-campaign" \
        > "$art/fig12a_campaign.txt" 2> /dev/null
    cmp "$art/fig12a_speedup.txt" "$art/fig12a_campaign.txt"
    "$dir/bench/fig12a_speedup" --jobs 4 \
        --campaign-state "$art/fig12a-campaign-j4" \
        > "$art/fig12a_campaign_j4.txt" 2> /dev/null
    cmp "$art/fig12a_speedup.txt" "$art/fig12a_campaign_j4.txt"
    echo "=== ported sweeps $dir (--jobs 1 vs --jobs 0, si-bench-v1)"
    local b
    for b in "${ported_sweeps[@]}"; do
        "$dir/bench/$b" --jobs 1 --json "$art/$b.j1.json" \
            > "$art/$b.j1.txt" 2> /dev/null
        "$dir/bench/$b" --jobs 0 --json "$art/$b.j0.json" \
            > "$art/$b.j0.txt" 2> /dev/null
        cmp "$art/$b.j1.txt" "$art/$b.j0.txt"
        cmp "$art/$b.j1.json" "$art/$b.j0.json"
    done
    echo "=== swprof $dir (trace + stall report export)"
    "$dir/tools/swprof" kernels/fig9.sasm --si \
        --trace "$art/swprof_fig9_trace.json" \
        --json "$art/swprof_fig9_stalls.json" > "$art/swprof_fig9.txt"
    echo "=== metrics exports $dir (si-metrics-v1 + si-profdiff-v1)"
    # SI-off vs SI-on runs of the same kernel, windowed metrics plus
    # region-annotated stats, then the profdiff reconciliation: swprof
    # --diff exits nonzero on any residual, so this line IS the
    # zero-residual gate even without python.
    "$dir/tools/swsim" kernels/fig9.sasm \
        --stats-json "$art/fig9_stats_base.json" \
        --metrics-out "$art/fig9_metrics_base.json" \
        --metrics-interval 100 > /dev/null
    "$dir/tools/swsim" kernels/fig9.sasm --si \
        --stats-json "$art/fig9_stats_si.json" \
        --metrics-out "$art/fig9_metrics_si.json" \
        --metrics-interval 100 > /dev/null
    "$dir/tools/swprof" --diff \
        "$art/fig9_stats_base.json" "$art/fig9_stats_si.json" \
        --json "$art/fig9_profdiff.json" > "$art/fig9_profdiff.txt"
    "$dir/tools/swprof" --diff \
        "$art/fig9_metrics_base.json" "$art/fig9_metrics_si.json" \
        --json "$art/fig9_profdiff_metrics.json" \
        > "$art/fig9_profdiff_metrics.txt"
    # Both input schemas tell the same story (line 1 names the inputs).
    cmp <(tail -n +2 "$art/fig9_profdiff.txt") \
        <(tail -n +2 "$art/fig9_profdiff_metrics.txt")
    if command -v python3 >/dev/null 2>&1; then
        python3 tools/check_bench_json.py tools/bench_schema.json \
            "$art/fig12a_speedup.json"
        for b in "${ported_sweeps[@]}"; do
            python3 tools/check_bench_json.py tools/bench_schema.json \
                "$art/$b.j1.json"
        done
        python3 -m json.tool "$art/swprof_fig9_trace.json" > /dev/null
        python3 -m json.tool "$art/swprof_fig9_stalls.json" > /dev/null
        python3 tools/check_bench_json.py tools/metrics_schema.json \
            "$art/fig9_metrics_base.json" "$art/fig9_metrics_si.json"
        python3 tools/check_bench_json.py tools/profdiff_schema.json \
            "$art/fig9_profdiff.json" "$art/fig9_profdiff_metrics.json"
    else
        echo "=== python3 not installed; skipping the JSON schema gate"
    fi
}

# Robustness soak: a campaign where every cell's first attempt has a
# live fault injected (the retry must recover), killed after three cells
# to force a mid-campaign restart. The resumed leg must converge to a
# complete all-done manifest that validates against the checked-in
# si-campaign-v1 schema.
check_campaign_soak() {
    local dir=$1
    local state="$dir/artifacts/soak-campaign"
    rm -rf "$state"
    echo "=== campaign soak $dir (fault injection + forced restart)"
    local rc=0
    "$dir/tools/swsim" kernels/fig9.sasm --warps 8 \
        --campaign-state "$state" --campaign-inject scoreboard \
        --checkpoint-every 200 --campaign-cells 3 \
        --campaign-timeout 60 > /dev/null || rc=$?
    if [[ $rc -ne 2 ]]; then
        echo "soak: first leg should stop with cells left (exit 2)," \
             "got exit $rc" >&2
        exit 1
    fi
    "$dir/tools/swsim" kernels/fig9.sasm --warps 8 \
        --campaign-state "$state" --campaign-resume \
        --campaign-inject scoreboard --checkpoint-every 200 \
        --campaign-timeout 60 --campaign-jobs 2
    if command -v python3 >/dev/null 2>&1; then
        python3 tools/check_bench_json.py tools/campaign_schema.json \
            "$state/campaign.json"
    else
        echo "=== python3 not installed; skipping the manifest schema gate"
    fi
}

# Resume equivalence through the CLI: a run resumed from a mid-run
# checkpoint must print the same stdout, si-stats-v1 and si-metrics-v1
# bytes as the uninterrupted run. The checkpointing leg installs the
# sampler (its exports go to /dev/null): a checkpoint taken without one
# is refused by a resume that has one.
check_resume() {
    local dir=$1
    echo "=== resume equivalence $dir (fig9, memlat: resumed vs uninterrupted)"
    resume_matches "$dir" fig9 kernels/fig9.sasm --si --yield --warps 8
    resume_matches "$dir" memlat kernels/memlat.sasm --lat 2000 --warps 8 \
        --mshrs 4
}

# One check_resume pair: NAME then the swsim arguments.
resume_matches() {
    local dir=$1 name=$2
    shift 2
    local out="$dir/artifacts/resume/$name"
    local swsim=("$dir/tools/swsim" "$@" --metrics-interval 64)
    mkdir -p "$(dirname "$out")"
    rm -f "$out.ckpt"
    "${swsim[@]}" --stats-json "$out.full.stats.json" \
        --metrics-out "$out.full.metrics.json" > "$out.full.txt"
    "${swsim[@]}" --checkpoint-every 300 --checkpoint "$out.ckpt" \
        --metrics-out /dev/null > /dev/null
    "${swsim[@]}" --resume "$out.ckpt" \
        --stats-json "$out.resumed.stats.json" \
        --metrics-out "$out.resumed.metrics.json" > "$out.resumed.txt"
    local part
    for part in txt stats.json metrics.json; do
        cmp "$out.full.$part" "$out.resumed.$part"
    done
}

# ThreadSanitizer leg for the parallel execution engine: build with
# -fsanitize=thread and drive the code that actually runs concurrent
# workers — the executor/equivalence suite (test_parallel) and the
# 64-seed differential matrix on the worker-thread path. A full ctest
# pass under TSan would mostly re-run single-threaded code at 5-15x
# slowdown for no extra race coverage, so this leg stays targeted.
run_tsan() {
    local dir=$1
    echo "=== configure $dir (thread sanitizer)"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSI_SANITIZE=thread
    echo "=== build $dir"
    cmake --build "$dir" -j "$(nproc)" --target test_parallel difftest
    echo "=== tsan $dir (parallel suite + 64-seed parallel difftest)"
    "$dir/tests/test_parallel"
    "$dir/tools/difftest" --seeds 64 --jobs 4
}

# Fast-forward equivalence gate: the event-driven cycle-leap engine
# must be invisible everywhere except wall-clock. Its sub-gates: the
# 256-seed differential + determinism sweep and the 256-seed race
# oracle sweep, each byte-compared between forced-on and forced-off
# (stdout and exit status both), the memlat
# high-latency cell's si-stats-v1/si-metrics-v1 exports byte-compared
# between modes, and the fig13 latency-sweep tables byte-compared
# between modes.
check_fastforward() {
    local dir=$1
    local art="$dir/artifacts"
    mkdir -p "$art"
    echo "=== fast-forward equivalence $dir (256-seed sweep, on vs off)"
    "$dir/tools/difftest" --seeds 256 --snapshot --jobs 0 \
        > "$art/difftest_ff_on.txt"
    "$dir/tools/difftest" --seeds 256 --snapshot --jobs 0 \
        --fast-forward=off > "$art/difftest_ff_off.txt"
    diff -u "$art/difftest_ff_on.txt" "$art/difftest_ff_off.txt"
    echo "=== fast-forward race oracle $dir (256-seed sweep, on vs off)"
    "$dir/tools/difftest" --seeds 256 --race --jobs 0 \
        > "$art/difftest_race_ff_on.txt"
    "$dir/tools/difftest" --seeds 256 --race --jobs 0 \
        --fast-forward=off > "$art/difftest_race_ff_off.txt"
    diff -u "$art/difftest_race_ff_on.txt" "$art/difftest_race_ff_off.txt"
    echo "=== fast-forward artifacts $dir (stats/metrics byte-identity)"
    local mode
    for mode in on off; do
        "$dir/tools/swsim" kernels/memlat.sasm --lat 2000 --warps 8 \
            --fast-forward=$mode \
            --stats-json "$art/memlat_stats_$mode.json" \
            --metrics-out "$art/memlat_metrics_$mode.json" \
            --metrics-interval 256 > /dev/null
    done
    cmp "$art/memlat_stats_on.json" "$art/memlat_stats_off.json"
    cmp "$art/memlat_metrics_on.json" "$art/memlat_metrics_off.json"
    echo "=== fast-forward fig13 $dir (golden tables, on vs off)"
    "$dir/bench/fig13_latency_sweep" --jobs 0 \
        > "$art/fig13_ff_on.txt" 2> /dev/null
    "$dir/bench/fig13_latency_sweep" --jobs 0 --fast-forward=off \
        > "$art/fig13_ff_off.txt" 2> /dev/null
    cmp "$art/fig13_ff_on.txt" "$art/fig13_ff_off.txt"
    echo "=== fast-forward fig15 $dir (golden tables, on vs off)"
    "$dir/bench/fig15_subwarp_count" --jobs 0 \
        > "$art/fig15_ff_on.txt" 2> /dev/null
    "$dir/bench/fig15_subwarp_count" --jobs 0 --fast-forward=off \
        > "$art/fig15_ff_off.txt" 2> /dev/null
    cmp "$art/fig15_ff_on.txt" "$art/fig15_ff_off.txt"
}

# Perfbench digest gate: every workload's seed-0 statistics digest is
# pinned in tests/golden/perfbench_digests.txt, so a speed-only change
# proves in CI that it changed nothing simulated. --trace 1 also re-runs
# sampled cells with fast-forward off; those twins must all match.
check_perfbench_digests() {
    local dir=$1
    local art="$dir/artifacts"
    mkdir -p "$art"
    if ! command -v python3 >/dev/null 2>&1; then
        echo "=== python3 not installed; skipping the perfbench digests"
        return 0
    fi
    echo "=== perfbench digests $dir (vs tests/golden/perfbench_digests.txt)"
    : > "$art/perfbench_digests.txt"
    local workload out
    for workload in rt-sweep memlat-ff subwarp-micro; do
        out=$(CARGO_TARGET_DIR="$dir/perfbench-target" \
            python3 perfbench/run.py --workload "$workload" --seed 0 \
            --seconds 1 --trace 1 2>> "$art/perfbench_build.log")
        if ! grep -q '"correct": true' <<< "$out" ||
            ! grep -q 'ff twins: .*, 0 mismatched' <<< "$out"; then
            echo "perfbench $workload: incorrect run or ff twin mismatch" >&2
            echo "$out" >&2
            exit 1
        fi
        grep '^ *digest ' <<< "$out" | sed 's/^ *//' \
            >> "$art/perfbench_digests.txt"
    done
    diff -u tests/golden/perfbench_digests.txt "$art/perfbench_digests.txt"
}

check_no_process_exit
run build-release -DCMAKE_BUILD_TYPE=Release
check_race build-release
check_exports build-release
check_campaign_soak build-release
check_resume build-release
check_fastforward build-release
check_perfbench_digests build-release
run build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSI_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
run_tsan build-tsan

echo "=== ci.sh: all green"
