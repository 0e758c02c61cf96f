#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

Usage: check_perf_regression.py BASELINE.json CURRENT.json
           [--threshold PCT] [--strict] [--update]

Compares the throughput counters (sim_cycles/s, tris/s, rays/s — any
counter ending in "/s") and, for counter-less benchmarks, the
real_time per iteration of every benchmark present in both files.
A benchmark whose throughput drops more than PCT percent (default 15)
below the baseline — or whose per-iteration time rises correspondingly
— is a regression and fails the gate.

Each side is read as its "median" aggregates (a run with
--benchmark_repetitions=N), keyed by run_name. A file without median
aggregates (a single-repetition recording) falls back to its plain
iteration entries, so an old baseline still compares.

Benchmark numbers are only comparable on the machine that produced the
baseline. The gate fingerprints the host (num_cpus, mhz_per_cpu from
the benchmark context) and, when the fingerprint differs from the
baseline's, skips the comparison with a notice instead of failing on
hardware noise. --strict compares anyway (for a pinned CI fleet).

Debug-built numbers are refused outright, on both sides and under
--update: the gate requires context/simulator_build_type == "release"
(stamped by bench/perf_simulator from NDEBUG).

--update rewrites BASELINE.json from CURRENT.json (after a hardware
change or an accepted perf trade-off) instead of comparing.

Exit status: 0 green or skipped, 1 regression or malformed input.
"""

import argparse
import json
import shutil
import sys


def fingerprint(doc):
    ctx = doc.get("context", {})
    return (ctx.get("num_cpus"), ctx.get("mhz_per_cpu"))


def build_type_error(doc, label):
    """Non-release numbers are noise: refuse them outright.

    The authoritative field is context/simulator_build_type, stamped by
    bench/perf_simulator from NDEBUG — i.e. the build type of the
    simulator code under test. (The stock library_build_type only
    reports how the google-benchmark library itself was compiled;
    distro packages ship non-NDEBUG builds, so it reads "debug" even
    under -DCMAKE_BUILD_TYPE=Release and is deliberately ignored.)
    Returns an error string for a debug-built or unstamped document,
    None when it is a release recording."""
    build = doc.get("context", {}).get("simulator_build_type")
    if build != "release":
        return (
            "perf gate: %s was produced by a '%s' simulator build; "
            "benchmark numbers are only meaningful from a Release "
            "build. Rebuild with -DCMAKE_BUILD_TYPE=Release and re-run "
            "(for the baseline: re-record it with --update)."
            % (label, build if build is not None else "unstamped")
        )
    return None


def entries(doc):
    """(run_name, entry) per benchmark: medians if any, else iterations."""
    benches = doc.get("benchmarks", [])
    medians = [b for b in benches
               if b.get("run_type") == "aggregate"
               and b.get("aggregate_name") == "median"]
    if medians:
        return [(b.get("run_name"), b) for b in medians]
    return [(b.get("run_name") or b.get("name"), b) for b in benches
            if b.get("run_type") != "aggregate"]


def metrics(doc):
    """run name -> (metric name, value, higher_is_better)."""
    out = {}
    for name, b in entries(doc):
        if not name:
            continue
        rate = None
        for key, value in b.items():
            if key.endswith("/s") and isinstance(value, (int, float)):
                rate = (key, float(value), True)
        if rate is not None:
            out[name] = rate
        elif isinstance(b.get("real_time"), (int, float)):
            out[name] = ("real_time", float(b["real_time"]), False)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="allowed regression in percent (default 15)")
    ap.add_argument("--strict", action="store_true",
                    help="compare even when the host fingerprint differs")
    ap.add_argument("--update", action="store_true",
                    help="replace the baseline with the current results")
    args = ap.parse_args()

    if args.update:
        try:
            with open(args.current) as f:
                cur_doc = json.load(f)
        except (OSError, ValueError) as e:
            print("perf gate: %s" % e, file=sys.stderr)
            return 1
        err = build_type_error(cur_doc, args.current)
        if err:
            print(err, file=sys.stderr)
            return 1
        shutil.copyfile(args.current, args.baseline)
        print("perf gate: baseline %s updated" % args.baseline)
        return 0

    try:
        with open(args.baseline) as f:
            base_doc = json.load(f)
        with open(args.current) as f:
            cur_doc = json.load(f)
    except (OSError, ValueError) as e:
        print("perf gate: %s" % e, file=sys.stderr)
        return 1

    for doc, label in ((base_doc, args.baseline), (cur_doc, args.current)):
        err = build_type_error(doc, label)
        if err:
            print(err, file=sys.stderr)
            return 1

    if fingerprint(base_doc) != fingerprint(cur_doc) and not args.strict:
        print(
            "perf gate: host fingerprint %r differs from baseline %r; "
            "skipping comparison (use --strict to force, --update to "
            "rebase)" % (fingerprint(cur_doc), fingerprint(base_doc))
        )
        return 0

    base = metrics(base_doc)
    cur = metrics(cur_doc)
    compared = 0
    failures = []
    for name, (metric, base_value, higher_is_better) in sorted(base.items()):
        if name not in cur or base_value <= 0:
            continue
        cur_metric, cur_value, _ = cur[name]
        if cur_metric != metric:
            continue
        compared += 1
        if higher_is_better:
            change = 100.0 * (cur_value - base_value) / base_value
        else:
            change = 100.0 * (base_value - cur_value) / base_value
        marker = "OK "
        if change < -args.threshold:
            marker = "REGRESSED"
            failures.append(name)
        print(
            "perf gate: %-9s %-40s %s %+.1f%% (%.3g -> %.3g)"
            % (marker, name, metric, change, base_value, cur_value)
        )
    if not compared:
        print("perf gate: no comparable benchmarks between baseline and "
              "current run", file=sys.stderr)
        return 1
    if failures:
        print(
            "perf gate: %d benchmark(s) regressed more than %.0f%%: %s"
            % (len(failures), args.threshold, ", ".join(failures)),
            file=sys.stderr,
        )
        return 1
    print("perf gate: %d benchmark(s) within %.0f%% of baseline"
          % (compared, args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
