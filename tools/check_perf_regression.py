#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json records (DESIGN.md §10/§11).

Usage:
    check_perf_regression.py --baseline-dir DIR FRESH [FRESH ...]
        # each FRESH BENCH_x.json compares against DIR/BENCH_x.json
    check_perf_regression.py --baseline OLD --fresh NEW
        # one explicit pair
    check_perf_regression.py --baseline-dir DIR --against-seed
        # trajectory check: DIR/BENCH_x.json vs DIR/BENCH_x.seed.json
    check_perf_regression.py --self-test --baseline-dir DIR
        # sanity: a synthetically degraded copy of a baseline MUST fail

For every scenario present in both records it prints a delta table
(baseline vs fresh items_per_sec). The gate FAILS only when a *headline*
scenario's throughput drops by more than --threshold (default 15%):
non-headline scenarios are reported informationally, because trajectory
baselines legitimately trade micro-scenario speed for algorithmic wins
(see bench/baselines/). Scenarios whose 'items' differ are skipped, not
failed — ctest smoke runs emit records at --scale=0.1, and a throughput
ratio across different workload sizes is meaningless.
"""

import argparse
import copy
import json
import os
import sys

DEFAULT_THRESHOLD = 0.15


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def scenario_map(record):
    return {s["name"]: s for s in record.get("scenarios", []) if isinstance(s, dict)}


def compare(baseline, fresh, baseline_name, fresh_name, threshold):
    """Returns (rows, failures). Each row is a printable delta entry."""
    rows = []
    failures = []
    headline = fresh.get("headline", {}).get("name")
    base_scenarios = scenario_map(baseline)
    for s in fresh.get("scenarios", []):
        name = s.get("name")
        base = base_scenarios.get(name)
        tag = "headline" if name == headline else ""
        if base is None:
            rows.append((name, tag, None, s.get("items_per_sec"), None,
                         "SKIP (no baseline scenario)"))
            continue
        if base.get("items") != s.get("items"):
            rows.append((name, tag, base.get("items_per_sec"), s.get("items_per_sec"), None,
                         f"SKIP (items {base.get('items')} vs {s.get('items')})"))
            continue
        old_ips, new_ips = base.get("items_per_sec"), s.get("items_per_sec")
        if not old_ips or not new_ips:
            rows.append((name, tag, old_ips, new_ips, None, "SKIP (missing items_per_sec)"))
            continue
        delta = (new_ips - old_ips) / old_ips
        if name == headline and delta < -threshold:
            status = f"FAIL (> {threshold:.0%} regression)"
            failures.append(
                f"{fresh_name}: headline '{name}' regressed {-delta:.1%} "
                f"({old_ips:,.0f} -> {new_ips:,.0f} items/sec) vs {baseline_name}")
        elif delta < -threshold:
            status = "regressed (non-headline, informational)"
        else:
            status = "OK"
        rows.append((name, tag, old_ips, new_ips, delta, status))
    return rows, failures


def print_table(title, rows):
    print(f"\n{title}")
    print(f"  {'scenario':<24} {'':<9} {'baseline/s':>14} {'fresh/s':>14} {'delta':>8}  status")
    for name, tag, old_ips, new_ips, delta, status in rows:
        old_s = f"{old_ips:,.0f}" if isinstance(old_ips, (int, float)) else "-"
        new_s = f"{new_ips:,.0f}" if isinstance(new_ips, (int, float)) else "-"
        delta_s = f"{delta:+.1%}" if delta is not None else "-"
        print(f"  {name:<24} {tag:<9} {old_s:>14} {new_s:>14} {delta_s:>8}  {status}")


def run_pairs(pairs, threshold):
    failures = []
    compared = 0
    for baseline_path, fresh_path in pairs:
        try:
            baseline = load(baseline_path)
            fresh = load(fresh_path)
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"{fresh_path}: cannot compare: {e}")
            continue
        rows, fails = compare(baseline, fresh, baseline_path, fresh_path, threshold)
        print_table(f"{os.path.basename(fresh_path)} vs {os.path.basename(baseline_path)}", rows)
        failures.extend(fails)
        compared += 1
    return compared, failures


def self_test(baseline_dir, threshold):
    """The gate must flag a record whose headline throughput halved."""
    candidates = sorted(
        f for f in os.listdir(baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json") and not f.endswith(".seed.json"))
    if not candidates:
        print(f"check_perf_regression: self-test found no baselines in {baseline_dir}",
              file=sys.stderr)
        return 1
    path = os.path.join(baseline_dir, candidates[0])
    baseline = load(path)
    degraded = copy.deepcopy(baseline)
    headline = degraded["headline"]["name"]
    for s in degraded["scenarios"]:
        if s["name"] == headline:
            s["items_per_sec"] *= 0.5
            s["wall_seconds_p50"] *= 2
            s["wall_seconds_p99"] *= 2
    degraded["headline"]["items_per_sec"] *= 0.5
    rows, failures = compare(baseline, degraded, path, "<degraded copy>", threshold)
    print_table(f"self-test: synthetically degraded {os.path.basename(path)}", rows)
    if not failures:
        print("check_perf_regression: SELF-TEST FAIL — a 50% headline regression "
              "was not flagged", file=sys.stderr)
        return 1
    print(f"\ncheck_perf_regression: self-test OK (degraded headline was flagged: "
          f"{failures[0]})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh_files", nargs="*",
                        help="fresh BENCH_*.json records (with --baseline-dir)")
    parser.add_argument("--baseline-dir", metavar="DIR",
                        help="directory of baseline BENCH_*.json records")
    parser.add_argument("--baseline", metavar="FILE", help="explicit baseline record")
    parser.add_argument("--fresh", metavar="FILE", help="explicit fresh record")
    parser.add_argument("--against-seed", action="store_true",
                        help="compare DIR/BENCH_x.json against DIR/BENCH_x.seed.json")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="max allowed fractional headline regression (default 0.15)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate fails on a synthetic degradation")
    args = parser.parse_args()

    if args.self_test:
        if not args.baseline_dir:
            parser.error("--self-test requires --baseline-dir")
        return self_test(args.baseline_dir, args.threshold)

    pairs = []
    if args.baseline and args.fresh:
        pairs.append((args.baseline, args.fresh))
    if args.against_seed:
        if not args.baseline_dir:
            parser.error("--against-seed requires --baseline-dir")
        for name in sorted(os.listdir(args.baseline_dir)):
            if not (name.startswith("BENCH_") and name.endswith(".json")):
                continue
            if name.endswith(".seed.json"):
                continue
            seed = os.path.join(args.baseline_dir, name[:-len(".json")] + ".seed.json")
            if os.path.exists(seed):
                pairs.append((seed, os.path.join(args.baseline_dir, name)))
    for fresh_path in args.fresh_files:
        if not args.baseline_dir:
            parser.error("fresh files require --baseline-dir")
        baseline_path = os.path.join(args.baseline_dir, os.path.basename(fresh_path))
        if not os.path.exists(baseline_path):
            print(f"check_perf_regression: no baseline for {fresh_path}, skipping",
                  file=sys.stderr)
            continue
        pairs.append((baseline_path, fresh_path))
    if not pairs:
        parser.error("nothing to compare (see usage)")

    compared, failures = run_pairs(pairs, args.threshold)
    if failures:
        print()
        for failure in failures:
            print(f"check_perf_regression: {failure}", file=sys.stderr)
        print(f"check_perf_regression: FAIL ({len(failures)} headline regression(s) "
              f"across {compared} record(s))", file=sys.stderr)
        return 1
    print(f"\ncheck_perf_regression: OK ({compared} record(s), headline threshold "
          f"{args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
