#!/usr/bin/env python3
"""Validates BENCH_*.json perf records against the DESIGN.md §10 schema.

Usage:
    check_bench.py FILE [FILE ...]      # validate specific records
    check_bench.py --glob DIR           # validate every BENCH_*.json under DIR

Checks structure (required keys, types), metadata sanity (non-empty commit,
jobs >= 1), and internal consistency: p50 <= p99, items > 0, items_per_sec
matching items / wall_seconds_p50, headline pointing at the first scenario,
and every extra counter being a non-negative finite number. All records
given must share one build type ('flags'): throughput from a Release and a
RelWithDebInfo build differs by more than any change a record tracks, so a
set of records that mixes them compares build types, not code. Exits
non-zero with a per-file report on any violation, so ctest can gate on it.
"""

import argparse
import glob
import json
import math
import os
import sys

UNITS = {"events", "ops"}


def fail(errors, path, msg):
    errors.append(f"{path}: {msg}")


def check_scenario(errors, path, s, index):
    where = f"scenarios[{index}]"
    for key in ("name", "items_unit", "items", "repeats", "wall_seconds_p50",
                "wall_seconds_p99", "items_per_sec"):
        if key not in s:
            fail(errors, path, f"{where} missing key '{key}'")
            return
    if not isinstance(s["name"], str) or not s["name"]:
        fail(errors, path, f"{where} has empty name")
    if s["items_unit"] not in UNITS:
        fail(errors, path, f"{where} items_unit '{s['items_unit']}' not in {sorted(UNITS)}")
    if not isinstance(s["items"], int) or s["items"] <= 0:
        fail(errors, path, f"{where} items must be a positive integer, got {s['items']!r}")
        return
    if not isinstance(s["repeats"], int) or s["repeats"] < 1:
        fail(errors, path, f"{where} repeats must be >= 1, got {s['repeats']!r}")
    p50, p99 = s["wall_seconds_p50"], s["wall_seconds_p99"]
    for key, value in (("wall_seconds_p50", p50), ("wall_seconds_p99", p99)):
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            fail(errors, path, f"{where} {key} must be a positive finite number, got {value!r}")
            return
    if p50 > p99:
        fail(errors, path, f"{where} wall_seconds_p50 ({p50}) > wall_seconds_p99 ({p99})")
    ips = s["items_per_sec"]
    expect = s["items"] / p50
    # items_per_sec is derived from items/p50; emitted with %.3f so allow the
    # rounding, plus a little slack for float formatting of p50 itself.
    if not math.isclose(ips, expect, rel_tol=1e-3, abs_tol=0.002):
        fail(errors, path, f"{where} items_per_sec {ips} != items/p50 {expect:.3f}")
    for key, value in s.items():
        if key in ("name", "items_unit"):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(errors, path, f"{where} field '{key}' must be numeric, got {value!r}")
        elif not math.isfinite(value) or value < 0:
            fail(errors, path, f"{where} field '{key}' must be finite and >= 0, got {value!r}")


def check_record(errors, path, record):
    for key in ("bench", "schema", "commit", "flags", "jobs", "headline", "scenarios"):
        if key not in record:
            fail(errors, path, f"missing top-level key '{key}'")
            return
    if record["schema"] != 1:
        fail(errors, path, f"unknown schema version {record['schema']!r} (expected 1)")
    for key in ("bench", "commit", "flags"):
        if not isinstance(record[key], str) or not record[key]:
            fail(errors, path, f"'{key}' must be a non-empty string, got {record[key]!r}")
    if not isinstance(record["jobs"], int) or record["jobs"] < 1:
        fail(errors, path, f"'jobs' must be an integer >= 1, got {record['jobs']!r}")
    scenarios = record["scenarios"]
    if not isinstance(scenarios, list) or not scenarios:
        fail(errors, path, "'scenarios' must be a non-empty list")
        return
    for i, s in enumerate(scenarios):
        check_scenario(errors, path, s, i)
    headline = record["headline"]
    if not isinstance(headline, dict) or "name" not in headline or "items_per_sec" not in headline:
        fail(errors, path, "'headline' must be {name, items_per_sec}")
    elif scenarios and isinstance(scenarios[0], dict):
        if headline.get("name") != scenarios[0].get("name"):
            fail(errors, path,
                 f"headline '{headline.get('name')}' is not the first scenario "
                 f"'{scenarios[0].get('name')}'")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="BENCH_*.json records to validate")
    parser.add_argument("--glob", metavar="DIR",
                        help="also validate every BENCH_*.json under DIR")
    args = parser.parse_args()

    files = list(args.files)
    if args.glob:
        found = sorted(glob.glob(os.path.join(args.glob, "**", "BENCH_*.json"),
                                 recursive=True))
        if not found:
            print(f"check_bench: no BENCH_*.json under {args.glob}", file=sys.stderr)
            return 1
        files.extend(found)
    if not files:
        parser.error("no files given (pass records or --glob DIR)")

    errors = []
    flags = {}
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        except OSError as e:
            fail(errors, path, f"cannot read: {e}")
            continue
        except json.JSONDecodeError as e:
            fail(errors, path, f"invalid JSON: {e}")
            continue
        check_record(errors, path, record)
        if isinstance(record, dict) and isinstance(record.get("flags"), str):
            flags.setdefault(record["flags"], []).append(os.path.basename(path))
    if len(flags) > 1:
        mixed = "; ".join(f"{flag}: {', '.join(names)}" for flag, names in sorted(flags.items()))
        errors.append(f"records mix build types ({mixed})")

    if errors:
        for error in errors:
            print(f"check_bench: {error}", file=sys.stderr)
        print(f"check_bench: FAIL ({len(errors)} error(s) across {len(files)} file(s))",
              file=sys.stderr)
        return 1
    print(f"check_bench: OK ({len(files)} record(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
