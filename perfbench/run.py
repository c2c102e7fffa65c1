#!/usr/bin/env python3
"""Survey benchmark entry point: builds perfbench/ and makes one measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (Release, from the repository's own src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs it. stdout carries a provenance line and, as its last line, one
JSON object with exactly the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when the run passed its correctness gate.
perfbench/README.md documents workloads, metrics and the gate.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
WORKLOADS = ("large_object", "base", "longtail_query", "base_observed")
# setup_s is the median of this many process starts.
SETUP_REPEATS = 7
# The measured run's own deadline; the build before it is not counted.
RUN_TIMEOUT_S = 160


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no repository sources next to perfbench/ (src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "mfc_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "mfc_perfbench")


def setup_seconds(cmd):
    """Starts |cmd| (a --setup-only run) and returns the time from process
    start until it reports its first site dispatched, scaled to the
    reference machine speed the program measures right after (see the
    machine-speed normalisation in main.cc)."""
    start = time.perf_counter()
    # Unbuffered: readline() must not pull later lines into a Python-side
    # buffer that communicate() would then skip.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    code, rest = finish(proc, 60)
    lines = [line.decode()] + rest.decode().splitlines()
    events = [json.loads(text) for text in lines if text.strip()]
    kinds = [event.get("event") for event in events]
    if code != 0 or kinds != ["dispatch", "speed"]:
        raise RuntimeError(f"--setup-only run exited {code} with events {kinds}")
    return elapsed * events[1]["scale"]


def finish(proc, timeout):
    """Waits for |proc| and returns (exit code, stdout); kills it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"benchmark run exceeded {timeout}s")
    return proc.returncode, out


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the measured code
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=10)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    work_dir = os.path.join(bdir, f"run-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        setup_samples = []
        if args.trace == 0:
            setup_samples = [setup_seconds(cmd + ["--setup-only"]) for _ in range(SETUP_REPEATS)]
        code, out = finish(subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True),
                           RUN_TIMEOUT_S)
    except (RuntimeError, OSError, ValueError) as error:
        log(str(error))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark exited {code} without a result")
        return 1
    metrics = result["metrics"]
    if args.trace == 0 and result["correct"]:
        # Insert setup_s in BENCHMARK.json's end_to_end order.
        ordered = {}
        for name, value in metrics.items():
            ordered[name] = value
            if name == "site_ms_p90":
                ordered["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
        metrics = ordered

    provenance = dict(result["info"])
    provenance.update({
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup_samples,
    })
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
