#!/usr/bin/env python3
"""Validate sharded surveys end-to-end against a single-process run.

Drives mfc_profile (stdlib only, no third-party deps) through:

  1. a reference unsharded survey with --json/--trace/--metrics/--journal;
  2. the same survey split --shards=2 and --shards=4 ways, with shard 0
     killed mid-run (simulated by truncating its journal tail) and resumed
     under a different --jobs count; the --merge of the shard journals must
     reproduce the reference report, trace and metrics BYTE FOR BYTE;
  3. seed validation: every journaled site seed must equal the SplitMix64
     derivation SiteExperimentSeed(seed, cohort, index), as
     check_journal.py reimplements it (the collision-free scheme that
     replaced seed * 1000 + index);
  4. merge of an incomplete shard: hard error naming --resume;
  5. a 100k-site --sample-only streaming pass over the long-tail cohort:
     its digest must be reproducible across invocations.

Usage:
  check_shard_merge.py --profile-bin <mfc_profile> [--workdir <dir>]

Exit status 0 = valid, 1 = validation failure, 2 = usage/setup error.
"""

import json
import os
import subprocess
import sys
import tempfile

from check_journal import site_experiment_seed

SURVEY = ["--cohort=startup", "--survey=8", "--seed=5", "--max-crowd=20", "--quiet"]


def fail(msg):
    print("check_shard_merge: FAIL: %s" % msg, file=sys.stderr)
    return 1


def run(cmd):
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def slurp(path):
    with open(path, "rb") as f:
        return f.read()


def check_journal_seeds(path):
    """Every site record's seed must be the SplitMix64 derivation."""
    cohorts = {}
    with open(path, "rb") as f:
        for line in f.read().split(b"\n"):
            if not line:
                continue
            body = json.loads(line)["body"]
            if body.get("type") == "cohort":
                cohorts[body["ordinal"]] = body
            elif body.get("type") == "site":
                cohort = cohorts[body["cohort"]]
                expect = site_experiment_seed(
                    cohort["seed"], cohort["cohort"], body["index"]
                )
                if body["seed"] != expect:
                    return "site %d seed %d != SplitMix64 derivation %d" % (
                        body["index"],
                        body["seed"],
                        expect,
                    )
    return None


def run_checks(profile_bin, workdir):
    def path(name):
        return os.path.join(workdir, name)

    # 1. Reference single-process run.
    ref_journal = path("ref.jsonl")
    proc = run(
        [profile_bin, *SURVEY, "--jobs=2", "--journal=" + ref_journal]
        + ["--json=" + path(n) for n in ("ref.json",)]
        + ["--trace=" + path("ref.trace"), "--metrics=" + path("ref.csv")]
    )
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        print(
            "check_shard_merge: SETUP FAIL: reference run exited %d" % proc.returncode,
            file=sys.stderr,
        )
        return 2

    # Seeds in the reference journal follow the collision-free derivation.
    error = check_journal_seeds(ref_journal)
    if error is not None:
        return fail("reference journal: %s" % error)
    print("check_shard_merge: OK: journal seeds match the SplitMix64 derivation")

    # 2. Sharded runs, one shard killed + resumed, merged byte-identically.
    for shards in (2, 4):
        journals = []
        for shard in range(shards):
            journal = path("s%d_%d.jsonl" % (shards, shard))
            journals.append(journal)
            proc = run(
                [
                    profile_bin,
                    *SURVEY,
                    "--jobs=2",
                    "--shards=%d" % shards,
                    "--shard-index=%d" % shard,
                    "--journal=" + journal,
                    "--trace=" + path("s.trace"),
                    "--metrics=" + path("s.csv"),
                ]
            )
            if proc.returncode != 0:
                print(proc.stderr.decode(errors="replace"), file=sys.stderr)
                return fail("shard %d/%d exited %d" % (shard, shards, proc.returncode))
        # Kill shard 0 mid-run: chop its journal tail (a torn last record,
        # as a crash mid-append leaves it; resume drops it and re-runs the
        # site), then resume with a different jobs count.
        contents = slurp(journals[0])
        with open(journals[0], "wb") as f:
            f.write(contents[:-40])
        proc = run(
            [
                profile_bin,
                *SURVEY,
                "--jobs=1",
                "--shards=%d" % shards,
                "--shard-index=0",
                "--journal=" + journals[0],
                "--resume",
                "--trace=" + path("s.trace"),
                "--metrics=" + path("s.csv"),
            ]
        )
        if proc.returncode != 0:
            print(proc.stderr.decode(errors="replace"), file=sys.stderr)
            return fail("killed shard 0/%d did not resume cleanly" % shards)
        if b"journal warning" not in proc.stderr:
            return fail("killed shard 0/%d resumed without a corruption warning" % shards)

        merged = ("m%d.json" % shards, "m%d.trace" % shards, "m%d.csv" % shards)
        proc = run(
            [
                profile_bin,
                "--merge=" + ",".join(journals),
                "--json=" + path(merged[0]),
                "--trace=" + path(merged[1]),
                "--metrics=" + path(merged[2]),
            ]
        )
        if proc.returncode != 0:
            print(proc.stderr.decode(errors="replace"), file=sys.stderr)
            return fail("merge of %d shards exited %d" % (shards, proc.returncode))
        for ref, out in zip(("ref.json", "ref.trace", "ref.csv"), merged):
            if slurp(path(ref)) != slurp(path(out)):
                return fail(
                    "%d-shard merge: %s differs from the single-process %s" % (shards, out, ref)
                )
        print(
            "check_shard_merge: OK: %d-shard merge (with a killed + resumed shard) is "
            "byte-identical" % shards
        )

    # 3. Merging an incomplete shard is a hard error (exit 3, see the README
    #    exit-code table) with a resume hint naming the shard.
    contents = slurp(journals[1])
    cut = contents.rstrip(b"\n").rfind(b"\n")
    with open(journals[1], "wb") as f:
        f.write(contents[: cut + 1])
    proc = run([profile_bin, "--merge=" + ",".join(journals), "--json=" + path("bad.json")])
    if (
        proc.returncode != 3
        or b"missing site" not in proc.stderr
        or b"--resume" not in proc.stderr
    ):
        return fail(
            "incomplete-shard merge should exit 3 with a resume hint, got %d: %r"
            % (proc.returncode, proc.stderr)
        )
    print("check_shard_merge: OK: incomplete-shard merge is a hard error")

    # 3b. A shard that died between BeginCohort and its first site record is
    #     classified "resumable, zero progress" naming the shard, not
    #     rejected ambiguously.
    lines = contents.split(b"\n")
    with open(journals[1], "wb") as f:
        f.write(b"\n".join(lines[:2]) + b"\n")  # header + cohort record only
    proc = run([profile_bin, "--merge=" + ",".join(journals), "--json=" + path("bad.json")])
    if (
        proc.returncode != 3
        or b"zero progress" not in proc.stderr
        or b"--resume" not in proc.stderr
    ):
        return fail(
            "zero-progress shard merge should exit 3 and classify the shard, got %d: %r"
            % (proc.returncode, proc.stderr)
        )
    print("check_shard_merge: OK: zero-progress shard is classified resumable")

    # 4. Streaming sampling at 100k sites is reproducible.
    digests = []
    for _ in range(2):
        proc = run(
            [profile_bin, "--cohort=longtail", "--survey=100000", "--seed=9", "--sample-only"]
        )
        if proc.returncode != 0:
            print(proc.stderr.decode(errors="replace"), file=sys.stderr)
            return fail("100k-site --sample-only exited %d" % proc.returncode)
        digests.append(proc.stdout.decode(errors="replace"))
    if digests[0] != digests[1]:
        return fail("streaming sample digest is not reproducible: %r vs %r" % tuple(digests))
    print("check_shard_merge: OK: 100k-site streaming sample, stable digest")
    return 0


def main(argv):
    if len(argv) >= 3 and argv[1] == "--profile-bin":
        profile_bin = argv[2]
        workdir = None
        if len(argv) >= 5 and argv[3] == "--workdir":
            workdir = argv[4]
        if workdir:
            os.makedirs(workdir, exist_ok=True)
            return run_checks(profile_bin, workdir)
        with tempfile.TemporaryDirectory() as tmp:
            return run_checks(profile_bin, tmp)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
