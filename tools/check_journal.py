#!/usr/bin/env python3
"""Validate a write-ahead experiment journal emitted by the MFC tools.

Checks (stdlib only, no third-party deps):
  * every line is a well-formed frame {"crc":"<16 hex>","body":{...}} whose
    checksum equals FNV-1a 64 of the exact body bytes;
  * the first record is a header with magic "mfc-journal" and version 3
    (the only version this checker reads);
  * cohort records carry strictly sequential ordinals and their shard
    identity;
  * site records are consistent with their cohort declaration (index within
    the server count and this journal's shard, seed equal to the SplitMix64
    derivation SiteExperimentSeed(seed, cohort, index), pid == pid_base +
    index, matching stage) and never duplicated;
  * quarantine records (appended by the survey supervisor, DESIGN.md §14)
    name a site of their shard, carry crashes >= 1 and a signature, and
    never collide with a site record or another quarantine;
  * every site record embeds a structurally complete result summary: each
    epoch carries exactly the seven summary keys (crowd, received, expected,
    metric, exceeded, check, requeued) and no raw samples.

A journal whose last cohort has no site or quarantine records yet is valid
but flagged "resumable, zero progress" (a worker died between BeginCohort
and its first site) naming the shard index.

Usage:
  check_journal.py <journal.jsonl>
  check_journal.py --profile-bin <mfc_profile> [--workdir <dir>]

The second form runs a small fixed-seed journaled survey through
mfc_profile, validates the journal, resumes it (complete, after a simulated
torn tail write, after a mid-journal checksum bit flip, and with a
quarantine record present) and requires byte-identical trace/metrics
outputs, checks that config mismatches and a missing --resume are hard
errors (exit 3 — see the README exit-code table), that an output file
mfc_profile cannot write exits 1, and finally that a single experiment
whose journal write fails (a file-size limit standing in for a full disk)
exits 3, and that a single experiment replayed from its journal with
--resume writes byte-identical trace, metrics and JSON outputs. Exit status
0 = valid, 1 = validation failure, 2 = usage/setup error.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import tempfile

FRAME_PREFIX = b'{"crc":"'
FRAME_MID = b'","body":'


def fail(msg):
    print("check_journal: FAIL: %s" % msg, file=sys.stderr)
    return 1


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


MASK64 = 0xFFFFFFFFFFFFFFFF
# Domain constants from src/core/population.cc ("mfc-expr" as bytes).
EXPERIMENT_DOMAIN = 0x6D66632D65787072


def splitmix64(x):
    """The SplitMix64 finalizer, mirroring mfc::SplitMix64."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def site_experiment_seed(survey_seed, cohort, index):
    h = splitmix64(survey_seed ^ EXPERIMENT_DOMAIN)
    h = splitmix64(h ^ cohort)
    return splitmix64(h ^ index)


def parse_records(path):
    """Returns (records, error): the decoded bodies, or an error string."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        return None, "%s: %s" % (path, exc)
    if not data:
        return None, "%s: empty journal" % path
    if not data.endswith(b"\n"):
        return None, "%s: missing trailing newline (torn final write?)" % path
    records = []
    for i, line in enumerate(data.split(b"\n")[:-1]):
        if (
            not line.startswith(FRAME_PREFIX)
            or line[24:33] != FRAME_MID
            or not line.endswith(b"}")
        ):
            return None, "record %d: malformed frame" % i
        crc = line[8:24].decode("ascii", errors="replace")
        body = line[33:-1]
        if "%016x" % fnv1a64(body) != crc:
            return None, "record %d: checksum mismatch" % i
        try:
            records.append(json.loads(body))
        except ValueError as exc:
            return None, "record %d: body is not valid JSON: %s" % (i, exc)
    return records, None


EPOCH_SUMMARY_KEYS = {"crowd", "received", "expected", "metric", "exceeded", "check", "requeued"}


def check_result(result, where):
    if not isinstance(result, dict):
        return "%s: result is not an object" % where
    for key in ("aborted", "registered_clients", "stages"):
        if key not in result:
            return "%s: result missing %r" % (where, key)
    if not isinstance(result["stages"], list):
        return "%s: result stages is not a list" % where
    for s, stage in enumerate(result["stages"]):
        for key in ("kind", "stopped", "max_tested", "end_reason", "epochs"):
            if key not in stage:
                return "%s: stage %d missing %r" % (where, s, key)
        if not isinstance(stage["epochs"], list):
            return "%s: stage %d epochs is not a list" % (where, s)
        for e, epoch in enumerate(stage["epochs"]):
            if not isinstance(epoch, dict) or set(epoch) != EPOCH_SUMMARY_KEYS:
                return "%s: stage %d epoch %d is not the seven-key summary: %r" % (
                    where, s, e, sorted(epoch) if isinstance(epoch, dict) else epoch)
    return None


def check_journal(path):
    records, error = parse_records(path)
    if error is not None:
        return fail(error)

    header = records[0]
    if header.get("type") != "header":
        return fail("record 0 is %r, expected the header" % header.get("type"))
    if header.get("magic") != "mfc-journal":
        return fail("bad magic %r" % header.get("magic"))
    if header.get("version") != 3:
        return fail("unsupported version %r" % header.get("version"))
    for key in ("tool", "fingerprint"):
        if not isinstance(header.get(key), str) or not header[key]:
            return fail("header missing %s" % key)

    cohorts = []
    sites = set()
    quarantines = set()
    for i, rec in enumerate(records[1:], start=1):
        rtype = rec.get("type")
        if rtype == "header":
            return fail("record %d: duplicate header" % i)
        if rtype == "cohort":
            if rec.get("ordinal") != len(cohorts):
                return fail(
                    "record %d: cohort ordinal %r, expected %d"
                    % (i, rec.get("ordinal"), len(cohorts))
                )
            for key in ("cohort", "stage", "servers", "max_crowd", "seed", "pid_base",
                        "shards", "shard_index"):
                if key not in rec:
                    return fail("record %d: cohort record missing %r" % (i, key))
            cohorts.append(rec)
        elif rtype == "site":
            for key in ("cohort", "index", "seed", "stage", "pid", "result"):
                if key not in rec:
                    return fail("record %d: site record missing %r" % (i, key))
            ordinal, index = rec["cohort"], rec["index"]
            if ordinal < len(cohorts):
                cohort = cohorts[ordinal]
                if index >= cohort["servers"]:
                    return fail(
                        "record %d: site index %d >= cohort servers %d"
                        % (i, index, cohort["servers"])
                    )
                shards, shard_index = cohort["shards"], cohort["shard_index"]
                if index % shards != shard_index:
                    return fail(
                        "record %d: site index %d not in shard %d/%d"
                        % (i, index, shard_index, shards)
                    )
                if rec["seed"] != site_experiment_seed(cohort["seed"], cohort["cohort"], index):
                    return fail("record %d: site seed inconsistent with cohort" % i)
                if rec["pid"] != cohort["pid_base"] + index:
                    return fail("record %d: site pid inconsistent with cohort" % i)
                if rec["stage"] != cohort["stage"]:
                    return fail("record %d: site stage inconsistent with cohort" % i)
            if (ordinal, index) in sites:
                return fail("record %d: duplicate site (%d, %d)" % (i, ordinal, index))
            if (ordinal, index) in quarantines:
                return fail(
                    "record %d: site record for quarantined site (%d, %d)"
                    % (i, ordinal, index)
                )
            sites.add((ordinal, index))
            error = check_result(rec["result"], "record %d" % i)
            if error is not None:
                return fail(error)
        elif rtype == "quarantine":
            for key in ("cohort", "index", "crashes", "signature"):
                if key not in rec:
                    return fail("record %d: quarantine record missing %r" % (i, key))
            ordinal, index = rec["cohort"], rec["index"]
            if not isinstance(rec["crashes"], int) or rec["crashes"] < 1:
                return fail("record %d: quarantine crashes %r < 1" % (i, rec["crashes"]))
            if ordinal < len(cohorts):
                cohort = cohorts[ordinal]
                if index >= cohort["servers"]:
                    return fail(
                        "record %d: quarantine index %d >= cohort servers %d"
                        % (i, index, cohort["servers"])
                    )
                shards, shard_index = cohort["shards"], cohort["shard_index"]
                if index % shards != shard_index:
                    return fail(
                        "record %d: quarantine index %d not in shard %d/%d"
                        % (i, index, shard_index, shards)
                    )
            if (ordinal, index) in sites:
                return fail(
                    "record %d: quarantine for executed site (%d, %d)"
                    % (i, ordinal, index)
                )
            if (ordinal, index) in quarantines:
                return fail(
                    "record %d: duplicate quarantine (%d, %d)" % (i, ordinal, index)
                )
            quarantines.add((ordinal, index))
        else:
            return fail("record %d: unknown type %r" % (i, rtype))

    if cohorts:
        last = len(cohorts) - 1
        progressed = any(ordinal == last for ordinal, _ in sites | quarantines)
        if not progressed:
            shards, shard_index = cohorts[last]["shards"], cohorts[last]["shard_index"]
            print(
                "check_journal: NOTE: shard %d/%d is resumable, zero progress on "
                "cohort %d (BeginCohort written, no site records yet)"
                % (shard_index, shards, last)
            )
    print(
        "check_journal: OK: %d record(s): header + %d cohort(s) + %d site(s) + "
        "%d quarantine(s)"
        % (len(records), len(cohorts), len(sites), len(quarantines))
    )
    return 0


def run(cmd):
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def run_profile(profile_bin, workdir):
    journal = os.path.join(workdir, "journal.jsonl")

    def survey_cmd(seed, trace, metrics, resume):
        cmd = [
            profile_bin,
            "--cohort=startup",
            "--survey=4",
            "--seed=%d" % seed,
            "--max-crowd=20",
            "--jobs=2",
            "--quiet",
            "--journal=" + journal,
            "--trace=" + os.path.join(workdir, trace),
            "--metrics=" + os.path.join(workdir, metrics),
        ]
        if resume:
            cmd.append("--resume")
        return cmd

    def slurp(name):
        with open(os.path.join(workdir, name), "rb") as f:
            return f.read()

    # 1. A full journaled run must succeed and leave a valid journal.
    proc = run(survey_cmd(5, "t1.json", "m1.csv", resume=False))
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        print("check_journal: SETUP FAIL: journaled run exited %d" % proc.returncode,
              file=sys.stderr)
        return 2
    rc = check_journal(journal)
    if rc != 0:
        return rc

    # 1b. An epoch carrying raw samples (the version 2 form) is malformed.
    with open(journal, "rb") as f:
        lines = f.read().split(b"\n")
    site = json.loads(lines[2][33:-1])
    site["result"]["stages"][0]["epochs"][0]["samples"] = []
    body = json.dumps(site, separators=(",", ":")).encode()
    with_samples = os.path.join(workdir, "with_samples.jsonl")
    with open(with_samples, "wb") as f:
        f.write(b"\n".join(lines[:2]) + b'\n{"crc":"%016x","body":%s}\n' % (fnv1a64(body), body))
    if check_journal(with_samples) == 0:
        return fail("checker accepted a site record whose epoch carries samples")

    # 2. Resuming the complete journal replays everything and reproduces the
    #    trace/metrics outputs byte for byte.
    proc = run(survey_cmd(5, "t2.json", "m2.csv", resume=True))
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        return fail("resume of a complete journal exited %d" % proc.returncode)
    if b"4 site(s) replayed, 0 executed" not in proc.stdout:
        return fail("complete-journal resume did not replay all 4 sites: %r" % proc.stdout)
    if slurp("t1.json") != slurp("t2.json"):
        return fail("trace differs after complete-journal resume")
    if slurp("m1.csv") != slurp("m2.csv"):
        return fail("metrics differ after complete-journal resume")
    print("check_journal: OK: complete-journal resume is byte-identical")

    # 3. Simulate a crash mid-append: chop the tail off the last record. The
    #    resume must warn, drop the torn record, re-execute that site, and
    #    still reproduce identical outputs.
    with open(journal, "rb") as f:
        contents = f.read()
    with open(journal, "wb") as f:
        f.write(contents[:-40])
    proc = run(survey_cmd(5, "t3.json", "m3.csv", resume=True))
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        return fail("resume of a torn journal exited %d" % proc.returncode)
    if b"journal warning" not in proc.stderr:
        return fail("torn-tail resume emitted no corruption warning")
    if b"3 site(s) replayed, 1 executed" not in proc.stdout:
        return fail("torn-tail resume had unexpected replay counts: %r" % proc.stdout)
    if slurp("t1.json") != slurp("t3.json"):
        return fail("trace differs after torn-tail resume")
    if slurp("m1.csv") != slurp("m3.csv"):
        return fail("metrics differ after torn-tail resume")
    rc = check_journal(journal)
    if rc != 0:
        return rc
    print("check_journal: OK: torn-tail resume recovered and is byte-identical")

    # 4. A different seed contradicts the journal's cohort record: hard
    #    error, exit 3 (journal error — see the README exit-code table).
    proc = run(survey_cmd(6, "t4.json", "m4.csv", resume=True))
    if proc.returncode != 3 or b"journal error" not in proc.stderr:
        return fail(
            "config-mismatch resume should exit 3 with a journal error, got %d: %r"
            % (proc.returncode, proc.stderr)
        )

    # 5. Reusing a populated journal without --resume: hard error, exit 3.
    proc = run(survey_cmd(5, "t5.json", "m5.csv", resume=False))
    if proc.returncode != 3 or b"--resume" not in proc.stderr:
        return fail(
            "populated journal without --resume should exit 3, got %d: %r"
            % (proc.returncode, proc.stderr)
        )
    print("check_journal: OK: config mismatch and missing --resume are hard errors")

    # 6. Bit-flipped checksum mid-journal: the checker must reject it, and a
    #    resume must warn, drop everything from the flipped record on,
    #    re-execute those sites, and still reproduce identical outputs.
    with open(journal, "rb") as f:
        lines = f.read().split(b"\n")
    flipped = bytearray(lines[2])  # first site record's frame
    flipped[9] = ord(b"0") if flipped[9] != ord(b"0") else ord(b"f")  # crc hex digit
    with open(journal, "wb") as f:
        f.write(b"\n".join(lines[:2] + [bytes(flipped)] + lines[3:]))
    if check_journal(journal) == 0:
        return fail("checker accepted a journal with a bit-flipped checksum")
    proc = run(survey_cmd(5, "t6.json", "m6.csv", resume=True))
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        return fail("resume of a bit-flipped journal exited %d" % proc.returncode)
    if b"journal warning" not in proc.stderr:
        return fail("bit-flip resume emitted no corruption warning")
    if slurp("t1.json") != slurp("t6.json"):
        return fail("trace differs after bit-flip resume")
    if slurp("m1.csv") != slurp("m6.csv"):
        return fail("metrics differ after bit-flip resume")
    rc = check_journal(journal)
    if rc != 0:
        return rc
    print("check_journal: OK: bit-flipped-checksum resume recovered, byte-identical")

    # 7. Quarantine round-trip: crash the worker on site 1 (jobs=1, so site 0
    #    is durable first), append a supervisor-style quarantine record, and
    #    resume: the run must skip site 1 and complete.
    q_journal = os.path.join(workdir, "quarantine.jsonl")

    def q_cmd(resume):
        return [
            profile_bin,
            "--cohort=startup",
            "--survey=4",
            "--seed=5",
            "--max-crowd=20",
            "--jobs=1",
            "--quiet",
            "--journal=" + q_journal,
        ] + (["--resume"] if resume else [])

    env = dict(os.environ, MFC_CRASH_SITE="1")
    proc = subprocess.run(q_cmd(resume=False), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env)
    if proc.returncode == 0:
        return fail("MFC_CRASH_SITE=1 run unexpectedly succeeded")
    record = json.dumps(
        {"type": "quarantine", "cohort": 0, "index": 1, "crashes": 3,
         "signature": "signal 6 (Aborted)"},
        separators=(",", ":")).encode()
    with open(q_journal, "ab") as f:
        f.write(b'{"crc":"%016x","body":%s}\n' % (fnv1a64(record), record))
    rc = check_journal(q_journal)
    if rc != 0:
        return rc
    proc = run(q_cmd(resume=True))
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        return fail("resume with a quarantined site exited %d" % proc.returncode)
    if b"1 site(s) replayed, 2 executed" not in proc.stdout:
        return fail("quarantine resume had unexpected replay counts: %r" % proc.stdout)
    print("check_journal: OK: quarantine record skips its site on resume")

    # 8. A duplicate quarantine record is corruption: the checker rejects it,
    #    and a resume drops it (plus anything after) with a warning.
    with open(q_journal, "ab") as f:
        f.write(b'{"crc":"%016x","body":%s}\n' % (fnv1a64(record), record))
    if check_journal(q_journal) == 0:
        return fail("checker accepted a duplicate quarantine record")
    proc = run(q_cmd(resume=True))
    if proc.returncode != 0 or b"journal warning" not in proc.stderr:
        return fail(
            "duplicate-quarantine resume should warn and recover, got %d: %r"
            % (proc.returncode, proc.stderr)
        )
    print("check_journal: OK: duplicate quarantine record is dropped corruption")

    # 9. An output that cannot be written is exit 1 (README exit-code table),
    #    for a survey's report and trace and for a single experiment's JSON.
    missing = os.path.join(workdir, "no_such_dir")
    write_cmds = [
        [profile_bin, "--cohort=rank4", "--survey=2", "--max-crowd=20",
         "--json=" + os.path.join(missing, "r.json"),
         "--trace=" + os.path.join(missing, "t.json")],
        [profile_bin, "--profile=univ1", "--quiet", "--stages=base", "--max-crowd=20",
         "--json=" + os.path.join(missing, "s.json")],
    ]
    for cmd in write_cmds:
        proc = run(cmd)
        if proc.returncode != 1 or b"cannot write" not in proc.stderr:
            return fail(
                "unwritable output should exit 1 with 'cannot write', got %d for %r: %r"
                % (proc.returncode, cmd[1:], proc.stderr)
            )
    print("check_journal: OK: unwritable outputs exit 1")

    # 10. A journal write that fails is exit 3, not a success with the
    #     record missing: a single experiment under a file-size limit too
    #     small for its site record (SIGXFSZ ignored, so the write fails
    #     with EFBIG).
    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))

    proc = subprocess.run(
        [profile_bin, "--profile=univ1", "--quiet", "--stages=base", "--max-crowd=20",
         "--journal=" + os.path.join(workdir, "full_disk.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limit_file_size)
    if proc.returncode != 3 or b"journal error" not in proc.stderr:
        return fail(
            "failed journal write should exit 3 with a journal error, got %d: %r"
            % (proc.returncode, proc.stderr)
        )
    print("check_journal: OK: a failed journal write exits 3")

    # 11. A single experiment journals as site (0, 0) with no cohort record.
    #     Rerun with --resume, it replays that record without deploying the
    #     site, and its trace, metrics and JSON must match the live run's.
    single = os.path.join(workdir, "single.jsonl")

    def single_cmd(tag, resume):
        return [
            profile_bin, "--profile=univ1", "--stages=base", "--max-crowd=20",
            "--journal=" + single,
            "--trace=" + os.path.join(workdir, "single_t%s.json" % tag),
            "--metrics=" + os.path.join(workdir, "single_m%s.csv" % tag),
            "--json=" + os.path.join(workdir, "single_r%s.json" % tag),
        ] + (["--resume"] if resume else [])

    proc = run(single_cmd("1", resume=False))
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        return fail("journaled single experiment exited %d" % proc.returncode)
    proc = run(single_cmd("2", resume=True))
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        return fail("resumed single experiment exited %d" % proc.returncode)
    if b"(replayed from journal)" not in proc.stdout:
        return fail("resumed single experiment did not replay site (0, 0): %r" % proc.stdout)
    for name in ("single_t%s.json", "single_m%s.csv", "single_r%s.json"):
        if slurp(name % "1") != slurp(name % "2"):
            return fail("%s differs after single-experiment replay" % (name % "2"))
    print("check_journal: OK: single-experiment replay is byte-identical")
    return 0


def main(argv):
    if len(argv) >= 3 and argv[1] == "--profile-bin":
        profile_bin = argv[2]
        workdir = None
        if len(argv) >= 5 and argv[3] == "--workdir":
            workdir = argv[4]
        if workdir:
            os.makedirs(workdir, exist_ok=True)
            return run_profile(profile_bin, workdir)
        with tempfile.TemporaryDirectory() as tmp:
            return run_profile(profile_bin, tmp)
    if len(argv) == 2:
        return check_journal(argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
