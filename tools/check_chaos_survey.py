#!/usr/bin/env python3
"""Chaos gate for the survey supervisor (DESIGN.md §14).

Proves that `mfc_profile --supervise` converges to the exact fault-free
answer while its workers are being killed out from under it (stdlib only,
no third-party deps):

  1. a fault-free unsharded reference run records the expected report,
     trace and metrics bytes;
  2. N seeded chaos rounds (default 3) each start a supervised 2-shard run
     and repeatedly SIGKILL or SIGSTOP a random live worker mid-run —
     worker pids are parsed from the supervisor's "shard J pid P started"
     lines, a strike counts only once it has landed on a live worker
     (stopped or dead, read from /proc), and a shard only becomes a target
     again after its journal grew past that point (so restarts
     demonstrably made progress and no healthy site can accumulate a
     no-progress blame streak).
     SIGSTOPped workers must be detected by the heartbeat deadline and
     hang-killed. Every round must end with exit 0 and report/trace/
     metrics BYTE-IDENTICAL to the fault-free reference;
  3. a poisoned-site round: MFC_CRASH_SITE makes one site abort() its
     worker on every attempt; with --quarantine-after=2 the supervisor
     must quarantine exactly that site, finish the survey, and surface it
     in the merged report's "quarantined_sites".

Usage:
  check_chaos_survey.py --profile-bin <mfc_profile> [--rounds N]
      [--seed S] [--workdir <dir>]

Exit status 0 = valid, 1 = validation failure, 2 = usage/setup error.
"""

import json
import os
import re
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

SURVEY = ["--cohort=startup", "--survey=240", "--seed=7", "--max-crowd=24", "--quiet"]
SHARDS = 2
KILLS_PER_ROUND = 3
START_RE = re.compile(rb"supervisor: shard (\d+) pid (\d+) started")
CRASH_SITE = "5"

ROUND_TIMEOUT = 120  # seconds per supervised run, far above the ~10s typical


def fail(msg):
    print("check_chaos_survey: FAIL: %s" % msg, file=sys.stderr)
    return 1


def slurp(path):
    with open(path, "rb") as f:
        return f.read()


def journal_lines(path):
    try:
        return slurp(path).count(b"\n")
    except OSError:
        return 0


def proc_state(pid):
    """The kernel's one-letter state of |pid| (R, S, T, Z, ...), or None once
    the process has been reaped."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


def exited(state):
    return state is None or state in ("Z", "X")


def strike(pid, sig):
    """Sends |sig| to a live worker and waits until it has taken effect
    (stopped, or dead). Returns False when the worker had already exited —
    a clean exit racing the strike — so no fault was injected."""
    if exited(proc_state(pid)):
        return False
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        state = proc_state(pid)
        if sig == signal.SIGKILL and exited(state):
            return True
        if sig == signal.SIGSTOP:
            if state in ("T", "t"):
                return True
            if exited(state):
                return False
        time.sleep(0.002)
    return False


class PidWatcher(threading.Thread):
    """Tails the supervisor's stderr, tracking each shard's current pid."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.lock = threading.Lock()
        self.pids = {}
        self.lines = []

    def run(self):
        for line in self.stream:
            with self.lock:
                self.lines.append(line)
                match = START_RE.search(line)
                if match:
                    self.pids[int(match.group(1))] = int(match.group(2))

    def pid_of(self, shard):
        with self.lock:
            return self.pids.get(shard)

    def stderr(self):
        with self.lock:
            return b"".join(self.lines)


def reference_run(profile_bin, path):
    proc = subprocess.run(
        [
            profile_bin,
            *SURVEY,
            "--journal=" + path("ref.jsonl"),
            "--json=" + path("ref.json"),
            "--trace=" + path("ref.trace"),
            "--metrics=" + path("ref.csv"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        print(
            "check_chaos_survey: SETUP FAIL: reference run exited %d" % proc.returncode,
            file=sys.stderr,
        )
        return 2
    return 0


def supervised_cmd(path, prefix, extra=()):
    return [
        *extra,
        *SURVEY,
        "--supervise",
        "--shards=%d" % SHARDS,
        "--hang-timeout=1.5",
        "--journal=" + path(prefix + ".jsonl"),
        "--json=" + path(prefix + ".json"),
        "--trace=" + path(prefix + ".trace"),
        "--metrics=" + path(prefix + ".csv"),
    ]


def chaos_round(profile_bin, path, round_idx, seed):
    """One supervised run with seeded SIGKILL/SIGSTOP injection."""
    rng = random.Random(seed * 1000 + round_idx)
    prefix = "r%d" % round_idx
    proc = subprocess.Popen(
        [profile_bin] + supervised_cmd(path, prefix),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    watcher = PidWatcher(proc.stderr)
    watcher.start()

    shard_journal = lambda j: path("%s.jsonl.shard%d" % (prefix, j))
    # A shard may be struck again only after its journal grew past the last
    # strike: the restart provably resumed, and the no-progress blame streak
    # (quarantine_after=3 default) can never reach a healthy site.
    last_kill_lines = {j: 2 for j in range(SHARDS)}  # past header+cohort
    kills = []
    deadline = time.monotonic() + ROUND_TIMEOUT
    while proc.poll() is None and time.monotonic() < deadline:
        if len(kills) < KILLS_PER_ROUND:
            eligible = [
                j
                for j in range(SHARDS)
                if watcher.pid_of(j) is not None
                and journal_lines(shard_journal(j)) > last_kill_lines[j]
            ]
            if eligible:
                victim = rng.choice(eligible)
                sig = rng.choice([signal.SIGKILL, signal.SIGSTOP])
                pid = watcher.pid_of(victim)
                if strike(pid, sig):
                    # Counted once the signal has landed: the struck worker
                    # can append nothing more, so later growth is a restart's.
                    last_kill_lines[victim] = journal_lines(shard_journal(victim))
                    kills.append((victim, pid, sig))
                # else: the pid had already exited (a clean finish, or the
                # previous strike's victim before its restart); try again
        time.sleep(0.02)

    if proc.poll() is None:
        proc.kill()
        proc.wait()
        return fail("round %d: supervised run still alive after %ds" % (round_idx, ROUND_TIMEOUT))
    proc.stdout.read()
    watcher.join(timeout=10)
    stderr = watcher.stderr()
    if proc.returncode != 0:
        print(stderr.decode(errors="replace"), file=sys.stderr)
        return fail("round %d: supervised run exited %d" % (round_idx, proc.returncode))
    if not kills:
        return fail("round %d: no fault was injected — survey too fast to be a chaos round" % round_idx)
    if any(sig == signal.SIGSTOP for _, _, sig in kills) and b"hung" not in stderr:
        return fail("round %d: a worker was SIGSTOPped but no hang kill was logged" % round_idx)
    for ref, out in (("ref.json", ".json"), ("ref.trace", ".trace"), ("ref.csv", ".csv")):
        if slurp(path(ref)) != slurp(path(prefix + out)):
            return fail(
                "round %d: %s%s differs from the fault-free reference %s"
                % (round_idx, prefix, out, ref)
            )
    print(
        "check_chaos_survey: OK: round %d — %d fault(s) (%s), merged output byte-identical"
        % (
            round_idx,
            len(kills),
            ", ".join(
                "shard %d %s" % (j, "SIGKILL" if s == signal.SIGKILL else "SIGSTOP")
                for j, _, s in kills
            ),
        )
    )
    return 0


def quarantine_round(profile_bin, path):
    """A site that crashes its worker on every attempt must be quarantined."""
    env = dict(os.environ, MFC_CRASH_SITE=CRASH_SITE)
    proc = subprocess.run(
        [profile_bin] + supervised_cmd(path, "q", extra=["--quarantine-after=2"]),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        timeout=ROUND_TIMEOUT,
    )
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        return fail("quarantine round: supervised run exited %d" % proc.returncode)
    if b"quarantined site %s" % CRASH_SITE.encode() not in proc.stderr:
        return fail("quarantine round: supervisor never quarantined site %s" % CRASH_SITE)
    report = json.loads(slurp(path("q.json")))
    quarantined = report.get("quarantined_sites")
    if not quarantined or [q["index"] for q in quarantined] != [int(CRASH_SITE)]:
        return fail(
            "quarantine round: report quarantined_sites is %r, want index %s"
            % (quarantined, CRASH_SITE)
        )
    if quarantined[0]["crashes"] < 2 or "signal" not in quarantined[0]["signature"]:
        return fail("quarantine round: implausible record %r" % quarantined[0])
    print(
        "check_chaos_survey: OK: poisoned site %s quarantined after %d crash(es) (%s), "
        "survey completed" % (CRASH_SITE, quarantined[0]["crashes"], quarantined[0]["signature"])
    )
    return 0


def run_checks(profile_bin, workdir, rounds, seed):
    def path(name):
        return os.path.join(workdir, name)

    rc = reference_run(profile_bin, path)
    if rc != 0:
        return rc
    for round_idx in range(rounds):
        rc = chaos_round(profile_bin, path, round_idx, seed)
        if rc != 0:
            return rc
    return quarantine_round(profile_bin, path)


def main(argv):
    profile_bin = None
    workdir = None
    rounds = 3
    seed = 1
    i = 1
    while i < len(argv):
        if argv[i] == "--profile-bin" and i + 1 < len(argv):
            profile_bin = argv[i + 1]
            i += 2
        elif argv[i] == "--workdir" and i + 1 < len(argv):
            workdir = argv[i + 1]
            i += 2
        elif argv[i] == "--rounds" and i + 1 < len(argv):
            rounds = int(argv[i + 1])
            i += 2
        elif argv[i] == "--seed" and i + 1 < len(argv):
            seed = int(argv[i + 1])
            i += 2
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if not profile_bin:
        print(__doc__, file=sys.stderr)
        return 2
    if workdir:
        os.makedirs(workdir, exist_ok=True)
        return run_checks(profile_bin, workdir, rounds, seed)
    with tempfile.TemporaryDirectory() as tmp:
        return run_checks(profile_bin, tmp, rounds, seed)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
