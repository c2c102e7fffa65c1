// Multi-process survey supervisor (DESIGN.md §14): drives N shard workers to
// completion without operator intervention.
//
// The supervisor forks/execs one worker per shard and watches two signals per
// worker: its process exit status, and a liveness heartbeat formed by growth
// of the files the worker already writes (its journal and, when attached, its
// --stats-stream feed — the survey sampler is a wall-clock thread, so the
// feed grows even while a single long site experiment runs). From those it
// runs a per-shard state machine:
//
//   running → (crash)  backoff → restarting(--resume) → running
//           → (crash, no journal growth) backoff → restarting(--jobs=1)
//           → (hang)   SIGKILL → backoff → restarting → running
//           → (K same-suspect --jobs=1 crashes) quarantining → restarting
//           → (exit 0) done                 — all shards done → caller merges
//
// Crash restarts reuse RetryPolicy's bounded exponential backoff with a
// deterministic ±50% jitter derived from (seed, shard, attempt); the
// consecutive-failure counter resets whenever a restart makes journal
// progress, so only a shard that is genuinely stuck exhausts max_attempts.
// A site that crashes its worker K times in a row with no intervening
// progress is poisoned: the supervisor appends a quarantine record to the
// dead worker's journal (AppendQuarantineRecord) and the restarted worker
// skips the site (src/core/survey.cc), surfacing it in the merged report
// instead of wedging the run forever. Blame is exact: a worker running
// several sites at once cannot say which one crashed it, so after a crash
// without journal progress the shard restarts sequential (--jobs=1) until
// its journal grows, and only crashes of sequential workers count toward K.
//
// Workers that exit with a usage or journal/merge config error (rc 2 / 3 —
// see the README exit-code table) are never restarted: the same argv would
// fail the same way, so the supervisor drains the fleet and reports a
// permanent error. SIGINT/SIGTERM to the supervisor drains all workers
// gracefully (they journal in-flight sites and exit 130) so one resume hint
// covers the whole supervised run.
#ifndef MFC_SRC_CORE_SUPERVISOR_H_
#define MFC_SRC_CORE_SUPERVISOR_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/journal/journal.h"

namespace mfc {

class StatsStream;

// How one worker exit should be treated by the restart policy.
enum class WorkerExitClass {
  kSuccess,      // exit 0: the shard is complete
  kRetryable,    // killed by a signal, or an unexpected exit code
  kPermanent,    // exit 2 (usage), 3 (journal/merge config), 127 (exec
                 // failure): restarting would loop on the same error
  kInterrupted,  // exit 130: the worker drained after a shutdown signal
};

// Classifies a raw waitpid() status.
WorkerExitClass ClassifyWorkerExit(int wait_status);

// Human-readable exit description — "exit 3", "signal 9 (Killed)" — used in
// logs and as the crash signature of quarantine records.
std::string DescribeWorkerExit(int wait_status);

// RetryPolicy's bounded exponential backoff for the |attempt|-th consecutive
// failure (1-based), scaled by a jitter factor in [0.5, 1.5) derived
// deterministically from (seed, shard, attempt) — crashing shards spread
// their restarts instead of thundering back in lockstep, and tests can pin
// the exact schedule. Returns seconds.
double SupervisorBackoffSeconds(const RetryPolicy& policy, size_t attempt, uint64_t seed,
                                size_t shard);

// The prime suspect for a worker crash: the lowest-indexed site of the
// journal's earliest incomplete cohort that is neither journaled nor
// quarantined — exactly the site a --jobs=1 worker was executing when it
// died. (With more jobs it is only the earliest of the sites possibly in
// flight, which is why the supervisor blames sequential crashes only.)
// nullopt when the journal holds no cohort record yet (the worker died in
// startup — nothing to blame) or every site is accounted for.
std::optional<std::pair<size_t, size_t>> NextPendingSite(const JournalFileData& data);

// Consecutive-crash bookkeeping behind quarantine decisions. A crash blames
// its shard's current suspect; the blame count grows only while the suspect
// stays identical AND the journal made no progress between crashes (any new
// durable record means the previous execution got further, so the suspect is
// not reliably poisoned). ObserveCrash returns true when the suspect has now
// been blamed |quarantine_after| consecutive times — the caller should then
// quarantine it and Reset the shard.
class QuarantineTracker {
 public:
  explicit QuarantineTracker(size_t shards, size_t quarantine_after);

  // |journaled| is any monotone progress measure of the shard's journal
  // (e.g. site records + quarantine records). Returns true when |suspect|
  // should be quarantined now.
  bool ObserveCrash(size_t shard, std::optional<std::pair<size_t, size_t>> suspect,
                    size_t journaled);
  // Clears the shard's blame streak (after success, a hang kill — not a
  // site's fault — or an applied quarantine).
  void Reset(size_t shard);

  size_t Blames(size_t shard) const { return states_[shard].count; }

 private:
  struct State {
    bool valid = false;
    std::pair<size_t, size_t> suspect{0, 0};
    size_t journaled = 0;
    size_t count = 0;
  };
  size_t quarantine_after_;
  std::vector<State> states_;
};

struct SupervisorOptions {
  size_t shards = 1;
  // Builds the worker argv for one shard (argv[0] must be an executable
  // path); invoked on every launch, including restarts. Workers must resume
  // from their journals, so the same argv is correct every time. When
  // |sequential| is set the worker must run one site at a time (--jobs=1),
  // so that a crash blames exactly the site it was executing.
  std::function<std::vector<std::string>(size_t shard, bool sequential)> command;
  // One journal path per shard (required): progress + quarantine target.
  std::vector<std::string> journal_paths;
  // Optional worker --stats-stream paths: their growth is the heartbeat that
  // distinguishes "slow site" from "wedged worker".
  std::vector<std::string> heartbeat_paths;
  // Optional per-shard files capturing worker stdout+stderr (append mode).
  std::vector<std::string> log_paths;
  // Backoff schedule between restarts; max_attempts bounds *consecutive*
  // no-progress failures per shard before the run is declared stuck.
  RetryPolicy retry{.max_attempts = 8};
  // A live worker whose journal and heartbeat files both stop growing for
  // this long is considered hung and SIGKILLed (then restarted).
  double hang_timeout = 30.0;
  // Consecutive same-suspect crashes of sequential workers before that site
  // is quarantined.
  size_t quarantine_after = 3;
  // Derives backoff jitter; also reported in logs for reproducibility.
  uint64_t seed = 1;
  double poll_interval = 0.05;  // seconds between monitor sweeps
  // Optional supervisor health feed: one snapshot per |stats_interval| with
  // supervisor.* counter deltas (source "supervisor").
  StatsStream* stats = nullptr;
  double stats_interval = 1.0;
  // Event lines ("shard 0 pid 123 started (attempt 1)" …); null silences.
  FILE* log = stderr;
};

struct SupervisorShardStatus {
  size_t launches = 0;
  size_t crashes = 0;
  size_t hang_kills = 0;
  bool completed = false;
};

struct SupervisorResult {
  bool ok = false;
  // True when a shutdown signal drained the run (the caller should print a
  // resume hint and exit 130).
  bool interrupted = false;
  std::string error;  // set when !ok && !interrupted
  size_t restarts = 0;   // relaunches beyond each shard's first start
  size_t hang_kills = 0;
  std::vector<JournalQuarantineRecord> quarantines;  // appended this run
  std::vector<SupervisorShardStatus> shards;
};

// Owns the whole supervised run. Installs the shared shutdown handlers
// (SIGINT/SIGTERM) for the duration of Run().
class SurveySupervisor {
 public:
  explicit SurveySupervisor(SupervisorOptions options);

  // Blocks until every shard completed, a permanent error surfaced, or a
  // shutdown signal drained the fleet.
  SupervisorResult Run();

 private:
  SupervisorOptions options_;
};

}  // namespace mfc

#endif  // MFC_SRC_CORE_SUPERVISOR_H_
