#include "src/core/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <string_view>
#include <thread>

#include "src/core/journal/shutdown.h"
#include "src/core/population.h"
#include "src/core/survey_session.h"
#include "src/telemetry/stats_stream.h"

namespace mfc {

WorkerExitClass ClassifyWorkerExit(int wait_status) {
  if (WIFSIGNALED(wait_status)) {
    return WorkerExitClass::kRetryable;
  }
  if (!WIFEXITED(wait_status)) {
    return WorkerExitClass::kRetryable;
  }
  switch (WEXITSTATUS(wait_status)) {
    case kExitOk:
      return WorkerExitClass::kSuccess;
    case kExitUsage:
    case kExitJournal:
    case 127:  // exec failure
      return WorkerExitClass::kPermanent;
    case kExitInterrupted:
      return WorkerExitClass::kInterrupted;
    default:
      return WorkerExitClass::kRetryable;
  }
}

std::string DescribeWorkerExit(int wait_status) {
  if (WIFSIGNALED(wait_status)) {
    int sig = WTERMSIG(wait_status);
    const char* name = strsignal(sig);
    return "signal " + std::to_string(sig) + " (" + (name != nullptr ? name : "?") + ")";
  }
  if (WIFEXITED(wait_status)) {
    return "exit " + std::to_string(WEXITSTATUS(wait_status));
  }
  return "status " + std::to_string(wait_status);
}

double SupervisorBackoffSeconds(const RetryPolicy& policy, size_t attempt, uint64_t seed,
                                size_t shard) {
  double base = policy.BackoffFor(attempt == 0 ? 1 : attempt);
  // Two finalizer rounds decorrelate the (seed, shard, attempt) lattice; the
  // top 53 bits become a uniform double in [0, 1).
  uint64_t h = SplitMix64(SplitMix64(seed ^ (0x9E3779B97F4A7C15ULL * (shard + 1))) +
                          0xBF58476D1CE4E5B9ULL * attempt);
  double unit = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return base * (0.5 + unit);
}

std::optional<std::pair<size_t, size_t>> NextPendingSite(const JournalFileData& data) {
  for (const JournalCohortRecord& cohort : data.cohorts) {
    for (size_t i = cohort.shard_index; i < cohort.servers; i += cohort.shards) {
      auto key = std::make_pair(cohort.ordinal, i);
      if (data.sites.count(key) == 0 && data.quarantines.count(key) == 0) {
        return key;
      }
    }
  }
  return std::nullopt;
}

QuarantineTracker::QuarantineTracker(size_t shards, size_t quarantine_after)
    : quarantine_after_(quarantine_after == 0 ? 1 : quarantine_after), states_(shards) {}

bool QuarantineTracker::ObserveCrash(size_t shard,
                                     std::optional<std::pair<size_t, size_t>> suspect,
                                     size_t journaled) {
  State& state = states_[shard];
  if (!suspect.has_value()) {
    // Died before any cohort record (startup crash) or with nothing left to
    // run: no site to blame.
    state = State{};
    return false;
  }
  if (state.valid && state.suspect == *suspect && state.journaled == journaled) {
    ++state.count;
  } else {
    state.valid = true;
    state.suspect = *suspect;
    state.journaled = journaled;
    state.count = 1;
  }
  return state.count >= quarantine_after_;
}

void QuarantineTracker::Reset(size_t shard) { states_[shard] = State{}; }

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t FileSize(const std::string& path) {
  if (path.empty()) {
    return 0;
  }
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// Per-shard lifecycle state the monitor sweep advances.
struct ShardState {
  enum class Phase { kBackoff, kRunning, kDone, kFailed };
  Phase phase = Phase::kBackoff;
  double next_launch = 0.0;  // monotonic deadline while kBackoff
  pid_t pid = -1;
  size_t failures = 0;  // consecutive exits without journal progress
  double last_activity = 0.0;
  uint64_t journal_size = 0;
  uint64_t heartbeat_size = 0;
  uint64_t journal_at_launch = 0;  // journal bytes when the attempt started
  bool kill_sent = false;          // SIGKILL issued, waiting for the reap
  // The next launch (and, while running, the current one) runs one site at
  // a time: set by a crash without journal progress, cleared by a crash
  // with progress or by a quarantine.
  bool sequential = false;
};

}  // namespace

SurveySupervisor::SurveySupervisor(SupervisorOptions options) : options_(std::move(options)) {}

SupervisorResult SurveySupervisor::Run() {
  const SupervisorOptions& opt = options_;
  SupervisorResult result;
  result.shards.resize(opt.shards);
  if (opt.shards == 0 || !opt.command || opt.journal_paths.size() != opt.shards) {
    result.error = "supervisor misconfigured: shards/command/journal_paths";
    return result;
  }

  FILE* log = opt.log;
  auto logf = [log](const char* fmt, auto... args) {
    if (log != nullptr) {
      fprintf(log, fmt, args...);
      fflush(log);
    }
  };
  auto heartbeat_path = [&](size_t shard) -> std::string {
    return shard < opt.heartbeat_paths.size() ? opt.heartbeat_paths[shard] : std::string();
  };

  ClearShutdownRequest();
  InstallShutdownHandlers();

  std::vector<ShardState> shards(opt.shards);
  QuarantineTracker tracker(opt.shards, opt.quarantine_after);
  const double start = MonotonicSeconds();
  for (ShardState& shard : shards) {
    shard.next_launch = start;  // first launches are immediate
  }

  // supervisor.* counters: each stats snapshot carries what |result| gained
  // since the last one.
  std::map<std::string_view, size_t> emitted;
  double next_stats = start;
  auto emit_stats = [&](double now) {
    if (opt.stats == nullptr) {
      return;
    }
    size_t running = 0, launches = 0, crashes = 0, completed = 0;
    for (size_t i = 0; i < shards.size(); ++i) {
      running += shards[i].phase == ShardState::Phase::kRunning ? 1 : 0;
      launches += result.shards[i].launches;
      crashes += result.shards[i].crashes;
      completed += result.shards[i].completed ? 1 : 0;
    }
    const std::pair<const char*, size_t> totals[] = {
        {"supervisor.launches", launches},
        {"supervisor.restarts", result.restarts},
        {"supervisor.crashes", crashes},
        {"supervisor.hang_kills", result.hang_kills},
        {"supervisor.quarantined", result.quarantines.size()},
        {"supervisor.shards_completed", completed},
    };
    StatsSnapshot snapshot;
    snapshot.t = now - start;
    snapshot.clock = "wall";
    snapshot.source = "supervisor";
    snapshot.counter_deltas = {{"supervisor.workers_running", static_cast<double>(running)}};
    for (const auto& [name, total] : totals) {
      snapshot.counter_deltas.emplace_back(name, static_cast<double>(total - emitted[name]));
      emitted[name] = total;
    }
    opt.stats->Emit(std::move(snapshot));
  };

  auto launch = [&](size_t index) {
    ShardState& shard = shards[index];
    std::vector<std::string> args = opt.command(index, shard.sequential);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);

    pid_t pid = fork();
    if (pid == 0) {
      if (index < opt.log_paths.size() && !opt.log_paths[index].empty()) {
        int fd = open(opt.log_paths[index].c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
          dup2(fd, STDOUT_FILENO);
          dup2(fd, STDERR_FILENO);
          if (fd > STDERR_FILENO) {
            close(fd);
          }
        }
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    if (pid < 0) {
      // fork pressure: stay in backoff and retry on a later sweep.
      shard.next_launch = MonotonicSeconds() + 1.0;
      logf("supervisor: shard %zu fork failed (%s); retrying\n", index, strerror(errno));
      return;
    }
    const size_t attempt = ++result.shards[index].launches;
    if (attempt > 1) {
      ++result.restarts;
    }
    shard.phase = ShardState::Phase::kRunning;
    shard.pid = pid;
    shard.kill_sent = false;
    shard.last_activity = MonotonicSeconds();
    shard.journal_size = FileSize(opt.journal_paths[index]);
    shard.journal_at_launch = shard.journal_size;
    shard.heartbeat_size = FileSize(heartbeat_path(index));
    logf("supervisor: shard %zu pid %d started (attempt %zu%s)\n", index,
         static_cast<int>(pid), attempt, shard.sequential ? ", sequential" : "");
  };

  auto schedule_restart = [&](size_t index) {
    ShardState& shard = shards[index];
    double delay = SupervisorBackoffSeconds(opt.retry, shard.failures, opt.seed, index);
    shard.phase = ShardState::Phase::kBackoff;
    shard.pid = -1;
    shard.next_launch = MonotonicSeconds() + delay;
    logf("supervisor: shard %zu restarting in %.2fs (failure streak %zu)\n", index, delay,
         shard.failures);
  };

  bool draining = false;
  std::string permanent_error;

  auto begin_drain = [&](const char* why) {
    if (draining) {
      return;
    }
    draining = true;
    size_t live = 0;
    for (ShardState& shard : shards) {
      if (shard.phase == ShardState::Phase::kRunning && shard.pid > 0) {
        // SIGCONT first: a SIGSTOPped worker must wake to see the SIGTERM.
        kill(shard.pid, SIGCONT);
        kill(shard.pid, SIGTERM);
        ++live;
      } else if (shard.phase == ShardState::Phase::kBackoff) {
        shard.phase = ShardState::Phase::kFailed;  // never relaunch mid-drain
      }
    }
    logf("supervisor: %s; draining %zu worker(s)\n", why, live);
  };

  auto handle_exit = [&](size_t index, int status) {
    ShardState& shard = shards[index];
    shard.pid = -1;
    std::string description = DescribeWorkerExit(status);

    if (shard.kill_sent) {
      // Our own hang kill: not a site's fault, so the quarantine streak
      // resets, but the no-progress failure streak still applies.
      tracker.Reset(index);
      size_t journaled = FileSize(opt.journal_paths[index]);
      shard.failures = journaled > shard.journal_size ? 1 : shard.failures + 1;
      shard.journal_size = journaled;
      if (draining) {
        shard.phase = ShardState::Phase::kFailed;
      } else if (shard.failures >= opt.retry.max_attempts) {
        shard.phase = ShardState::Phase::kFailed;
        permanent_error = "shard " + std::to_string(index) + " hung " +
                          std::to_string(shard.failures) + " time(s) in a row without progress";
      } else {
        schedule_restart(index);
      }
      return;
    }

    switch (ClassifyWorkerExit(status)) {
      case WorkerExitClass::kSuccess:
        shard.phase = ShardState::Phase::kDone;
        result.shards[index].completed = true;
        tracker.Reset(index);
        logf("supervisor: shard %zu completed\n", index);
        return;
      case WorkerExitClass::kInterrupted:
        if (draining) {
          // Drained exactly as asked; stays incomplete for the resume.
          shard.phase = ShardState::Phase::kFailed;
          logf("supervisor: shard %zu drained (%s)\n", index, description.c_str());
          return;
        }
        break;  // an externally signaled worker is just a crash to us
      case WorkerExitClass::kPermanent:
        shard.phase = ShardState::Phase::kFailed;
        permanent_error = "shard " + std::to_string(index) + " failed permanently (" +
                          description + "); not restarting";
        logf("supervisor: shard %zu pid exited: %s — permanent, aborting run\n", index,
             description.c_str());
        return;
      case WorkerExitClass::kRetryable:
        break;
    }

    // Retryable crash. Progress means this attempt grew the journal (read
    // before any quarantine record is appended below).
    const bool progressed = FileSize(opt.journal_paths[index]) > shard.journal_at_launch;
    ++result.shards[index].crashes;
    logf("supervisor: shard %zu crashed: %s\n", index, description.c_str());
    if (draining) {
      shard.phase = ShardState::Phase::kFailed;
      return;
    }

    JournalFileData data;
    std::string error;
    std::optional<std::pair<size_t, size_t>> suspect;
    size_t journaled = 0;
    if (ReadJournalFile(opt.journal_paths[index], &data, &error)) {
      suspect = NextPendingSite(data);
      journaled = data.cohorts.size() + data.sites.size() + data.quarantines.size();
    }
    // (An unreadable/absent journal gives no suspect.)

    // Only a sequential worker's crash pins its suspect: a parallel worker
    // may have died on any site in flight, including one a healthy thread
    // was still running. So a parallel crash blames nobody, and one without
    // journal progress makes the next launch sequential.
    const bool exact = shard.sequential;
    shard.sequential = !progressed;
    if (exact && tracker.ObserveCrash(index, suspect, journaled)) {
      JournalQuarantineRecord record;
      record.cohort_ordinal = suspect->first;
      record.site_index = suspect->second;
      record.crashes = tracker.Blames(index);
      record.signature = description;
      std::string append_error;
      if (AppendQuarantineRecord(opt.journal_paths[index], record, &append_error)) {
        logf("supervisor: shard %zu quarantined site %zu of cohort %zu after %zu "
             "crash(es): %s\n",
             index, record.site_index, record.cohort_ordinal, record.crashes,
             record.signature.c_str());
        result.quarantines.push_back(record);
        tracker.Reset(index);
        shard.failures = 0;  // the quarantine unblocks the shard
        shard.sequential = false;
      } else {
        logf("supervisor: shard %zu quarantine append failed: %s\n", index,
             append_error.c_str());
      }
    }

    shard.failures = progressed ? 1 : shard.failures + 1;
    if (shard.failures >= opt.retry.max_attempts) {
      shard.phase = ShardState::Phase::kFailed;
      permanent_error = "shard " + std::to_string(index) + " crashed " +
                        std::to_string(shard.failures) +
                        " time(s) in a row without progress (last: " + description + ")";
      return;
    }
    schedule_restart(index);
  };

  while (true) {
    double now = MonotonicSeconds();

    if (ShutdownRequested() && !draining) {
      begin_drain("shutdown requested");
      result.interrupted = true;
    }
    if (!permanent_error.empty() && !draining) {
      begin_drain("permanent worker error");
    }

    // Reap every exited worker.
    while (true) {
      int status = 0;
      pid_t pid = waitpid(-1, &status, WNOHANG);
      if (pid <= 0) {
        break;
      }
      for (size_t i = 0; i < shards.size(); ++i) {
        if (shards[i].pid == pid) {
          handle_exit(i, status);
          break;
        }
      }
    }

    size_t running = 0, done = 0, backoff = 0;
    for (const ShardState& shard : shards) {
      running += shard.phase == ShardState::Phase::kRunning ? 1 : 0;
      done += shard.phase == ShardState::Phase::kDone ? 1 : 0;
      backoff += shard.phase == ShardState::Phase::kBackoff ? 1 : 0;
    }
    if (done == shards.size()) {
      break;  // success
    }
    if (running == 0 && (draining || (backoff == 0 && !permanent_error.empty()))) {
      break;  // drained, or permanently failed with nothing left to reap
    }

    // Launch due shards.
    if (!draining) {
      for (size_t i = 0; i < shards.size(); ++i) {
        if (shards[i].phase == ShardState::Phase::kBackoff && now >= shards[i].next_launch) {
          launch(i);
        }
      }
    }

    // Heartbeat sweep: progress on either file proves liveness; silence past
    // the deadline means a wedged (or SIGSTOPped) worker.
    for (size_t i = 0; i < shards.size(); ++i) {
      ShardState& shard = shards[i];
      if (shard.phase != ShardState::Phase::kRunning || shard.kill_sent) {
        continue;
      }
      uint64_t journal_size = FileSize(opt.journal_paths[i]);
      uint64_t heartbeat_size = FileSize(heartbeat_path(i));
      if (journal_size != shard.journal_size || heartbeat_size != shard.heartbeat_size) {
        shard.journal_size = journal_size;
        shard.heartbeat_size = heartbeat_size;
        shard.last_activity = now;
      } else if (opt.hang_timeout > 0 && now - shard.last_activity > opt.hang_timeout) {
        logf("supervisor: shard %zu pid %d hung (no heartbeat for %.1fs); killing\n", i,
             static_cast<int>(shard.pid), now - shard.last_activity);
        ++result.shards[i].hang_kills;
        ++result.hang_kills;
        shard.kill_sent = true;
        kill(shard.pid, SIGKILL);
        kill(shard.pid, SIGCONT);  // a stopped process must resume to die
      }
    }

    if (opt.stats != nullptr && now >= next_stats) {
      emit_stats(now);
      next_stats = now + (opt.stats_interval > 0 ? opt.stats_interval : 1.0);
    }

    std::this_thread::sleep_for(std::chrono::duration<double>(opt.poll_interval));
  }

  emit_stats(MonotonicSeconds());

  result.ok = true;
  for (const ShardState& shard : shards) {
    result.ok = result.ok && shard.phase == ShardState::Phase::kDone;
  }
  if (!result.ok && !result.interrupted) {
    result.error = permanent_error.empty() ? "supervised run did not complete" : permanent_error;
  }
  return result;
}

}  // namespace mfc
