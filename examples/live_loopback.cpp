// Live-runtime demo: the MFC service on real sockets.
//
// Boots a real HTTP server (serving a generated site), a fleet of client
// agents, and the coordinator — all over loopback on one reactor — then runs
// the *same* Coordinator state machine used by the simulation against a
// target whose back end degrades beyond a concurrency knee.
//
// The control plane rides the session layer (DESIGN.md §13): every command
// and reply is a reliable session send, so injected faults (--drop, --dup,
// --delay, --connect-fail — the live analog of the simulation's
// control_loss_rate) are absorbed by session retransmits and the run reaches
// the same verdict as a clean one. --transport=memory swaps the UDP sockets
// for an in-process MemoryHub: no file descriptors per agent, which is what
// lets the fleet soak run hundreds of agents on one box.
//
// The run's health plane (DESIGN.md §11) is opt-in: --stats-stream streams
// per-agent health rows as JSONL, --metrics exports the live.* /
// live.session.* counters as CSV, and --unhealthy-after hands the
// coordinator's eviction logic a transport-level verdict.
//
// The last line of a successful run is machine-readable
// (tools/check_fleet_soak.py compares it across clean/faulted runs):
//
//   RESULT transport=memory fleet=200 registered=200 stopped=1
//          reason=ConstraintFound crowd=6 max_tested=8
//
//   $ ./live_loopback [fleet_size] [knee] [--transport=udp|memory]
//                     [--crowd-step=N] [--drop=P] [--dup=P] [--delay=P]
//                     [--connect-fail=P] [--fault-seed=N]
//                     [--stats-stream=FILE|-] [--stats-interval=S]
//                     [--metrics=FILE] [--unhealthy-after=N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "src/content/site_generator.h"
#include "src/core/arg_parse.h"
#include "src/core/coordinator.h"
#include "src/core/export.h"
#include "src/core/inference.h"
#include "src/rt/client_agent.h"
#include "src/rt/fault_injector.h"
#include "src/rt/live_harness.h"
#include "src/rt/live_http_server.h"
#include "src/rt/transport.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/stats_stream.h"

namespace {

// True when |arg| is "--name=..." ; the text after '=' lands in |value|.
bool MatchFlag(const char* arg, const char* name, std::string* value) {
  size_t len = strlen(name);
  if (strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *value = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [fleet_size] [knee] [--transport=udp|memory] [--crowd-step=N]\n"
          "          [--drop=P] [--dup=P] [--delay=P] [--connect-fail=P] [--fault-seed=N]\n"
          "          [--stats-stream=FILE|-] [--stats-interval=S] [--metrics=FILE]\n"
          "          [--unhealthy-after=N]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  size_t fleet_size = 16;
  size_t knee = 8;
  size_t crowd_step = 2;
  mfc::FaultConfig faults;
  uint64_t fault_seed = 11;
  std::string transport_kind = "udp";
  std::string stats_path;
  std::string metrics_path;
  double stats_interval = 0.5;
  size_t unhealthy_after = 0;
  size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    bool ok = true;
    if (MatchFlag(arg, "--drop", &value)) {
      ok = mfc::ParseDoubleFlag("--drop", value, &faults.drop_rate);
    } else if (MatchFlag(arg, "--dup", &value)) {
      ok = mfc::ParseDoubleFlag("--dup", value, &faults.duplicate_rate);
    } else if (MatchFlag(arg, "--delay", &value)) {
      ok = mfc::ParseDoubleFlag("--delay", value, &faults.delay_rate);
    } else if (MatchFlag(arg, "--connect-fail", &value)) {
      ok = mfc::ParseDoubleFlag("--connect-fail", value, &faults.connect_failure_rate);
    } else if (MatchFlag(arg, "--fault-seed", &value)) {
      ok = mfc::ParseU64Flag("--fault-seed", value, &fault_seed);
    } else if (MatchFlag(arg, "--stats-interval", &value)) {
      ok = mfc::ParseDoubleFlag("--stats-interval", value, &stats_interval) &&
           stats_interval > 0;
      if (!ok) {
        fprintf(stderr, "--stats-interval must be a positive number of seconds\n");
      }
    } else if (MatchFlag(arg, "--unhealthy-after", &value)) {
      ok = mfc::ParseSizeFlag("--unhealthy-after", value, &unhealthy_after);
    } else if (MatchFlag(arg, "--crowd-step", &value)) {
      ok = mfc::ParseSizeFlag("--crowd-step", value, &crowd_step) && crowd_step > 0;
      if (!ok) {
        fprintf(stderr, "--crowd-step must be a positive integer\n");
      }
    } else if (MatchFlag(arg, "--transport", &value)) {
      transport_kind = value;
      if (transport_kind != "udp" && transport_kind != "memory") {
        fprintf(stderr, "invalid value for --transport: '%s' (expected udp or memory)\n",
                value.c_str());
        return Usage(argv[0]);
      }
    } else if (MatchFlag(arg, "--stats-stream", &value)) {
      stats_path = value;
    } else if (MatchFlag(arg, "--metrics", &value)) {
      metrics_path = value;
    } else if (strncmp(arg, "--", 2) == 0) {
      fprintf(stderr, "unknown flag: %s\n", arg);
      return Usage(argv[0]);
    } else if (positional == 0) {
      ok = mfc::ParseSizeFlag("fleet_size", arg, &fleet_size);
      ++positional;
    } else if (positional == 1) {
      ok = mfc::ParseSizeFlag("knee", arg, &knee);
      ++positional;
    } else {
      fprintf(stderr, "unexpected argument: %s\n", arg);
      return Usage(argv[0]);
    }
    if (!ok) {
      return Usage(argv[0]);
    }
  }
  faults.seed = fault_seed;

  mfc::Reactor reactor;

  // Target: a real HTTP server whose service time jumps once more than
  // |knee| requests are in flight (an overloaded back end).
  mfc::Rng rng(7);
  mfc::SiteSpec spec;
  spec.page_count = 4;
  spec.binary_count = 1;
  spec.binary_size_min = 150 * 1024;
  spec.binary_size_max = 150 * 1024;
  mfc::ContentStore content = mfc::GenerateSite(rng, spec);
  mfc::LiveHttpServer server(reactor, &content);
  server.SetServiceDelay(
      [knee](size_t concurrent) { return concurrent > knee ? 0.150 : 0.002; });
  printf("target server listening on 127.0.0.1:%u (knee at %zu concurrent requests)\n",
         server.Port(), knee);

  // Coordinator + fleet. Each agent gets its own fault stream so a fixed
  // --fault-seed reproduces the same fault schedule across the whole fleet.
  mfc::RetryPolicy retry;
  if (faults.Enabled()) {
    retry.max_attempts = 8;
    retry.initial_backoff = mfc::Millis(20);
  }

  // Control-plane backend: real UDP sockets, or a MemoryHub carrying the
  // same session frames through reactor timers (no fds — the fleet soak's
  // hundreds of agents would otherwise need one socket each).
  mfc::ReactorTimerSource hub_clock(reactor);
  mfc::MemoryHub hub(hub_clock);
  auto make_endpoint = [&]() -> std::unique_ptr<mfc::Transport> {
    if (transport_kind == "memory") {
      return hub.CreateEndpoint();
    }
    return std::make_unique<mfc::UdpTransport>(reactor, 0);
  };
  auto harness = std::make_unique<mfc::LiveHarness>(reactor, server.Port(), make_endpoint());
  harness->set_request_timeout(2.0);
  harness->set_retry_policy(retry);
  mfc::MetricsRegistry metrics;
  harness->SetMetrics(&metrics);
  if (unhealthy_after > 0) {
    harness->set_unhealthy_after_misses(unhealthy_after);
  }

  // Health plane: a self-rearming reactor timer samples the per-agent health
  // table (plus live.* counter deltas) while the experiment runs. Read-only
  // against the harness, so attaching it cannot change the verdict.
  std::unique_ptr<mfc::StatsStream> stats;
  if (!stats_path.empty()) {
    std::string error;
    stats = mfc::StatsStream::Open(stats_path, &error);
    if (stats == nullptr) {
      fprintf(stderr, "--stats-stream: %s\n", error.c_str());
      return 2;
    }
  }
  mfc::MetricsDeltaTracker deltas;
  auto emit_health = [&] {
    mfc::StatsSnapshot snapshot;
    snapshot.t = reactor.Now();
    snapshot.clock = "wall";
    snapshot.source = "live";
    snapshot.agents = harness->SnapshotAgents();
    deltas.Collect(metrics, &snapshot.counter_deltas);
    stats->Emit(std::move(snapshot));
  };
  bool sampling = stats != nullptr;
  std::function<void()> arm_sampler = [&] {
    reactor.ScheduleAfter(stats_interval, [&] {
      if (!sampling) {
        return;  // run finished; let the leftover timer die quietly
      }
      emit_health();
      arm_sampler();
    });
  };
  if (stats != nullptr) {
    arm_sampler();
  }
  std::vector<std::unique_ptr<mfc::FaultInjector>> injectors;
  std::vector<std::unique_ptr<mfc::ClientAgent>> agents;
  for (size_t i = 0; i < fleet_size; ++i) {
    agents.push_back(std::make_unique<mfc::ClientAgent>(reactor, i, make_endpoint(),
                                                        harness->ControlAddress()));
    agents.back()->set_request_timeout(2.0);
    agents.back()->set_retry_policy(retry);
    if (faults.Enabled()) {
      mfc::FaultConfig per_agent = faults;
      per_agent.seed = faults.seed + i;
      injectors.push_back(std::make_unique<mfc::FaultInjector>(per_agent));
      agents.back()->set_fault_injector(injectors.back().get());
    }
    agents.back()->Register();
  }
  if (faults.Enabled()) {
    printf("fault injection: drop=%.2f dup=%.2f delay=%.2f connect-fail=%.2f seed=%llu\n",
           faults.drop_rate, faults.duplicate_rate, faults.delay_rate,
           faults.connect_failure_rate, static_cast<unsigned long long>(faults.seed));
  }
  size_t registered = harness->WaitForRegistrations(fleet_size, faults.Enabled() ? 10.0 : 2.0);
  printf("coordinator (%s transport) — %zu/%zu agents registered\n\n",
         transport_kind.c_str(), registered, fleet_size);

  // Loopback-friendly experiment parameters (no 15 s leads or 10 s gaps).
  mfc::ExperimentConfig config;
  config.threshold = mfc::Millis(100);
  config.crowd_step = crowd_step;
  config.max_crowd = fleet_size;
  config.min_clients = fleet_size;
  config.min_crowd_for_inference = 4;
  config.request_timeout = mfc::Seconds(2);
  config.schedule_lead = mfc::Seconds(0.1);
  config.epoch_gap = mfc::Seconds(0.05);
  if (faults.Enabled()) {
    // Commands are re-sent across the lead and held client-side until the
    // burst instant, so a longer lead buys retry headroom, not idle time.
    config.schedule_lead = mfc::Seconds(0.25);
    config.min_clients = std::max<size_t>(1, fleet_size - fleet_size / 4);
    config.epoch_quorum = 0.5;       // re-run epochs that lose half their samples
    config.evict_after_misses = 3;   // replace clients that go silent
  }

  mfc::StageObjects objects;
  objects.base_page = *mfc::ParseUrl("http://127.0.0.1/");
  mfc::Coordinator coordinator(*harness, config, 5);
  mfc::ExperimentResult result = coordinator.Run(objects, {mfc::StageKind::kBase});
  if (stats != nullptr) {
    sampling = false;
    emit_health();  // final row: every feed ends with the post-run table
    stats->Flush();
  }

  for (const mfc::EpochResult& epoch : result.Stage(mfc::StageKind::kBase)->epochs) {
    printf("  epoch crowd=%-3zu samples=%-3zu median normalized=%.1f ms%s%s\n",
           epoch.crowd_size, epoch.samples_received, mfc::ToMillis(epoch.metric),
           epoch.check_phase ? "  [check]" : "",
           epoch.exceeded_threshold ? "  EXCEEDED" : "");
  }
  printf("\n%s\n", mfc::AnalyzeExperiment(result, config).ToText().c_str());
  printf("server handled %llu real HTTP requests over loopback\n",
         static_cast<unsigned long long>(server.RequestsServed()));
  if (faults.Enabled()) {
    uint64_t dropped = 0, duplicated = 0, delayed = 0, failed_connects = 0;
    for (const auto& injector : injectors) {
      dropped += injector->stats().dropped;
      duplicated += injector->stats().duplicated;
      delayed += injector->stats().delayed;
      failed_connects += injector->stats().failed_connects;
    }
    printf("faults injected: %llu datagrams dropped, %llu duplicated, %llu delayed, "
           "%llu connects failed\n",
           static_cast<unsigned long long>(dropped),
           static_cast<unsigned long long>(duplicated),
           static_cast<unsigned long long>(delayed),
           static_cast<unsigned long long>(failed_connects));
    // Transport-level recovery now lives in the session layer: count the
    // coordinator's retransmits plus the whole fleet's.
    uint64_t agent_retransmits = 0, agent_gave_up = 0;
    for (const auto& agent : agents) {
      agent_retransmits += agent->session_stats().retransmits;
      agent_gave_up += agent->session_stats().gave_up;
    }
    const mfc::SessionStats& ss = harness->session_stats();
    const mfc::ControlPlaneStats& cp = harness->stats();
    printf("session layer recovered: %llu coordinator + %llu agent retransmits, "
           "%llu duplicate frames suppressed, %llu transfers gave up\n",
           static_cast<unsigned long long>(ss.retransmits),
           static_cast<unsigned long long>(agent_retransmits),
           static_cast<unsigned long long>(ss.duplicates),
           static_cast<unsigned long long>(ss.gave_up + agent_gave_up));
    printf("control plane recovered: %llu rtt retries; %llu duplicate samples discarded\n",
           static_cast<unsigned long long>(cp.rtt_retries),
           static_cast<unsigned long long>(cp.duplicate_samples));
  }
  if (stats != nullptr) {
    printf("health plane: %llu snapshots -> %s\n",
           static_cast<unsigned long long>(stats->Emitted()), stats->Path().c_str());
  }
  if (!metrics_path.empty()) {
    FILE* out = fopen(metrics_path.c_str(), "w");
    if (out == nullptr) {
      fprintf(stderr, "--metrics: cannot write %s\n", metrics_path.c_str());
      return 2;
    }
    std::string csv = mfc::ExportMetricsCsv(metrics);
    fwrite(csv.data(), 1, csv.size(), out);
    fclose(out);
    printf("live.* metrics -> %s\n", metrics_path.c_str());
  }

  // Machine-readable verdict line, compared across clean/faulted runs by
  // tools/check_fleet_soak.py. Keep key=value, one line, last.
  const mfc::StageResult* base = result.Stage(mfc::StageKind::kBase);
  std::string reason =
      base != nullptr ? std::string(mfc::StageEndReasonName(base->end_reason)) : "none";
  printf("RESULT transport=%s fleet=%zu registered=%zu stopped=%d reason=%s "
         "crowd=%zu max_tested=%zu\n",
         transport_kind.c_str(), fleet_size, registered,
         base != nullptr && base->stopped ? 1 : 0, reason.c_str(),
         base != nullptr ? base->stopping_crowd_size : static_cast<size_t>(0),
         base != nullptr ? base->max_crowd_tested : static_cast<size_t>(0));
  return 0;
}
