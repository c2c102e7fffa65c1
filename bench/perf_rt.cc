// Perf harness for the session/transport control plane (DESIGN.md §13):
// reliable control-message throughput over the in-process MemoryHub, an
// agents-per-coordinator soak, and retransmit behavior at 5%/20% injected
// loss. All scenarios run under virtual time (EventLoop + SimTimerSource),
// so the work is deterministic — wall time measures the session layer's CPU
// cost, not socket waits. Emits BENCH_rt.json.
//
//   perf_rt [--repeats=N] [--scale=X] [--out=PATH]
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench/perf_util.h"
#include "src/rt/fault_injector.h"
#include "src/rt/session.h"
#include "src/rt/transport.h"
#include "src/rt/wire.h"
#include "src/sim/event_loop.h"

namespace {

mfc::RetryPolicy SoakRetry() {
  mfc::RetryPolicy retry;
  retry.max_attempts = 10;
  retry.initial_backoff = mfc::Millis(25);
  retry.multiplier = 2.0;
  retry.max_backoff = mfc::Millis(200);
  return retry;
}

mfc::SessionConfig ConnConfig(uint64_t conn) {
  mfc::SessionConfig config;
  config.conn = conn;
  config.retry = SoakRetry();
  return config;
}

// Reliable control-message pump: |messages| PINGs sender -> receiver, every
// one acked, with |drop_rate| loss injected on the sender's transport.
// Returns (delivered, retransmits).
std::pair<uint64_t, uint64_t> RunPump(size_t messages, double drop_rate, uint64_t seed) {
  mfc::EventLoop loop;
  mfc::SimTimerSource clock(loop);
  mfc::MemoryHub hub(clock);
  mfc::FaultConfig faults;
  faults.drop_rate = drop_rate;
  faults.seed = seed;
  mfc::FaultInjector injector(faults);
  mfc::FaultedTransport sender_ep(hub.CreateEndpoint(),
                                  drop_rate > 0 ? &injector : nullptr);
  auto recv_ep = hub.CreateEndpoint();
  mfc::Session sender(sender_ep, ConnConfig(1));
  mfc::Session receiver(*recv_ep, ConnConfig(2));
  uint64_t delivered = 0;
  receiver.SetDeliveryHandler(
      [&](const mfc::ControlMessage&, const mfc::TransportAddress&) { ++delivered; });
  // Batched: keep ~64 transfers in flight so the retry queue and dedup map
  // stay realistically loaded without building a million-entry backlog.
  constexpr size_t kWindow = 64;
  size_t next = 0;
  for (; next < std::min(messages, kWindow); ++next) {
    sender.SendReliable(mfc::MsgPing{next}, recv_ep->LocalAddress());
  }
  while (sender.PendingReliable() > 0 || next < messages) {
    loop.RunUntilIdle();
    while (next < messages && sender.PendingReliable() < kWindow) {
      sender.SendReliable(mfc::MsgPing{next}, recv_ep->LocalAddress());
      ++next;
    }
  }
  return {delivered, sender.stats().retransmits};
}

// Agents-per-coordinator soak: |agents| sessions register and answer one
// ping round, all through one coordinator session — the fleet shape
// live_loopback's soak runs over real sockets, minus the HTTP side.
uint64_t RunSoak(size_t agents) {
  mfc::EventLoop loop;
  mfc::SimTimerSource clock(loop);
  mfc::MemoryHub hub(clock);
  auto coord_ep = hub.CreateEndpoint();
  mfc::TransportAddress coord_addr = coord_ep->LocalAddress();
  mfc::Session coordinator(*coord_ep, ConnConfig(1));

  struct Agent {
    std::unique_ptr<mfc::Transport> transport;
    std::unique_ptr<mfc::Session> session;
  };
  std::vector<Agent> fleet;
  std::vector<mfc::TransportAddress> agent_addrs;
  fleet.reserve(agents);
  uint64_t coordinator_received = 0;
  coordinator.SetDeliveryHandler(
      [&](const mfc::ControlMessage&, const mfc::TransportAddress&) { ++coordinator_received; });
  for (size_t i = 0; i < agents; ++i) {
    Agent agent;
    agent.transport = hub.CreateEndpoint();
    agent.session = std::make_unique<mfc::Session>(*agent.transport, ConnConfig(i + 2));
    mfc::Session* session = agent.session.get();
    agent.session->SetDeliveryHandler(
        [session, coord_addr](const mfc::ControlMessage& message, const mfc::TransportAddress&) {
          if (const auto* ping = std::get_if<mfc::MsgPing>(&message)) {
            // Every PONG carries the 6-word stats tail, as ClientAgent's do.
            session->SendReliable(mfc::MsgPong{ping->seq, {}}, coord_addr);
          }
        });
    agent_addrs.push_back(agent.transport->LocalAddress());
    agent.session->SendReliable(mfc::MsgRegister{i}, coord_addr);
    fleet.push_back(std::move(agent));
  }
  loop.RunUntilIdle();  // registrations converge
  for (size_t i = 0; i < agents; ++i) {
    coordinator.SendReliable(mfc::MsgPing{i}, agent_addrs[i]);
  }
  loop.RunUntilIdle();  // ping + pong legs converge
  return coordinator_received;  // REGISTER + PONG per agent
}

template <typename Fn>
mfc::PerfScenario Measure(const char* name, size_t repeats, Fn fn) {
  mfc::PerfScenario s;
  s.name = name;
  s.items_unit = "ops";
  for (size_t r = 0; r < repeats; ++r) {
    mfc::PerfTimer timer;
    uint64_t items = fn();
    s.wall_seconds.push_back(timer.Seconds());
    assert(r == 0 || items == s.items);
    s.items = items;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  mfc::PerfArgs args{.out_path = "BENCH_rt.json"};
  if (!args.Parse(argc, argv)) {
    return 2;
  }
  auto scaled = [&args](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * args.scale));
  };
  mfc::PerfReport report("rt");

  // Headline: loss-free reliable control-message throughput (send + deliver
  // + ack + complete, the whole session round trip).
  size_t messages = scaled(50000);
  report.Add(Measure("control_msgs", args.repeats, [&] {
    return RunPump(messages, 0.0, 7).first;
  }));
  report.Add(Measure("soak_agents", args.repeats, [&] {
    // items = control messages the coordinator processed (2 per agent).
    return RunSoak(scaled(400));
  }));
  size_t lossy_messages = scaled(10000);
  for (auto [name, rate, seed] :
       {std::tuple<const char*, double, uint64_t>{"loss_5pct", 0.05, 11},
        std::tuple<const char*, double, uint64_t>{"loss_20pct", 0.20, 12}}) {
    uint64_t retransmits = 0;
    mfc::PerfScenario s = Measure(name, args.repeats, [&] {
      auto [delivered, resent] = RunPump(lossy_messages, rate, seed);
      retransmits = resent;
      return delivered;
    });
    // Retransmit cost of the loss level: resends per delivered message.
    s.extras.emplace_back("retransmits", static_cast<double>(retransmits));
    s.extras.emplace_back("retransmit_rate", static_cast<double>(retransmits) /
                                                 static_cast<double>(lossy_messages));
    report.Add(std::move(s));
  }
  return report.Finish(args.out_path);
}
