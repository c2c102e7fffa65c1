// google-benchmark microbenchmarks for the substrate hot paths: event-loop
// throughput, max-min reallocation cost, processor-sharing queue churn, and
// HTTP parsing.
#include <benchmark/benchmark.h>

#include "src/http/parser.h"
#include "src/net/flow_network.h"
#include "src/server/resources.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"

namespace mfc {
namespace {

void BM_EventLoopScheduleRun(benchmark::State& state) {
  EventLoop loop;
  size_t batch = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      loop.ScheduleAfter(1.0 + static_cast<double>(i % 97), [] {});
    }
    loop.RunUntilIdle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

// The cancel-heavy pattern of the simulation (kill timers, TCP timeouts that
// mostly don't fire): schedule a batch, cancel half of it, drain the rest.
// Exercises the in-place cancel path: Cancel removes the entry from the
// indexed heap and frees its pooled record, so the drain meets no stale entry.
void BM_EventLoopScheduleCancelRun(benchmark::State& state) {
  EventLoop loop;
  size_t batch = static_cast<size_t>(state.range(0));
  std::vector<EventId> ids(batch);
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      ids[i] = loop.ScheduleAfter(1.0 + static_cast<double>(i % 97), [] {});
    }
    for (size_t i = 0; i < batch; i += 2) {
      loop.Cancel(ids[i]);
    }
    loop.RunUntilIdle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_EventLoopScheduleCancelRun)->Arg(64)->Arg(1024)->Arg(16384);

void BM_FlowNetworkReallocate(benchmark::State& state) {
  size_t flows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    EventLoop loop;
    FlowNetwork net(loop);
    LinkId server = net.AddLink(1e9);
    Rng rng(1);
    std::vector<LinkId> clients;
    for (size_t i = 0; i < flows; ++i) {
      clients.push_back(net.AddLink(rng.Uniform(1e6, 1e8)));
    }
    state.ResumeTiming();
    // Each StartFlow triggers a full water-filling pass.
    for (size_t i = 0; i < flows; ++i) {
      net.StartFlow({server, clients[i]}, 1e6, 0.05, TcpParams{}, [] {});
    }
    benchmark::DoNotOptimize(net.LinkRate(server));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(flows));
}
BENCHMARK(BM_FlowNetworkReallocate)->Arg(16)->Arg(64)->Arg(256);

void BM_ProcessorSharingChurn(benchmark::State& state) {
  size_t jobs = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    EventLoop loop;
    CpuResource cpu(loop, 4);
    for (size_t i = 0; i < jobs; ++i) {
      cpu.Submit(1e-3 * static_cast<double>(1 + i % 7), [] {});
    }
    loop.RunUntilIdle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(jobs));
}
BENCHMARK(BM_ProcessorSharingChurn)->Arg(16)->Arg(128);

void BM_HttpRequestParse(benchmark::State& state) {
  HttpRequest req;
  req.method = HttpMethod::kGet;
  req.target = "/cgi/search.php?q=flash+crowds&page=3&mfc=42";
  req.headers.Set("Host", "target.example.com");
  req.headers.Set("User-Agent", "mfc-client/1.0");
  req.headers.Set("Accept", "*/*");
  std::string wire = req.Serialize();
  for (auto _ : state) {
    RequestParser parser;
    parser.Feed(wire);
    benchmark::DoNotOptimize(parser.Done());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_HttpRequestParse);

void BM_HttpResponseParseChunked(benchmark::State& state) {
  HttpResponse resp = HttpResponse::Make(HttpStatus::kOk, "text/html",
                                         std::string(8192, 'x'));
  std::string wire = resp.Serialize();
  size_t chunk = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    ResponseParser parser;
    size_t pos = 0;
    while (pos < wire.size()) {
      size_t n = std::min(chunk, wire.size() - pos);
      parser.Feed(std::string_view(wire).substr(pos, n));
      pos += n;
    }
    benchmark::DoNotOptimize(parser.Done());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_HttpResponseParseChunked)->Arg(64)->Arg(1460)->Arg(65536);

}  // namespace
}  // namespace mfc

BENCHMARK_MAIN();
