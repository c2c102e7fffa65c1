// Ablation: the Large Object decision rule (Section 2.2.3).
//
// When many MFC clients sit behind a shared mid-path bottleneck, a crowd can
// congest that bottleneck instead of the server's access link. The median
// rule then reports a "constraint" that is not the server's; requiring 90%
// of clients to degrade (P10 > θ) suppresses it. We build a topology where
// half the fleet shares a congested POP while the server link is enormous,
// and run the Large Object stage under both rules.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/coordinator.h"
#include "src/core/sim_testbed.h"
#include "src/server/web_server.h"
#include "src/content/site_generator.h"

namespace mfc {
namespace {

void RunRule(const char* label, double percentile) {
  Rng rng(42);
  SiteSpec spec;
  spec.binary_size_min = 400 * 1024;
  spec.binary_size_max = 400 * 1024;
  ContentStore content = GenerateSite(rng, spec);

  WideAreaConfig wan;
  wan.server_access_bps = 2e9;  // the server link is not the problem
  // POP 0 is a congested shared bottleneck; POP 1 is clean.
  wan.pop_bottleneck_bps = {3e6, 1e9};

  auto fleet = MakePlanetLabFleet(rng, 85, 2);  // alternating POP assignment
  SimTestbed testbed(9, wan, std::move(fleet), nullptr);
  WebServerConfig server_config;
  server_config.cpu_cores = 8;
  WebServer server(testbed.Loop(), server_config, &content);
  testbed.SetTarget(&server);

  ExperimentConfig config;
  config.threshold = Millis(100);
  config.max_crowd = 50;
  config.large_object_percentile = percentile;
  Coordinator coordinator(testbed, config, 7);

  StageObjects objects;
  Url large;
  large.host = "t";
  for (const WebObject& object : content.Objects()) {
    if (object.content_class == ContentClass::kBinary) {
      large.path = object.path;
    }
  }
  objects.large_object = large;
  ExperimentResult result = coordinator.Run(objects, {StageKind::kLargeObject});
  printf("%-44s %s\n", label, StopLabel(result.Stage(StageKind::kLargeObject)).c_str());
}

}  // namespace
}  // namespace mfc

int main() {
  mfc::PrintHeader("Ablation: median vs 90%-of-clients rule on the Large Object stage",
                   "Section 2.2.3 design rationale");
  printf("\nTopology: server access link 16 Gbit/s (unconstrained); half the clients\n"
         "behind a congested 24 Mbit/s shared POP bottleneck.\n\n");
  printf("%-44s %s\n", "decision rule", "verdict");
  mfc::RunRule("median (P50 > theta)  [naive]", 50.0);
  mfc::RunRule("90% of clients (P10 > theta)  [paper]", 10.0);
  printf("\nExpected: the median rule blames the (well-provisioned) server because the\n"
         "POP clients dominate the median; the paper's rule reports NoStop.\n");
  return 0;
}
