// Shared scaffolding for the perf harness binaries (bench/perf_*.cc).
//
// Each perf binary times a set of scenarios over several repeats and emits a
// machine-readable BENCH_<name>.json record so the repo's performance
// trajectory is visible to later PRs (see DESIGN.md §10 for the schema and
// tools/check_bench.py for the validator). The JSON carries enough metadata
// (commit, build flags, hardware threads) that two records are comparable, or
// visibly not.
#ifndef MFC_BENCH_PERF_UTIL_H_
#define MFC_BENCH_PERF_UTIL_H_

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/arg_parse.h"
#include "src/core/export.h"

// Injected by bench/CMakeLists.txt at configure time; stale only until the
// next cmake run, and recorded as provenance, not ground truth.
#ifndef MFC_GIT_COMMIT
#define MFC_GIT_COMMIT "unknown"
#endif
#ifndef MFC_BENCH_FLAGS
#define MFC_BENCH_FLAGS "unknown"
#endif

namespace mfc {

class PerfTimer {
 public:
  PerfTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Nearest-rank percentile over an unsorted sample set (copied; samples are
// tiny — one per repeat).
inline double PerfPercentile(std::vector<double> xs, double q) {
  assert(!xs.empty());
  std::sort(xs.begin(), xs.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

// One timed scenario: |items| units of work (identical every repeat — the
// harness asserts this, since a perf bench that does different work per
// repeat measures nothing) and one wall-clock sample per repeat.
struct PerfScenario {
  std::string name;
  std::string items_unit = "events";  // "events" | "ops"
  uint64_t items = 0;
  std::vector<double> wall_seconds;
  // Free-form numeric counters (allocator recompute counts etc.), emitted in
  // insertion order.
  std::vector<std::pair<std::string, double>> extras;

  double P50() const { return PerfPercentile(wall_seconds, 0.50); }
  double P99() const { return PerfPercentile(wall_seconds, 0.99); }
  double ItemsPerSec() const {
    double p50 = P50();
    return p50 > 0.0 ? static_cast<double>(items) / p50 : 0.0;
  }
};

// Accumulates scenarios, prints a human-readable table, and writes the
// BENCH_<name>.json record (atomic write; schema in DESIGN.md §10). The
// first scenario is the headline the acceptance trajectory tracks. Every
// scenario runs on one thread, so the record's "jobs" is always 1.
class PerfReport {
 public:
  explicit PerfReport(std::string bench) : bench_(std::move(bench)) {}

  void Add(PerfScenario scenario) {
    assert(!scenario.wall_seconds.empty());
    scenarios_.push_back(std::move(scenario));
  }

  // Prints the table and writes |out_path| (when non-empty). Returns main()'s
  // exit code.
  int Finish(const std::string& out_path) const {
    printf("%-24s %10s %14s %12s %12s\n", "scenario", "items", "items/sec", "p50 ms",
           "p99 ms");
    for (const PerfScenario& s : scenarios_) {
      printf("%-24s %10llu %14.0f %12.3f %12.3f\n", s.name.c_str(),
             static_cast<unsigned long long>(s.items), s.ItemsPerSec(), s.P50() * 1e3,
             s.P99() * 1e3);
    }
    if (out_path.empty()) {
      return 0;
    }
    if (!WriteFileAtomic(out_path, ToJson())) {
      fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    printf("wrote %s\n", out_path.c_str());
    return 0;
  }

  std::string ToJson() const {
    std::string json;
    char line[512];
    snprintf(line, sizeof(line),
             "{\n  \"bench\": \"%s\",\n  \"schema\": 1,\n  \"commit\": \"%s\",\n"
             "  \"flags\": \"%s\",\n  \"jobs\": 1,\n",
             bench_.c_str(), MFC_GIT_COMMIT, MFC_BENCH_FLAGS);
    json += line;
    if (!scenarios_.empty()) {
      const PerfScenario& h = scenarios_.front();
      snprintf(line, sizeof(line),
               "  \"headline\": {\"name\": \"%s\", \"items_per_sec\": %.3f},\n",
               h.name.c_str(), h.ItemsPerSec());
      json += line;
    }
    json += "  \"scenarios\": [\n";
    for (size_t i = 0; i < scenarios_.size(); ++i) {
      const PerfScenario& s = scenarios_[i];
      snprintf(line, sizeof(line),
               "    {\"name\": \"%s\", \"items_unit\": \"%s\", \"items\": %llu,\n"
               "     \"repeats\": %zu, \"wall_seconds_p50\": %.9f, \"wall_seconds_p99\": %.9f,\n"
               "     \"items_per_sec\": %.3f",
               s.name.c_str(), s.items_unit.c_str(), static_cast<unsigned long long>(s.items),
               s.wall_seconds.size(), s.P50(), s.P99(), s.ItemsPerSec());
      json += line;
      for (const auto& [key, value] : s.extras) {
        snprintf(line, sizeof(line), ",\n     \"%s\": %.6f", key.c_str(), value);
        json += line;
      }
      json += i + 1 < scenarios_.size() ? "},\n" : "}\n";
    }
    json += "  ]\n}\n";
    return json;
  }

 private:
  std::string bench_;
  std::vector<PerfScenario> scenarios_;
};

// Common flag parsing for the perf binaries: --repeats=N --scale=X --out=PATH,
// through the checked parsers of src/core/arg_parse.h. A malformed value, a
// zero repeat count or a scale that is not positive clears |ok|, and main()
// exits 2 rather than timing work nobody asked for.
struct PerfArgs {
  size_t repeats = 5;
  double scale = 1.0;
  std::string out_path;
  bool ok = true;
};

inline PerfArgs ParsePerfArgs(int argc, char** argv, const char* default_out) {
  PerfArgs args;
  args.out_path = default_out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      size_t n = strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--repeats=")) {
      args.ok &= ParseSizeFlag("--repeats", v, &args.repeats);
    } else if (const char* v = value_of("--scale=")) {
      args.ok &= ParseDoubleFlag("--scale", v, &args.scale);
    } else if (const char* v = value_of("--out=")) {
      args.out_path = v;
    } else {
      fprintf(stderr, "unknown flag '%s' (supported: --repeats=N --scale=X --out=PATH)\n",
              arg.c_str());
      args.ok = false;
    }
  }
  if (args.repeats == 0 || args.scale <= 0.0) {
    fprintf(stderr, "--repeats must be at least 1 and --scale must be positive\n");
    args.ok = false;
  }
  return args;
}

}  // namespace mfc

#endif  // MFC_BENCH_PERF_UTIL_H_
