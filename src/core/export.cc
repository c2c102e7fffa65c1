#include "src/core/export.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "src/telemetry/json_quote.h"

namespace mfc {
namespace {

std::string FormatMs(SimDuration d) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.3f", ToMillis(d));
  return buf;
}

}  // namespace

std::string ExportEpochsCsv(const ExperimentResult& result) {
  std::string csv =
      "stage,epoch,crowd_size,samples,metric_ms,exceeded,check_phase,stopped_stage\n";
  for (const StageResult& stage : result.stages) {
    for (size_t e = 0; e < stage.epochs.size(); ++e) {
      const EpochResult& epoch = stage.epochs[e];
      csv += std::string(StageName(stage.kind)) + "," + std::to_string(e + 1) + "," +
             std::to_string(epoch.crowd_size) + "," + std::to_string(epoch.samples_received) +
             "," + FormatMs(epoch.metric) + "," + (epoch.exceeded_threshold ? "1" : "0") + "," +
             (epoch.check_phase ? "1" : "0") + "," + (stage.stopped ? "1" : "0") + "\n";
    }
  }
  return csv;
}

std::string ExportJson(const ExperimentResult& result) {
  std::string json = "{";
  json += "\"aborted\":" + std::string(result.aborted ? "true" : "false");
  if (result.aborted) {
    json += ",\"abort_reason\":";
    JsonAppendQuoted(json, result.abort_reason);
  }
  json += ",\"registered_clients\":" + std::to_string(result.registered_clients);
  json += ",\"stages\":[";
  for (size_t s = 0; s < result.stages.size(); ++s) {
    const StageResult& stage = result.stages[s];
    if (s > 0) {
      json += ",";
    }
    json += "{\"stage\":\"" + std::string(StageName(stage.kind)) + "\"";
    json += ",\"stopped\":" + std::string(stage.stopped ? "true" : "false");
    if (stage.stopped) {
      json += ",\"stopping_crowd_size\":" + std::to_string(stage.stopping_crowd_size);
    }
    json += ",\"max_crowd_tested\":" + std::to_string(stage.max_crowd_tested);
    json += ",\"end_reason\":\"" + std::string(StageEndReasonName(stage.end_reason)) + "\"";
    if (!stage.end_detail.empty()) {
      json += ",\"end_detail\":";
      JsonAppendQuoted(json, stage.end_detail);
    }
    json += ",\"total_requests\":" + std::to_string(stage.total_requests);
    json += ",\"epochs\":[";
    for (size_t e = 0; e < stage.epochs.size(); ++e) {
      const EpochResult& epoch = stage.epochs[e];
      if (e > 0) {
        json += ",";
      }
      json += "{\"crowd\":" + std::to_string(epoch.crowd_size);
      json += ",\"samples\":" + std::to_string(epoch.samples_received);
      json += ",\"metric_ms\":" + FormatMs(epoch.metric);
      json += ",\"exceeded\":" + std::string(epoch.exceeded_threshold ? "true" : "false");
      json += ",\"check\":" + std::string(epoch.check_phase ? "true" : "false");
      json += "}";
    }
    json += "]}";
  }
  json += "]}";
  return json;
}

std::string ExportTraceJson(const Tracer& tracer) {
  const std::vector<TraceSpan>& spans = tracer.Spans();
  // Monotone timestamps: order events by (pid, start time, id).
  std::vector<size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&spans](size_t a, size_t b) {
    if (spans[a].pid != spans[b].pid) {
      return spans[a].pid < spans[b].pid;
    }
    if (spans[a].start != spans[b].start) {
      return spans[a].start < spans[b].start;
    }
    return spans[a].id < spans[b].id;
  });

  auto micros = [](SimTime t) {
    char buf[40];
    snprintf(buf, sizeof(buf), "%.3f", t * 1e6);
    return std::string(buf);
  };

  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (size_t i : order) {
    const TraceSpan& span = spans[i];
    if (!first) {
      json += ",";
    }
    first = false;
    json += "\n{\"name\":";
    JsonAppendQuoted(json, span.name);
    json += ",\"cat\":";
    JsonAppendQuoted(json, span.category);
    json += ",\"ph\":\"X\",\"ts\":" + micros(span.start) + ",\"dur\":" +
            micros(span.Duration()) + ",\"pid\":" + std::to_string(span.pid) +
            ",\"tid\":" + std::to_string(span.track);
    json += ",\"args\":{\"id\":" + std::to_string(span.id);
    if (span.parent != 0) {
      json += ",\"parent\":" + std::to_string(span.parent);
    }
    for (const auto& [key, value] : span.attrs) {
      json += ',';
      JsonAppendQuoted(json, key);
      json += ':';
      JsonAppendQuoted(json, value);
    }
    json += "}}";
  }
  json += "\n]}\n";
  return json;
}

std::string ExportMetricsCsv(const MetricsRegistry& metrics) {
  auto fmt = [](double v) {
    char buf[40];
    snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  std::string csv = "kind,name,field,value\n";
  for (const auto& [name, value] : metrics.Counters()) {
    csv += "counter," + name + ",value," + fmt(value) + "\n";
  }
  for (const auto& [name, value] : metrics.Gauges()) {
    csv += "gauge," + name + ",value," + fmt(value) + "\n";
  }
  for (const auto& [name, stats] : metrics.Summaries()) {
    csv += "summary," + name + ",count," + std::to_string(stats.Count()) + "\n";
    csv += "summary," + name + ",mean," + fmt(stats.Mean()) + "\n";
    csv += "summary," + name + ",stddev," + fmt(stats.StdDev()) + "\n";
    csv += "summary," + name + ",min," + fmt(stats.MinValue()) + "\n";
    csv += "summary," + name + ",max," + fmt(stats.MaxValue()) + "\n";
  }
  for (const auto& [name, hist] : metrics.Histograms()) {
    csv += "hist," + name + ",total," + std::to_string(hist.Total()) + "\n";
    for (size_t i = 0; i < hist.BucketCount(); ++i) {
      csv += "hist," + name + ",bucket_" + std::to_string(i) + "," +
             std::to_string(hist.BucketValue(i)) + "\n";
    }
  }
  return csv;
}

bool WriteFileAtomic(const std::string& path, const std::string& contents) {
  std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool ok = fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  ok = fflush(f) == 0 && ok;
  ok = fsync(fileno(f)) == 0 && ok;
  ok = fclose(f) == 0 && ok;
  if (ok) {
    ok = rename(tmp.c_str(), path.c_str()) == 0;
  }
  if (!ok) {
    remove(tmp.c_str());
  }
  return ok;
}

}  // namespace mfc
