#include "src/core/journal/journal.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace mfc {
namespace {

constexpr char kMagic[] = "mfc-journal";

// ---- encode helpers ------------------------------------------------------

void AppendU64(std::string& out, uint64_t v) { out += std::to_string(v); }

void AppendKeyU64(std::string& out, const char* key, uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  AppendU64(out, v);
}

void AppendKeyBool(std::string& out, const char* key, bool v) {
  out += '"';
  out += key;
  out += "\":";
  out += v ? "true" : "false";
}

void AppendKeyString(std::string& out, const char* key, std::string_view v) {
  out += '"';
  out += key;
  out += "\":";
  JsonAppendQuoted(out, v);
}

void AppendKeyExact(std::string& out, const char* key, double v) {
  out += '"';
  out += key;
  out += "\":\"";
  out += EncodeExactDouble(v);
  out += '"';
}

// ---- decode helpers ------------------------------------------------------

bool GetU64(const JsonValue& obj, const char* key, uint64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return false;
  }
  bool ok = false;
  *out = v->U64(&ok);
  return ok;
}

bool GetSize(const JsonValue& obj, const char* key, size_t* out) {
  uint64_t v = 0;
  if (!GetU64(obj, key, &v)) {
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

bool GetBool(const JsonValue& obj, const char* key, bool* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return false;
  }
  bool ok = false;
  *out = v->Bool(&ok);
  return ok;
}

bool GetString(const JsonValue& obj, const char* key, std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->IsString()) {
    return false;
  }
  *out = v->scalar;
  return true;
}

bool GetExact(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->IsString()) {
    return false;
  }
  return DecodeExactDouble(v->scalar, out);
}

bool DecodeExactItem(const JsonValue& v, double* out) {
  return v.IsString() && DecodeExactDouble(v.scalar, out);
}

}  // namespace

// ---- ExperimentResult codec ----------------------------------------------

namespace {

// The one result encoding: EncodeExperimentResult with |samples|, the site
// record's summary without.
void AppendExperimentResult(std::string& out, const ExperimentResult& result, bool samples) {
  out += '{';
  AppendKeyBool(out, "aborted", result.aborted);
  out += ',';
  AppendKeyString(out, "abort_reason", result.abort_reason);
  out += ',';
  AppendKeyU64(out, "registered_clients", result.registered_clients);
  out += ",\"stages\":[";
  for (size_t s = 0; s < result.stages.size(); ++s) {
    const StageResult& stage = result.stages[s];
    if (s > 0) {
      out += ',';
    }
    out += '{';
    AppendKeyU64(out, "kind", static_cast<uint64_t>(stage.kind));
    out += ',';
    AppendKeyBool(out, "stopped", stage.stopped);
    out += ',';
    AppendKeyU64(out, "stop_at", stage.stopping_crowd_size);
    out += ',';
    AppendKeyU64(out, "max_tested", stage.max_crowd_tested);
    out += ',';
    AppendKeyU64(out, "end_reason", static_cast<uint64_t>(stage.end_reason));
    out += ',';
    AppendKeyString(out, "end_detail", stage.end_detail);
    out += ',';
    AppendKeyU64(out, "total_requests", stage.total_requests);
    out += ',';
    AppendKeyExact(out, "started", stage.started);
    out += ',';
    AppendKeyExact(out, "finished", stage.finished);
    out += ",\"epochs\":[";
    for (size_t e = 0; e < stage.epochs.size(); ++e) {
      const EpochResult& epoch = stage.epochs[e];
      if (e > 0) {
        out += ',';
      }
      out += '{';
      AppendKeyU64(out, "crowd", epoch.crowd_size);
      out += ',';
      AppendKeyU64(out, "received", epoch.samples_received);
      out += ',';
      AppendKeyU64(out, "expected", epoch.samples_expected);
      out += ',';
      AppendKeyExact(out, "metric", epoch.metric);
      out += ',';
      AppendKeyBool(out, "exceeded", epoch.exceeded_threshold);
      out += ',';
      AppendKeyBool(out, "check", epoch.check_phase);
      out += ',';
      AppendKeyBool(out, "requeued", epoch.requeued);
      if (!samples) {
        out += '}';
        continue;
      }
      out += ",\"samples\":[";
      for (size_t i = 0; i < epoch.samples.size(); ++i) {
        const RequestSample& sample = epoch.samples[i];
        if (i > 0) {
          out += ',';
        }
        out += '[';
        AppendU64(out, sample.client_id);
        out += ',';
        out += std::to_string(static_cast<int>(sample.code));
        out += ",\"";
        out += EncodeExactDouble(sample.bytes);
        out += "\",\"";
        out += EncodeExactDouble(sample.response_time);
        out += "\",\"";
        out += EncodeExactDouble(sample.normalized);
        out += "\",";
        out += sample.timed_out ? "1" : "0";
        out += ']';
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}";
}

// The seven summary fields of an epoch object.
constexpr size_t kEpochSummaryFields = 7;

}  // namespace

std::string EncodeExperimentResult(const ExperimentResult& result) {
  std::string out;
  AppendExperimentResult(out, result, /*samples=*/true);
  return out;
}

std::string EncodeExperimentSummary(const ExperimentResult& result) {
  std::string out;
  AppendExperimentResult(out, result, /*samples=*/false);
  return out;
}

bool DecodeExperimentSummary(const JsonValue& value, ExperimentResult* out) {
  *out = ExperimentResult{};
  if (!GetBool(value, "aborted", &out->aborted) ||
      !GetString(value, "abort_reason", &out->abort_reason) ||
      !GetSize(value, "registered_clients", &out->registered_clients)) {
    return false;
  }
  const JsonValue* stages = value.Find("stages");
  if (stages == nullptr || stages->kind != JsonValue::Kind::kArray) {
    return false;
  }
  out->stages.reserve(stages->items.size());
  for (const JsonValue& sv : stages->items) {
    StageResult stage;
    uint64_t kind = 0;
    uint64_t end_reason = 0;
    if (!GetU64(sv, "kind", &kind) || kind > 2 || !GetBool(sv, "stopped", &stage.stopped) ||
        !GetSize(sv, "stop_at", &stage.stopping_crowd_size) ||
        !GetSize(sv, "max_tested", &stage.max_crowd_tested) ||
        !GetU64(sv, "end_reason", &end_reason) || end_reason > 2 ||
        !GetString(sv, "end_detail", &stage.end_detail) ||
        !GetU64(sv, "total_requests", &stage.total_requests) ||
        !GetExact(sv, "started", &stage.started) ||
        !GetExact(sv, "finished", &stage.finished)) {
      return false;
    }
    stage.kind = static_cast<StageKind>(kind);
    stage.end_reason = static_cast<StageEndReason>(end_reason);
    const JsonValue* epochs = sv.Find("epochs");
    if (epochs == nullptr || epochs->kind != JsonValue::Kind::kArray) {
      return false;
    }
    stage.epochs.reserve(epochs->items.size());
    for (const JsonValue& ev : epochs->items) {
      // Exactly the summary: a samples array (the whole-result form) or any
      // other extra field makes the epoch malformed.
      EpochResult epoch;
      if (ev.fields.size() != kEpochSummaryFields || !GetSize(ev, "crowd", &epoch.crowd_size) ||
          !GetSize(ev, "received", &epoch.samples_received) ||
          !GetSize(ev, "expected", &epoch.samples_expected) ||
          !GetExact(ev, "metric", &epoch.metric) ||
          !GetBool(ev, "exceeded", &epoch.exceeded_threshold) ||
          !GetBool(ev, "check", &epoch.check_phase) ||
          !GetBool(ev, "requeued", &epoch.requeued)) {
        return false;
      }
      stage.epochs.push_back(std::move(epoch));
    }
    out->stages.push_back(std::move(stage));
  }
  return true;
}

// ---- trace codec ---------------------------------------------------------

std::string EncodeTraceSpans(const std::vector<TraceSpan>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    if (i > 0) {
      out += ',';
    }
    out += '[';
    AppendU64(out, span.id);
    out += ',';
    AppendU64(out, span.parent);
    out += ',';
    JsonAppendQuoted(out, span.name);
    out += ',';
    JsonAppendQuoted(out, span.category);
    out += ",\"";
    out += EncodeExactDouble(span.start);
    out += "\",\"";
    out += EncodeExactDouble(span.end);
    out += "\",";
    out += span.open ? "1" : "0";
    out += ',';
    AppendU64(out, span.pid);
    out += ',';
    AppendU64(out, span.track);
    out += ",[";
    for (size_t a = 0; a < span.attrs.size(); ++a) {
      if (a > 0) {
        out += ',';
      }
      out += '[';
      JsonAppendQuoted(out, span.attrs[a].first);
      out += ',';
      JsonAppendQuoted(out, span.attrs[a].second);
      out += ']';
    }
    out += "]]";
  }
  out += ']';
  return out;
}

bool DecodeTraceSpans(const JsonValue& value, std::vector<TraceSpan>* out) {
  out->clear();
  if (value.kind != JsonValue::Kind::kArray) {
    return false;
  }
  out->reserve(value.items.size());
  for (const JsonValue& sv : value.items) {
    if (sv.kind != JsonValue::Kind::kArray || sv.items.size() != 10) {
      return false;
    }
    TraceSpan span;
    bool ok = false;
    span.id = sv.items[0].U64(&ok);
    if (!ok) {
      return false;
    }
    span.parent = sv.items[1].U64(&ok);
    if (!ok) {
      return false;
    }
    if (!sv.items[2].IsString() || !sv.items[3].IsString()) {
      return false;
    }
    span.name = sv.items[2].scalar;
    span.category = sv.items[3].scalar;
    if (!DecodeExactItem(sv.items[4], &span.start) ||
        !DecodeExactItem(sv.items[5], &span.end)) {
      return false;
    }
    uint64_t open = sv.items[6].U64(&ok);
    if (!ok || open > 1) {
      return false;
    }
    span.open = open == 1;
    span.pid = sv.items[7].U64(&ok);
    if (!ok) {
      return false;
    }
    span.track = sv.items[8].U64(&ok);
    if (!ok) {
      return false;
    }
    const JsonValue& attrs = sv.items[9];
    if (attrs.kind != JsonValue::Kind::kArray) {
      return false;
    }
    for (const JsonValue& av : attrs.items) {
      if (av.kind != JsonValue::Kind::kArray || av.items.size() != 2 ||
          !av.items[0].IsString() || !av.items[1].IsString()) {
        return false;
      }
      span.attrs.emplace_back(av.items[0].scalar, av.items[1].scalar);
    }
    out->push_back(std::move(span));
  }
  return true;
}

// ---- metrics codec -------------------------------------------------------

std::string EncodeMetrics(const MetricsRegistry& metrics) {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& [name, value] : metrics.Counters()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '[';
    JsonAppendQuoted(out, name);
    out += ",\"";
    out += EncodeExactDouble(value);
    out += "\"]";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [name, value] : metrics.Gauges()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '[';
    JsonAppendQuoted(out, name);
    out += ",\"";
    out += EncodeExactDouble(value);
    out += "\"]";
  }
  out += "],\"summaries\":[";
  first = true;
  for (const auto& [name, stats] : metrics.Summaries()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '[';
    JsonAppendQuoted(out, name);
    out += ',';
    AppendU64(out, stats.Count());
    out += ",\"";
    out += EncodeExactDouble(stats.Mean());
    out += "\",\"";
    out += EncodeExactDouble(stats.M2());
    out += "\",\"";
    out += EncodeExactDouble(stats.MinValue());
    out += "\",\"";
    out += EncodeExactDouble(stats.MaxValue());
    out += "\"]";
  }
  out += "],\"hists\":[";
  first = true;
  for (const auto& [name, hist] : metrics.Histograms()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '[';
    JsonAppendQuoted(out, name);
    out += ",[";
    const std::vector<double>& edges = hist.Edges();
    for (size_t i = 0; i < edges.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += '"';
      out += EncodeExactDouble(edges[i]);
      out += '"';
    }
    out += "],[";
    for (size_t i = 0; i < hist.BucketCount(); ++i) {
      if (i > 0) {
        out += ',';
      }
      AppendU64(out, hist.BucketValue(i));
    }
    out += "]]";
  }
  out += "]}";
  return out;
}

bool DecodeMetrics(const JsonValue& value, MetricsRegistry* out) {
  *out = MetricsRegistry{};
  const JsonValue* counters = value.Find("counters");
  const JsonValue* gauges = value.Find("gauges");
  const JsonValue* summaries = value.Find("summaries");
  const JsonValue* hists = value.Find("hists");
  if (counters == nullptr || counters->kind != JsonValue::Kind::kArray || gauges == nullptr ||
      gauges->kind != JsonValue::Kind::kArray || summaries == nullptr ||
      summaries->kind != JsonValue::Kind::kArray || hists == nullptr ||
      hists->kind != JsonValue::Kind::kArray) {
    return false;
  }
  for (const JsonValue& cv : counters->items) {
    double v = 0.0;
    if (cv.kind != JsonValue::Kind::kArray || cv.items.size() != 2 ||
        !cv.items[0].IsString() || !DecodeExactItem(cv.items[1], &v)) {
      return false;
    }
    out->Add(cv.items[0].scalar, v);
  }
  for (const JsonValue& gv : gauges->items) {
    double v = 0.0;
    if (gv.kind != JsonValue::Kind::kArray || gv.items.size() != 2 ||
        !gv.items[0].IsString() || !DecodeExactItem(gv.items[1], &v)) {
      return false;
    }
    out->Set(gv.items[0].scalar, v);
  }
  for (const JsonValue& sv : summaries->items) {
    if (sv.kind != JsonValue::Kind::kArray || sv.items.size() != 6 || !sv.items[0].IsString()) {
      return false;
    }
    bool ok = false;
    uint64_t count = sv.items[1].U64(&ok);
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
    if (!ok || !DecodeExactItem(sv.items[2], &mean) || !DecodeExactItem(sv.items[3], &m2) ||
        !DecodeExactItem(sv.items[4], &min) || !DecodeExactItem(sv.items[5], &max)) {
      return false;
    }
    out->RestoreSummary(sv.items[0].scalar,
                        RunningStats::FromParts(static_cast<size_t>(count), mean, m2, min, max));
  }
  for (const JsonValue& hv : hists->items) {
    if (hv.kind != JsonValue::Kind::kArray || hv.items.size() != 3 || !hv.items[0].IsString() ||
        hv.items[1].kind != JsonValue::Kind::kArray ||
        hv.items[2].kind != JsonValue::Kind::kArray) {
      return false;
    }
    std::vector<double> edges;
    edges.reserve(hv.items[1].items.size());
    for (const JsonValue& ev : hv.items[1].items) {
      double e = 0.0;
      if (!DecodeExactItem(ev, &e)) {
        return false;
      }
      edges.push_back(e);
    }
    std::vector<size_t> counts;
    counts.reserve(hv.items[2].items.size());
    for (const JsonValue& cv : hv.items[2].items) {
      bool ok = false;
      counts.push_back(static_cast<size_t>(cv.U64(&ok)));
      if (!ok) {
        return false;
      }
    }
    if (counts.size() != edges.size() + 1) {
      return false;
    }
    out->RestoreHist(hv.items[0].scalar, Histogram::FromParts(std::move(edges), std::move(counts)));
  }
  return true;
}

// ---- record framing ------------------------------------------------------

std::string EncodeCohortRecord(const JournalCohortRecord& record) {
  std::string body = "{\"type\":\"cohort\",";
  AppendKeyU64(body, "ordinal", record.ordinal);
  body += ',';
  AppendKeyU64(body, "cohort", static_cast<uint64_t>(record.cohort));
  body += ',';
  AppendKeyU64(body, "stage", static_cast<uint64_t>(record.stage));
  body += ',';
  AppendKeyU64(body, "servers", record.servers);
  body += ',';
  AppendKeyU64(body, "max_crowd", record.max_crowd);
  body += ',';
  AppendKeyU64(body, "seed", record.seed);
  body += ',';
  AppendKeyU64(body, "pid_base", record.pid_base);
  body += ',';
  AppendKeyU64(body, "shards", record.shards);
  body += ',';
  AppendKeyU64(body, "shard_index", record.shard_index);
  body += '}';
  return body;
}

std::string EncodeSiteRecord(const JournalSiteRecord& record) {
  std::string body = "{\"type\":\"site\",";
  AppendKeyU64(body, "cohort", record.cohort_ordinal);
  body += ',';
  AppendKeyU64(body, "index", record.site_index);
  body += ',';
  AppendKeyU64(body, "seed", record.seed);
  body += ',';
  AppendKeyU64(body, "stage", static_cast<uint64_t>(record.stage));
  body += ',';
  AppendKeyU64(body, "pid", record.pid);
  body += ",\"result\":";
  AppendExperimentResult(body, record.result, /*samples=*/false);
  if (record.has_trace) {
    body += ",\"trace\":";
    body += EncodeTraceSpans(record.trace_spans);
  }
  if (record.has_metrics) {
    body += ",\"metrics\":";
    body += EncodeMetrics(record.metrics);
  }
  body += '}';
  return body;
}

std::string EncodeQuarantineRecord(const JournalQuarantineRecord& record) {
  std::string body = "{\"type\":\"quarantine\",";
  AppendKeyU64(body, "cohort", record.cohort_ordinal);
  body += ',';
  AppendKeyU64(body, "index", record.site_index);
  body += ',';
  AppendKeyU64(body, "crashes", record.crashes);
  body += ',';
  AppendKeyString(body, "signature", record.signature);
  body += '}';
  return body;
}

std::string FrameJournalRecord(const std::string& body) {
  char crc[20];
  snprintf(crc, sizeof(crc), "%016llx", static_cast<unsigned long long>(Fnv1a64(body)));
  std::string line = "{\"crc\":\"";
  line += crc;
  line += "\",\"body\":";
  line += body;
  line += "}\n";
  return line;
}

// ---- SurveyJournal -------------------------------------------------------

namespace {

// Splits a framed record line (without the trailing newline) into checksum +
// body, verifying the frame layout the writer emits. Returns false on any
// deviation.
bool UnframeLine(std::string_view line, std::string_view* body) {
  // {"crc":"<16 hex>","body":<body>}
  constexpr std::string_view kPrefix = "{\"crc\":\"";
  constexpr std::string_view kMid = "\",\"body\":";
  constexpr size_t kHex = 16;
  if (line.size() < kPrefix.size() + kHex + kMid.size() + 2 ||
      line.substr(0, kPrefix.size()) != kPrefix ||
      line.substr(kPrefix.size() + kHex, kMid.size()) != kMid || line.back() != '}') {
    return false;
  }
  std::string_view hex = line.substr(kPrefix.size(), kHex);
  uint64_t crc = 0;
  for (char c : hex) {
    crc <<= 4;
    if (c >= '0' && c <= '9') {
      crc |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      crc |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  size_t body_start = kPrefix.size() + kHex + kMid.size();
  *body = line.substr(body_start, line.size() - body_start - 1);
  return Fnv1a64(*body) == crc;
}

bool DecodeCohortRecord(const JsonValue& body, JournalCohortRecord* out) {
  uint64_t cohort = 0;
  uint64_t stage = 0;
  if (!GetSize(body, "ordinal", &out->ordinal) || !GetU64(body, "cohort", &cohort) ||
      cohort > static_cast<uint64_t>(Cohort::kLongTail) || !GetU64(body, "stage", &stage) ||
      stage > 2 || !GetSize(body, "servers", &out->servers) ||
      !GetSize(body, "max_crowd", &out->max_crowd) || !GetU64(body, "seed", &out->seed) ||
      !GetU64(body, "pid_base", &out->pid_base)) {
    return false;
  }
  out->cohort = static_cast<Cohort>(cohort);
  out->stage = static_cast<StageKind>(stage);
  return GetSize(body, "shards", &out->shards) && out->shards != 0 &&
         GetSize(body, "shard_index", &out->shard_index) && out->shard_index < out->shards;
}

bool DecodeSiteRecord(const JsonValue& body, JournalSiteRecord* out) {
  uint64_t stage = 0;
  if (!GetSize(body, "cohort", &out->cohort_ordinal) || !GetSize(body, "index", &out->site_index) ||
      !GetU64(body, "seed", &out->seed) || !GetU64(body, "stage", &stage) || stage > 2 ||
      !GetU64(body, "pid", &out->pid)) {
    return false;
  }
  out->stage = static_cast<StageKind>(stage);
  const JsonValue* result = body.Find("result");
  if (result == nullptr || !DecodeExperimentSummary(*result, &out->result)) {
    return false;
  }
  if (const JsonValue* trace = body.Find("trace")) {
    if (!DecodeTraceSpans(*trace, &out->trace_spans)) {
      return false;
    }
    out->has_trace = true;
  }
  if (const JsonValue* metrics = body.Find("metrics")) {
    if (!DecodeMetrics(*metrics, &out->metrics)) {
      return false;
    }
    out->has_metrics = true;
  }
  return true;
}

bool DecodeQuarantineRecord(const JsonValue& body, JournalQuarantineRecord* out) {
  return GetSize(body, "cohort", &out->cohort_ordinal) &&
         GetSize(body, "index", &out->site_index) && GetSize(body, "crashes", &out->crashes) &&
         out->crashes >= 1 && GetString(body, "signature", &out->signature);
}

std::string EncodeHeader(const std::string& tool, const std::string& fingerprint) {
  std::string body = "{\"type\":\"header\",";
  AppendKeyString(body, "magic", kMagic);
  body += ',';
  AppendKeyU64(body, "version", kJournalVersion);
  body += ',';
  AppendKeyString(body, "tool", tool);
  body += ',';
  AppendKeyString(body, "fingerprint", fingerprint);
  body += '}';
  return body;
}

// One pass over a journal's bytes. |data| holds the records of the valid
// prefix, which ends at offset |valid_end| of the |size| bytes read;
// |corrupt| names the first recoverable defect (drop the suffix),
// |hard_error| an unrecoverable one (not a journal at all / wrong version) —
// the file must then be left alone.
struct JournalScan {
  JournalFileData data;
  bool saw_header = false;
  size_t valid_end = 0;
  size_t size = 0;
  std::string corrupt;
  std::string hard_error;
};

void ScanJournalContents(const std::string& path, const std::string& contents,
                         JournalScan* scan) {
  size_t pos = 0;
  size_t record_index = 0;
  while (pos < contents.size() && scan->corrupt.empty()) {
    size_t newline = contents.find('\n', pos);
    if (newline == std::string::npos) {
      scan->corrupt = "truncated tail record (no trailing newline)";
      break;
    }
    std::string_view line(contents.data() + pos, newline - pos);
    std::string_view body_text;
    if (!UnframeLine(line, &body_text)) {
      scan->corrupt = "record " + std::to_string(record_index) + ": bad frame or checksum";
      break;
    }
    JsonValue body;
    std::string parse_error;
    if (!ParseJson(body_text, &body, &parse_error)) {
      scan->corrupt = "record " + std::to_string(record_index) + ": " + parse_error;
      break;
    }
    std::string type;
    if (!GetString(body, "type", &type)) {
      scan->corrupt = "record " + std::to_string(record_index) + ": missing type";
      break;
    }
    if (record_index == 0) {
      // Header mismatches are hard errors, not recoverable corruption: the
      // file is either not a journal or from an incompatible writer.
      std::string magic;
      uint64_t version = 0;
      if (type != "header" || !GetString(body, "magic", &magic) || magic != kMagic ||
          !GetU64(body, "version", &version)) {
        scan->hard_error = path + ": not an mfc journal";
        return;
      }
      if (version != kJournalVersion) {
        scan->hard_error = path + ": journal version " + std::to_string(version) + " != " +
                           std::to_string(kJournalVersion);
        return;
      }
      if (!GetString(body, "tool", &scan->data.tool) ||
          !GetString(body, "fingerprint", &scan->data.fingerprint)) {
        scan->hard_error = path + ": malformed journal header";
        return;
      }
      scan->saw_header = true;
    } else if (type == "cohort") {
      JournalCohortRecord record;
      if (!DecodeCohortRecord(body, &record) || record.ordinal != scan->data.cohorts.size()) {
        scan->corrupt = "record " + std::to_string(record_index) + ": malformed cohort record";
        break;
      }
      scan->data.cohorts.push_back(record);
    } else if (type == "site") {
      JournalSiteRecord record;
      if (!DecodeSiteRecord(body, &record)) {
        scan->corrupt = "record " + std::to_string(record_index) + ": malformed site record";
        break;
      }
      // Bind the site to its cohort declaration when one exists (survey
      // journals always write the cohort record first): seed must follow the
      // SplitMix64 derivation and the index must belong to its shard.
      if (record.cohort_ordinal < scan->data.cohorts.size()) {
        const JournalCohortRecord& cohort = scan->data.cohorts[record.cohort_ordinal];
        if (record.site_index >= cohort.servers || record.stage != cohort.stage ||
            record.seed != SiteExperimentSeed(cohort.seed, cohort.cohort, record.site_index) ||
            record.pid != cohort.pid_base + record.site_index ||
            record.site_index % cohort.shards != cohort.shard_index) {
          scan->corrupt = "record " + std::to_string(record_index) +
                          ": site record inconsistent with its cohort";
          break;
        }
      }
      auto key = std::make_pair(record.cohort_ordinal, record.site_index);
      if (scan->data.quarantine_index.count(key) != 0) {
        // A quarantined site must never execute: a site record after the
        // quarantine means two writers disagreed about this journal.
        scan->corrupt = "record " + std::to_string(record_index) +
                        ": site record for a quarantined site";
        break;
      }
      if (!scan->data.sites.emplace(key, std::move(record)).second) {
        scan->corrupt = "record " + std::to_string(record_index) + ": duplicate site record";
        break;
      }
    } else if (type == "quarantine") {
      JournalQuarantineRecord record;
      if (!DecodeQuarantineRecord(body, &record)) {
        scan->corrupt =
            "record " + std::to_string(record_index) + ": malformed quarantine record";
        break;
      }
      if (record.cohort_ordinal < scan->data.cohorts.size()) {
        const JournalCohortRecord& cohort = scan->data.cohorts[record.cohort_ordinal];
        if (record.site_index >= cohort.servers ||
            record.site_index % cohort.shards != cohort.shard_index) {
          scan->corrupt = "record " + std::to_string(record_index) +
                          ": quarantine record inconsistent with its cohort";
          break;
        }
      }
      auto key = std::make_pair(record.cohort_ordinal, record.site_index);
      if (scan->data.sites.count(key) != 0) {
        scan->corrupt = "record " + std::to_string(record_index) +
                        ": quarantine for an already-executed site";
        break;
      }
      if (!scan->data.quarantine_index.emplace(key, scan->data.quarantines.size()).second) {
        scan->corrupt =
            "record " + std::to_string(record_index) + ": duplicate quarantine record";
        break;
      }
      scan->data.quarantines.push_back(std::move(record));
    } else {
      scan->corrupt = "record " + std::to_string(record_index) + ": unknown type \"" + type +
                      "\"";
      break;
    }
    pos = newline + 1;
    scan->valid_end = pos;
    ++record_index;
  }
}

// Counts the records in the invalid suffix (for the recovery warning).
size_t CountDroppedRecords(const std::string& contents, size_t valid_end) {
  size_t dropped = 1;
  for (size_t i = valid_end; i < contents.size(); ++i) {
    if (contents[i] == '\n' && i + 1 < contents.size()) {
      ++dropped;
    }
  }
  return dropped;
}

// Reads all of |file| and scans it: the step every journal reader shares.
// A corrupt suffix is noted in scan->data.warning as |dropped_as| ("dropped"
// by a writer, which truncates it; "ignored" by a read-only reader).
// Returns the error that makes the file unusable, or "" for a journal: a
// failed read, another format's header, or bytes with no valid header. An
// empty file has no header either; it passes only when |allow_empty| (a
// journal Open is about to create).
std::string ReadJournalScan(FILE* file, const std::string& path, bool allow_empty,
                            const char* dropped_as, JournalScan* scan) {
  std::string contents;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  if (ferror(file)) {
    return "cannot read journal " + path;
  }
  scan->size = contents.size();
  ScanJournalContents(path, contents, scan);
  if (!scan->hard_error.empty()) {
    return scan->hard_error;
  }
  if (!scan->saw_header && (!contents.empty() || !allow_empty)) {
    // Some other file, not a corrupt journal: never truncate or overwrite it.
    return path + ": not an mfc journal (no valid header record)";
  }
  if (!scan->corrupt.empty()) {
    scan->data.records_dropped = CountDroppedRecords(contents, scan->valid_end);
    scan->data.warning = "journal corruption (" + scan->corrupt + "): " + dropped_as + " " +
                         std::to_string(scan->data.records_dropped) +
                         " record(s) after the valid prefix";
  }
  return "";
}

// Cuts |file| back to the valid prefix |scan| found, so appended records
// continue a clean stream, and seeks to its end. Returns the error, or "".
std::string TruncateToValidPrefix(FILE* file, const std::string& path, const JournalScan& scan) {
  if (scan.valid_end < scan.size &&
      ftruncate(fileno(file), static_cast<off_t>(scan.valid_end)) != 0) {
    return "cannot truncate corrupt journal suffix in " + path;
  }
  if (fseek(file, static_cast<long>(scan.valid_end), SEEK_SET) != 0) {
    return "cannot seek journal " + path;
  }
  return "";
}

}  // namespace

std::unique_ptr<SurveyJournal> SurveyJournal::Open(const std::string& path,
                                                   const std::string& tool,
                                                   const std::string& fingerprint, bool resume,
                                                   std::string* error) {
  auto fail = [error](const std::string& message) -> std::unique_ptr<SurveyJournal> {
    if (error != nullptr) {
      *error = message;
    }
    return nullptr;
  };

  FILE* file = fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    file = fopen(path.c_str(), "w+b");
  }
  if (file == nullptr) {
    return fail("cannot open journal " + path);
  }
  std::unique_ptr<SurveyJournal> journal(new SurveyJournal());
  journal->path_ = path;
  journal->file_ = file;

  // A corrupt tail is recovered by replaying only the valid prefix: the
  // scan counts what it drops and warns, and the truncation below cuts it.
  JournalScan scan;
  if (std::string message = ReadJournalScan(file, path, /*allow_empty=*/true, "dropped", &scan);
      !message.empty()) {
    return fail(message);
  }
  const JournalFileData& data = scan.data;
  if (scan.saw_header && (data.tool != tool || data.fingerprint != fingerprint)) {
    // The journal belongs to a different run and must never be reused.
    return fail(path + ": journal belongs to a different run (tool \"" + data.tool +
                "\", fingerprint \"" + data.fingerprint + "\"; this run is tool \"" + tool +
                "\", fingerprint \"" + fingerprint + "\")");
  }
  if (!resume && (!data.cohorts.empty() || !data.sites.empty() || !data.quarantines.empty())) {
    return fail(path + ": journal already contains experiment records; pass --resume to replay "
                       "them or remove the file to start over");
  }
  if (std::string message = TruncateToValidPrefix(file, path, scan); !message.empty()) {
    return fail(message);
  }
  journal->data_ = std::move(scan.data);

  journal->written_bytes_ = scan.valid_end;
  journal->last_sync_ = std::chrono::steady_clock::now();
  if (!scan.saw_header) {
    // Fresh journal: write the header and fsync it at once. A torn header
    // would make the file "not an mfc journal" after a machine crash, not a
    // recoverable tail.
    journal->AppendFrameLocked(EncodeHeader(tool, fingerprint), /*sync_now=*/true);
    if (!journal->error_.empty()) {
      return fail(journal->error_);
    }
  }
  return journal;
}

bool ReadJournalFile(const std::string& path, JournalFileData* out, std::string* error) {
  FILE* file = fopen(path.c_str(), "rb");
  std::string message = "cannot open journal " + path;
  JournalScan scan;
  if (file != nullptr) {
    message = ReadJournalScan(file, path, /*allow_empty=*/false, "ignored", &scan);
    fclose(file);
  }
  if (!message.empty()) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  }
  *out = std::move(scan.data);
  return true;
}

SurveyJournal::~SurveyJournal() {
  if (file_ != nullptr) {
    SyncLocked();
    fclose(file_);
  }
}

void SurveyJournal::AppendFrameLocked(const std::string& body, bool sync_now) {
  if (!error_.empty()) {
    return;
  }
  std::string line = FrameJournalRecord(body);
  if (fwrite(line.data(), 1, line.size(), file_) != line.size() || fflush(file_) != 0) {
    error_ = "cannot append to journal " + path_ + ": " + strerror(errno);
    return;
  }
  written_bytes_ += line.size();
  ++unsynced_records_;
  if (sync_now || unsynced_records_ >= kGroupCommitRecords ||
      std::chrono::steady_clock::now() - last_sync_ >= kGroupCommitInterval) {
    SyncLocked();
  }
}

bool SurveyJournal::SyncLocked() {
  if (!error_.empty()) {
    return false;
  }
  if (fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
    error_ = "cannot sync journal " + path_ + ": " + strerror(errno);
    return false;
  }
  ++fsyncs_;
  synced_bytes_ = written_bytes_;
  unsynced_records_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  return true;
}

bool SurveyJournal::BeginCohort(Cohort cohort, StageKind stage, size_t servers, size_t max_crowd,
                                uint64_t seed, uint64_t pid_base, std::string* error,
                                size_t shards, size_t shard_index) {
  size_t ordinal = begun_cohorts_++;
  current_ordinal_ = ordinal;
  if (ordinal < data_.cohorts.size()) {
    const JournalCohortRecord& rec = data_.cohorts[ordinal];
    if (rec.cohort != cohort || rec.stage != stage || rec.servers != servers ||
        rec.max_crowd != max_crowd || rec.seed != seed || rec.pid_base != pid_base ||
        rec.shards != shards || rec.shard_index != shard_index) {
      if (error != nullptr) {
        *error = "cohort " + std::to_string(ordinal) + " config mismatch: journal has " +
                 std::string(CohortName(rec.cohort)) + "/" + std::string(StageName(rec.stage)) +
                 " servers=" + std::to_string(rec.servers) +
                 " max_crowd=" + std::to_string(rec.max_crowd) +
                 " seed=" + std::to_string(rec.seed) +
                 " pid_base=" + std::to_string(rec.pid_base) +
                 " shards=" + std::to_string(rec.shards) + "/" +
                 std::to_string(rec.shard_index) + ", this run wants " +
                 std::string(CohortName(cohort)) + "/" + std::string(StageName(stage)) +
                 " servers=" + std::to_string(servers) + " max_crowd=" + std::to_string(max_crowd) +
                 " seed=" + std::to_string(seed) + " pid_base=" + std::to_string(pid_base) +
                 " shards=" + std::to_string(shards) + "/" + std::to_string(shard_index);
      }
      return false;
    }
    return true;
  }
  JournalCohortRecord record;
  record.ordinal = ordinal;
  record.cohort = cohort;
  record.stage = stage;
  record.servers = servers;
  record.max_crowd = max_crowd;
  record.seed = seed;
  record.pid_base = pid_base;
  record.shards = shards;
  record.shard_index = shard_index;
  data_.cohorts.push_back(record);
  std::lock_guard<std::mutex> lock(mu_);
  AppendFrameLocked(EncodeCohortRecord(record), /*sync_now=*/false);
  return true;
}

const JournalSiteRecord* SurveyJournal::Replayed(size_t index) const {
  return SiteAt(current_ordinal_, index);
}

const JournalSiteRecord* SurveyJournal::SiteAt(size_t ordinal, size_t index) const {
  auto it = data_.sites.find(std::make_pair(ordinal, index));
  return it == data_.sites.end() ? nullptr : &it->second;
}

const JournalQuarantineRecord* SurveyJournal::Quarantined(size_t index) const {
  return QuarantineAt(current_ordinal_, index);
}

const JournalQuarantineRecord* SurveyJournal::QuarantineAt(size_t ordinal, size_t index) const {
  auto it = data_.quarantine_index.find(std::make_pair(ordinal, index));
  return it == data_.quarantine_index.end() ? nullptr : &data_.quarantines[it->second];
}

void SurveyJournal::AppendSite(const JournalSiteRecord& record) {
  std::string body = EncodeSiteRecord(record);
  {
    std::lock_guard<std::mutex> lock(mu_);
    AppendFrameLocked(body, /*sync_now=*/false);
  }
  executed_sites.fetch_add(1, std::memory_order_relaxed);
}

bool SurveyJournal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

std::string SurveyJournal::Error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

size_t SurveyJournal::Fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

uint64_t SurveyJournal::SyncedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_bytes_;
}

bool AppendQuarantineRecord(const std::string& path, const JournalQuarantineRecord& record,
                            std::string* error) {
  FILE* file = fopen(path.c_str(), "r+b");
  std::string message = "cannot open journal " + path;
  if (file != nullptr) {
    JournalScan scan;
    message = ReadJournalScan(file, path, /*allow_empty=*/false, "dropped", &scan);
    auto key = std::make_pair(record.cohort_ordinal, record.site_index);
    // Already executed (the crash was blamed on the wrong site) or already
    // quarantined: nothing to record.
    const bool recorded =
        scan.data.sites.count(key) != 0 || scan.data.quarantine_index.count(key) != 0;
    if (message.empty() && !recorded) {
      // The writer died mid-append in the worst case: drop the torn tail
      // exactly as Open would, so our record continues the valid prefix.
      message = TruncateToValidPrefix(file, path, scan);
      std::string line = FrameJournalRecord(EncodeQuarantineRecord(record));
      if (message.empty() && (fwrite(line.data(), 1, line.size(), file) != line.size() ||
                              fflush(file) != 0 || fsync(fileno(file)) != 0)) {
        message = "cannot append quarantine record to " + path;
      }
    }
    fclose(file);
  }
  if (!message.empty() && error != nullptr) {
    *error = message;
  }
  return message.empty();
}

}  // namespace mfc
