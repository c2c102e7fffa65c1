#include "src/core/journal/journal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "src/core/journal/json.h"
#include "src/telemetry/json_quote.h"

namespace mfc {
namespace {

constexpr char kMagic[] = "mfc-journal";

// ---- field lists -----------------------------------------------------------
//
// Each record type has one field list: a function template over the
// direction that names the record's fields in order with their encodings.
// Driven by a Writer it appends the record's canonical bytes; driven by a
// Reader it consumes exactly those bytes and fails on anything else, so a
// reader never accepts a record that would re-encode differently. The record
// is const when writing (Rec below). Every primitive returns whether it
// succeeded, a Writer's always, so a field list is one && chain.

class Writer {
 public:
  static constexpr bool kWrites = true;

  explicit Writer(std::string& out, bool samples = false) : samples(samples), out_(out) {}

  bool Lit(std::string_view text) {
    out_ += text;
    return true;
  }
  bool Num(uint64_t v) {
    char buf[20];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    return true;
  }
  template <class E>
  bool Enum(E v, E /*max*/) {
    return Num(static_cast<uint64_t>(v));
  }
  bool Bool(bool v) { return Lit(v ? "true" : "false"); }
  bool Bit(bool v) { return Lit(v ? "1" : "0"); }
  bool Str(std::string_view v) {
    JsonAppendQuoted(out_, v);
    return true;
  }
  bool Exact(double v) {
    out_ += '"';
    out_ += EncodeExactDouble(v);
    out_ += '"';
    return true;
  }
  // An optional field: |key| and its value follow only when |present|.
  bool Opt(std::string_view key, bool present) { return present && Lit(key); }
  template <class T, class F>
  bool List(const std::vector<T>& items, F each) {
    out_ += '[';
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) {
        out_ += ',';
      }
      each(items[i]);
    }
    out_ += ']';
    return true;
  }
  template <class T>
  bool List(const std::vector<T>& items) {
    return List(items, [this](const T& item) { return Fields(*this, item); });
  }
  // A metrics map: [name,<value>] entries in the map's name order.
  template <class V, class F>
  bool Entries(const std::map<std::string, V>& map, F value) {
    out_ += '[';
    for (auto it = map.begin(); it != map.end(); ++it) {
      Lit(it == map.begin() ? "[" : ",[");
      Str(it->first);
      out_ += ',';
      value(it->second);
      out_ += ']';
    }
    out_ += ']';
    return true;
  }

  // Epochs carry their raw samples (EncodeExperimentResult only).
  const bool samples;

 private:
  std::string& out_;
};

class Reader {
 public:
  static constexpr bool kWrites = false;

  explicit Reader(std::string_view in) : in_(in) {}

  bool Done() const { return pos_ == in_.size(); }

  bool Lit(std::string_view text) {
    if (in_.substr(pos_, text.size()) != text) {
      return false;
    }
    pos_ += text.size();
    return true;
  }
  // "0", or digits with no leading zero (from_chars takes no sign).
  template <class T>
  bool Num(T& v) {
    const char* first = in_.data() + pos_;
    const char* last = in_.data() + in_.size();
    uint64_t x = 0;
    auto [end, ec] = std::from_chars(first, first != last && *first == '0' ? first + 1 : last, x);
    if (ec != std::errc() || x > std::numeric_limits<T>::max()) {
      return false;
    }
    pos_ += static_cast<size_t>(end - first);
    v = static_cast<T>(x);
    return true;
  }
  template <class E>
  bool Enum(E& v, E max) {
    uint64_t x = 0;
    if (!Num(x) || x > static_cast<uint64_t>(max)) {
      return false;
    }
    v = static_cast<E>(x);
    return true;
  }
  bool Bool(bool& v) { return (v = Lit("true")) || Lit("false"); }
  bool Bit(bool& v) { return (v = Lit("1")) || Lit("0"); }
  // Exactly the escapes JsonAppendQuoted writes; a raw control byte fails.
  bool Str(std::string& v) {
    if (!Lit("\"")) {
      return false;
    }
    v.clear();
    for (;;) {
      size_t run = pos_;
      while (run < in_.size() && in_[run] != '"' && in_[run] != '\\' &&
             static_cast<unsigned char>(in_[run]) >= 0x20) {
        ++run;
      }
      v.append(in_.substr(pos_, run - pos_));
      pos_ = run;
      if (pos_ == in_.size()) {
        return false;
      }
      const char c = in_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\' || pos_ == in_.size()) {  // a raw control byte or a cut escape
        return false;
      }
      const char esc = in_[pos_++];
      if (esc == '"' || esc == '\\') {
        v.push_back(esc);
      } else if (esc == 'n' || esc == 't' || esc == 'r') {
        v.push_back(esc == 'n' ? '\n' : esc == 't' ? '\t' : '\r');
      } else if (esc == 'u' && in_.size() - pos_ >= 4 && in_.substr(pos_, 2) == "00") {
        // \u00xx in lowercase hex: every control byte without a short escape.
        constexpr std::string_view kHex = "0123456789abcdef";
        const size_t hi = kHex.find(in_[pos_ + 2]);
        const size_t lo = kHex.find(in_[pos_ + 3]);
        const char byte = static_cast<char>(hi * 16 + lo);
        if (hi > 1 || lo == std::string_view::npos || byte == '\n' || byte == '\t' ||
            byte == '\r') {
          return false;
        }
        v.push_back(byte);
        pos_ += 4;
      } else {
        return false;
      }
    }
  }
  bool Exact(double& v) {
    if (in_.size() - pos_ < 19 || in_[pos_] != '"' || in_[pos_ + 18] != '"' ||
        !DecodeExactDouble(in_.substr(pos_ + 1, 17), &v)) {
      return false;
    }
    pos_ += 19;
    return true;
  }
  bool Opt(std::string_view key, bool& present) { return present = Lit(key); }
  // Appends to |items|, which starts empty.
  template <class T, class F>
  bool List(std::vector<T>& items, F each) {
    if (!Lit("[")) {
      return false;
    }
    if (Lit("]")) {
      return true;
    }
    do {
      if (!each(items.emplace_back())) {
        return false;
      }
    } while (Lit(","));
    return Lit("]");
  }
  template <class T>
  bool List(std::vector<T>& items) {
    return List(items, [this](T& item) { return Fields(*this, item); });
  }
  // A metrics map: [name,<value>] entries with names strictly ascending, as
  // the registry's maps order them. |value| reads one entry under |name|.
  template <class F>
  bool Entries(F value) {
    if (!Lit("[")) {
      return false;
    }
    if (Lit("]")) {
      return true;
    }
    std::string name;
    std::string prev;
    bool first = true;
    do {
      if (!Lit("[") || !Str(name) || (!first && name <= prev) || !Lit(",") || !value(name) ||
          !Lit("]")) {
        return false;
      }
      prev.swap(name);
      first = false;
    } while (Lit(","));
    return Lit("]");
  }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

// A field list's record: const when writing.
template <class IO, class T>
using Rec = std::conditional_t<IO::kWrites, const T, T>;

// Raw samples ride only in EncodeExperimentResult. No record holds them, so
// nothing reads them.
bool Samples(Reader&, const EpochResult&) { return true; }
bool Samples(Writer& w, const EpochResult& epoch) {
  return !w.samples ||
         (w.Lit(",\"samples\":") && w.List(epoch.samples, [&](const RequestSample& s) {
           return w.Lit("[") && w.Num(s.client_id) && w.Lit(",") &&
                  w.Num(static_cast<uint64_t>(s.code)) && w.Lit(",") && w.Exact(s.bytes) &&
                  w.Lit(",") && w.Exact(s.response_time) && w.Lit(",") && w.Exact(s.normalized) &&
                  w.Lit(",") && w.Bit(s.timed_out) && w.Lit("]");
         }));
}

template <class IO>
bool Fields(IO& io, Rec<IO, EpochResult>& e) {
  return io.Lit(R"({"crowd":)") && io.Num(e.crowd_size) && io.Lit(R"(,"received":)") &&
         io.Num(e.samples_received) && io.Lit(R"(,"expected":)") && io.Num(e.samples_expected) &&
         io.Lit(R"(,"metric":)") && io.Exact(e.metric) && io.Lit(R"(,"exceeded":)") &&
         io.Bool(e.exceeded_threshold) && io.Lit(R"(,"check":)") && io.Bool(e.check_phase) &&
         io.Lit(R"(,"requeued":)") && io.Bool(e.requeued) && Samples(io, e) && io.Lit("}");
}

template <class IO>
bool Fields(IO& io, Rec<IO, StageResult>& s) {
  return io.Lit(R"({"kind":)") && io.Enum(s.kind, StageKind::kLargeObject) &&
         io.Lit(R"(,"stopped":)") && io.Bool(s.stopped) && io.Lit(R"(,"stop_at":)") &&
         io.Num(s.stopping_crowd_size) && io.Lit(R"(,"max_tested":)") &&
         io.Num(s.max_crowd_tested) && io.Lit(R"(,"end_reason":)") &&
         io.Enum(s.end_reason, StageEndReason::kQuorumFailed) && io.Lit(R"(,"end_detail":)") &&
         io.Str(s.end_detail) && io.Lit(R"(,"total_requests":)") && io.Num(s.total_requests) &&
         io.Lit(R"(,"started":)") && io.Exact(s.started) && io.Lit(R"(,"finished":)") &&
         io.Exact(s.finished) && io.Lit(R"(,"epochs":)") && io.List(s.epochs) && io.Lit("}");
}

template <class IO>
bool Fields(IO& io, Rec<IO, ExperimentResult>& r) {
  return io.Lit(R"({"aborted":)") && io.Bool(r.aborted) && io.Lit(R"(,"abort_reason":)") &&
         io.Str(r.abort_reason) && io.Lit(R"(,"registered_clients":)") &&
         io.Num(r.registered_clients) && io.Lit(R"(,"stages":)") && io.List(r.stages) &&
         io.Lit("}");
}

template <class IO>
bool Fields(IO& io, Rec<IO, TraceSpan>& s) {
  return io.Lit("[") && io.Num(s.id) && io.Lit(",") && io.Num(s.parent) && io.Lit(",") &&
         io.Str(s.name) && io.Lit(",") && io.Str(s.category) && io.Lit(",") && io.Exact(s.start) &&
         io.Lit(",") && io.Exact(s.end) && io.Lit(",") && io.Bit(s.open) && io.Lit(",") &&
         io.Num(s.pid) && io.Lit(",") && io.Num(s.track) && io.Lit(",") &&
         io.List(s.attrs,
                 [&](auto& attr) {
                   return io.Lit("[") && io.Str(attr.first) && io.Lit(",") &&
                          io.Str(attr.second) && io.Lit("]");
                 }) &&
         io.Lit("]");
}

// The metrics registry is written from its maps and restored through its
// slots, so it is one writer and one reader over the same primitives.
// Counters are restored by assignment: adding to 0.0 would turn -0.0 into
// +0.0. Histogram edges are strictly ascending, as the histogram keeps them.
bool Fields(Writer& w, const MetricsRegistry& m) {
  auto exact = [&](double v) { return w.Exact(v); };
  auto summary = [&](const RunningStats& s) {
    return w.Num(s.Count()) && w.Lit(",") && w.Exact(s.Mean()) && w.Lit(",") &&
           w.Exact(s.M2()) && w.Lit(",") && w.Exact(s.MinValue()) && w.Lit(",") &&
           w.Exact(s.MaxValue());
  };
  auto hist = [&](const Histogram& h) {
    return w.List(h.Edges(), exact) && w.Lit(",") &&
           w.List(h.Counts(), [&](size_t c) { return w.Num(c); });
  };
  return w.Lit(R"({"counters":)") && w.Entries(m.Counters(), exact) &&
         w.Lit(R"(,"gauges":)") && w.Entries(m.Gauges(), exact) &&
         w.Lit(R"(,"summaries":)") && w.Entries(m.Summaries(), summary) &&
         w.Lit(R"(,"hists":)") && w.Entries(m.Histograms(), hist) && w.Lit("}");
}

bool Fields(Reader& r, MetricsRegistry& m) {
  auto counter = [&](const std::string& name) { return r.Exact(m.CounterSlot(name)); };
  auto gauge = [&](const std::string& name) {
    double v = 0.0;
    if (!r.Exact(v)) {
      return false;
    }
    m.Set(name, v);
    return true;
  };
  auto summary = [&](const std::string& name) {
    size_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
    if (!r.Num(count) || !r.Lit(",") || !r.Exact(mean) || !r.Lit(",") || !r.Exact(m2) ||
        !r.Lit(",") || !r.Exact(min) || !r.Lit(",") || !r.Exact(max)) {
      return false;
    }
    m.RestoreSummary(name, RunningStats::FromParts(count, mean, m2, min, max));
    return true;
  };
  auto hist = [&](const std::string& name) {
    std::vector<double> edges;
    std::vector<size_t> counts;
    if (!r.List(edges, [&](double& e) { return r.Exact(e); }) || !r.Lit(",") ||
        !r.List(counts, [&](size_t& c) { return r.Num(c); }) ||
        counts.size() != edges.size() + 1 ||
        std::adjacent_find(edges.begin(), edges.end(),
                           [](double a, double b) { return !(a < b); }) != edges.end()) {
      return false;
    }
    m.RestoreHist(name, Histogram::FromParts(std::move(edges), std::move(counts)));
    return true;
  };
  return r.Lit(R"({"counters":)") && r.Entries(counter) && r.Lit(R"(,"gauges":)") &&
         r.Entries(gauge) && r.Lit(R"(,"summaries":)") && r.Entries(summary) &&
         r.Lit(R"(,"hists":)") && r.Entries(hist) && r.Lit("}");
}

// The first record. Its reader tells a foreign file (no magic), another
// version and a malformed header apart, so |version| starts at this version:
// a header whose version cannot be read is malformed, not another version's.
struct JournalHeader {
  std::string magic;
  uint64_t version = kJournalVersion;
  std::string tool;
  std::string fingerprint;
};

template <class IO>
bool Fields(IO& io, Rec<IO, JournalHeader>& h) {
  return io.Lit(R"({"type":"header","magic":)") && io.Str(h.magic) &&
         io.Lit(R"(,"version":)") && io.Num(h.version) && io.Lit(R"(,"tool":)") &&
         io.Str(h.tool) && io.Lit(R"(,"fingerprint":)") && io.Str(h.fingerprint) &&
         io.Lit("}");
}

template <class IO>
bool Fields(IO& io, Rec<IO, JournalCohortRecord>& c) {
  return io.Lit(R"({"type":"cohort","ordinal":)") && io.Num(c.ordinal) &&
         io.Lit(R"(,"cohort":)") && io.Enum(c.cohort, Cohort::kLongTail) &&
         io.Lit(R"(,"stage":)") && io.Enum(c.stage, StageKind::kLargeObject) &&
         io.Lit(R"(,"servers":)") && io.Num(c.servers) && io.Lit(R"(,"max_crowd":)") &&
         io.Num(c.max_crowd) && io.Lit(R"(,"seed":)") && io.Num(c.seed) &&
         io.Lit(R"(,"pid_base":)") && io.Num(c.pid_base) && io.Lit(R"(,"shards":)") &&
         io.Num(c.shards) && io.Lit(R"(,"shard_index":)") && io.Num(c.shard_index) &&
         io.Lit("}");
}

template <class IO>
bool Fields(IO& io, Rec<IO, JournalSiteRecord>& s) {
  return io.Lit(R"({"type":"site","cohort":)") && io.Num(s.cohort_ordinal) &&
         io.Lit(R"(,"index":)") && io.Num(s.site_index) && io.Lit(R"(,"seed":)") &&
         io.Num(s.seed) && io.Lit(R"(,"stage":)") && io.Enum(s.stage, StageKind::kLargeObject) &&
         io.Lit(R"(,"pid":)") && io.Num(s.pid) && io.Lit(R"(,"result":)") &&
         Fields(io, s.result) &&
         (!io.Opt(R"(,"trace":)", s.has_trace) || io.List(s.trace_spans)) &&
         (!io.Opt(R"(,"metrics":)", s.has_metrics) || Fields(io, s.metrics)) && io.Lit("}");
}

template <class IO>
bool Fields(IO& io, Rec<IO, JournalQuarantineRecord>& q) {
  return io.Lit(R"({"type":"quarantine","cohort":)") && io.Num(q.cohort_ordinal) &&
         io.Lit(R"(,"index":)") && io.Num(q.site_index) && io.Lit(R"(,"crashes":)") &&
         io.Num(q.crashes) && io.Lit(R"(,"signature":)") && io.Str(q.signature) &&
         io.Lit("}");
}

template <class T>
std::string Encode(const T& value, bool samples = false) {
  std::string out;
  Writer writer(out, samples);
  Fields(writer, value);
  return out;
}

// Reads all of |text| into |out|, which starts default-constructed.
template <class T>
bool Decode(std::string_view text, T& out) {
  Reader reader(text);
  return Fields(reader, out) && reader.Done();
}

}  // namespace

std::string EncodeExperimentResult(const ExperimentResult& result) {
  return Encode(result, /*samples=*/true);
}

std::string EncodeExperimentSummary(const ExperimentResult& result) { return Encode(result); }

bool DecodeExperimentSummary(std::string_view text, ExperimentResult* out) {
  *out = ExperimentResult{};
  return Decode(text, *out);
}

std::string EncodeTraceSpans(const std::vector<TraceSpan>& spans) {
  std::string out;
  Writer writer(out);
  writer.List(spans);
  return out;
}

bool DecodeTraceSpans(std::string_view text, std::vector<TraceSpan>* out) {
  out->clear();
  Reader reader(text);
  return reader.List(*out) && reader.Done();
}

std::string EncodeMetrics(const MetricsRegistry& metrics) { return Encode(metrics); }

bool DecodeMetrics(std::string_view text, MetricsRegistry* out) {
  *out = MetricsRegistry{};
  return Decode(text, *out);
}

std::string EncodeCohortRecord(const JournalCohortRecord& record) { return Encode(record); }

std::string EncodeSiteRecord(const JournalSiteRecord& record) { return Encode(record); }

std::string EncodeQuarantineRecord(const JournalQuarantineRecord& record) {
  return Encode(record);
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
  auto corrupt = [&](const std::string& what) {
    scan->corrupt = "record " + std::to_string(record_index) + ": " + what;
  };
  while (pos < contents.size() && scan->corrupt.empty()) {
    size_t newline = contents.find('\n', pos);
    if (newline == std::string::npos) {
      scan->corrupt = "truncated tail record (no trailing newline)";
      break;
    }
    std::string_view body;
    if (!UnframeLine(std::string_view(contents.data() + pos, newline - pos), &body)) {
      corrupt("bad frame or checksum");
      break;
    }
    std::string type;
    if (Reader peek(body); !peek.Lit(R"({"type":)") || !peek.Str(type)) {
      corrupt("missing type");
      break;
    }
    if (record_index == 0) {
      // Header mismatches are hard errors, not recoverable corruption: the
      // file is either not a journal or from an incompatible writer.
      JournalHeader header;
      const bool canonical = Decode(body, header);
      if (header.magic != kMagic) {
        scan->hard_error = path + ": not an mfc journal";
        return;
      }
      if (header.version != kJournalVersion) {
        scan->hard_error = path + ": journal version " + std::to_string(header.version) +
                           " != " + std::to_string(kJournalVersion);
        return;
      }
      if (!canonical) {
        scan->hard_error = path + ": malformed journal header";
        return;
      }
      scan->data.tool = std::move(header.tool);
      scan->data.fingerprint = std::move(header.fingerprint);
      scan->saw_header = true;
    } else if (type == "cohort") {
      JournalCohortRecord record;
      if (!Decode(body, record) || record.shards == 0 || record.shard_index >= record.shards ||
          record.ordinal != scan->data.cohorts.size()) {
        corrupt("malformed cohort record");
        break;
      }
      scan->data.cohorts.push_back(record);
    } else if (type == "site") {
      JournalSiteRecord record;
      if (!Decode(body, record)) {
        corrupt("malformed site record");
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
          corrupt("site record inconsistent with its cohort");
          break;
        }
      }
      auto key = std::make_pair(record.cohort_ordinal, record.site_index);
      if (scan->data.quarantines.count(key) != 0) {
        // A quarantined site must never execute: a site record after the
        // quarantine means two writers disagreed about this journal.
        corrupt("site record for a quarantined site");
        break;
      }
      if (!scan->data.sites.emplace(key, std::move(record)).second) {
        corrupt("duplicate site record");
        break;
      }
    } else if (type == "quarantine") {
      JournalQuarantineRecord record;
      if (!Decode(body, record) || record.crashes == 0) {
        corrupt("malformed quarantine record");
        break;
      }
      if (record.cohort_ordinal < scan->data.cohorts.size()) {
        const JournalCohortRecord& cohort = scan->data.cohorts[record.cohort_ordinal];
        if (record.site_index >= cohort.servers ||
            record.site_index % cohort.shards != cohort.shard_index) {
          corrupt("quarantine record inconsistent with its cohort");
          break;
        }
      }
      auto key = std::make_pair(record.cohort_ordinal, record.site_index);
      if (scan->data.sites.count(key) != 0) {
        corrupt("quarantine for an already-executed site");
        break;
      }
      if (!scan->data.quarantines.emplace(key, std::move(record)).second) {
        corrupt("duplicate quarantine record");
        break;
      }
    } else {
      corrupt("unknown type \"" + type + "\"");
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
    journal->AppendFrameLocked(Encode(JournalHeader{kMagic, kJournalVersion, tool, fingerprint}),
                               /*sync_now=*/true);
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
  auto it = data_.quarantines.find(std::make_pair(ordinal, index));
  return it == data_.quarantines.end() ? nullptr : &it->second;
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
        scan.data.sites.count(key) != 0 || scan.data.quarantines.count(key) != 0;
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
