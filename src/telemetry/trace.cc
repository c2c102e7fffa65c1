#include "src/telemetry/trace.h"

#include <cstdio>

namespace mfc {
namespace {

std::string FormatDouble(double v) {
  char buf[40];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

SpanId Tracer::StartSpan(std::string name, std::string category, SpanId parent, SimTime at) {
  TraceSpan span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = std::move(name);
  span.category = std::move(category);
  span.start = at;
  span.end = at;
  span.track = (parent != 0 && parent <= spans_.size()) ? spans_[parent - 1].track : span.id;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::EndSpan(SpanId id, SimTime at) {
  if (id == 0 || id > spans_.size()) {
    return;
  }
  TraceSpan& span = spans_[id - 1];
  span.end = at;
  span.open = false;
}

void Tracer::Attr(SpanId id, std::string key, std::string value) {
  if (id == 0 || id > spans_.size()) {
    return;
  }
  spans_[id - 1].attrs.emplace_back(std::move(key), std::move(value));
}

void Tracer::Attr(SpanId id, std::string key, double value) {
  Attr(id, std::move(key), FormatDouble(value));
}

void Tracer::Attr(SpanId id, std::string key, uint64_t value) {
  Attr(id, std::move(key), std::to_string(value));
}

void Tracer::MergeFrom(const std::vector<TraceSpan>& spans, uint64_t pid) {
  SpanId offset = next_id_ - 1;
  // No reserve: an exact one per merged site reallocates the whole merged
  // trace every time, which makes a survey's fold quadratic in its spans.
  for (const TraceSpan& span : spans) {
    TraceSpan copy = span;
    copy.id += offset;
    if (copy.parent != 0) {
      copy.parent += offset;
    }
    copy.track += offset;
    copy.pid = pid;
    spans_.push_back(std::move(copy));
  }
  next_id_ += spans.size();
}

std::vector<const TraceSpan*> Tracer::Named(const std::string& name) const {
  std::vector<const TraceSpan*> out;
  for (const TraceSpan& span : spans_) {
    if (span.name == name) {
      out.push_back(&span);
    }
  }
  return out;
}

}  // namespace mfc
