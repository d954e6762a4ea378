#include "trace.h"

#include <cstdio>

#include "common/json.h"

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last: the parent of the next
// span that thread opens.
thread_local std::vector<int> t_open_spans;

std::string LayerOf(const std::string& name) {
  const size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, uint64_t request) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  span.start_ms = NowMs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  t_open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ms = NowMs();
  }
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
}

std::vector<Tracer::SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& span : spans_) {
    if (span.name == name && span.end_ms >= 0.0) {
      out.push_back(span.end_ms - span.start_ms);
    }
  }
  return out;
}

double Tracer::ChildMs(int id) const {
  double total = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& span : spans_) {
    if (span.parent == id && id >= 0 && span.end_ms >= 0.0) {
      total += span.end_ms - span.start_ms;
    }
  }
  return total;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  const std::vector<SpanRecord> spans = Spans();
  // Children of one parent run on the parent's thread one after another,
  // so the part of a parent they cover is the sum of their durations.
  std::vector<double> covered(spans.size(), 0.0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0 && span.end_ms >= 0.0) {
      covered[static_cast<size_t>(span.parent)] += span.end_ms - span.start_ms;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.end_ms < 0.0) continue;
    self[LayerOf(span.name)] += span.end_ms - span.start_ms - covered[i];
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& span : Spans()) {
    scorpion::JsonValue line = scorpion::JsonValue::Object();
    line.Add("name", scorpion::JsonValue::String(span.name));
    line.Add("start_ms", scorpion::JsonValue::Number(span.start_ms));
    line.Add("end_ms", scorpion::JsonValue::Number(span.end_ms));
    line.Add("parent", scorpion::JsonValue::Number(span.parent));
    line.Add("request",
             scorpion::JsonValue::Number(static_cast<double>(span.request)));
    std::fprintf(f, "%s\n", line.Dump().c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
