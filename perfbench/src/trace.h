// In-memory span recorder for the traced run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// each layer's public functions; nothing inside the library is touched. A
// span has a name of the form "<layer>.<op>" (e.g. "core.merger.run"), a
// start and end time, the span that was open on the same thread when it
// began (its parent), and the id of the request it belongs to. Self time is
// a span's duration minus the part of it its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    double start_ms = 0.0;  // since the tracer was created
    double end_ms = -1.0;   // < 0 while open
    int parent = -1;
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  int Begin(const std::string& name, uint64_t request);
  void End(int id);

  /// Copy of every span recorded so far.
  std::vector<SpanRecord> Spans() const;

  /// Durations (ms) of every closed span with this name, in order.
  std::vector<double> Durations(const std::string& name) const;

  /// Summed duration (ms) of the closed direct children of span `id`.
  double ChildMs(int id) const;

  /// Self time (ms) summed per layer over the closed spans. A span's layer
  /// is its name minus the last ".op" component.
  std::map<std::string, double> SelfMsByLayer() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  /// Milliseconds since the tracer was created.
  double NowMs() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// \brief RAII span; a no-op on a disabled tracer (or a null one).
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, uint64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The span's id in its tracer (-1 when not recorded).
  int id() const { return id_; }

  /// Ends the span early (idempotent).
  void Close() {
    if (id_ >= 0) tracer_->End(id_);
    id_ = -1;
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
