// Span recorder for the traced run. The benchmark wraps spans around
// its own calls into each module's public functions; nothing inside the
// library is instrumented. Spans stay in memory until the run ends.
// Single-threaded: the traced decomposition runs serially.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady_clock, relative to the recorder
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at root
  std::uint64_t request = 0;
};

class TraceRecorder {
 public:
  TraceRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open one; returns its
  /// index for end().
  std::size_t begin(std::string name, std::uint64_t request);
  void end(std::size_t index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Per-name totals: span time and self time (span time minus the
  /// part covered by direct children), in seconds, and span counts.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, std::string name,
             std::uint64_t request)
      : recorder_(recorder),
        index_(recorder ? recorder->begin(std::move(name), request) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench
