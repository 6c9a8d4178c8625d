#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::size_t TraceRecorder::begin(std::string name, std::uint64_t request) {
  SpanRecord span;
  span.name = std::move(name);
  span.request = request;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void TraceRecorder::end(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("TraceRecorder: spans must close innermost first");
  }
  open_.pop_back();
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - origin_)
                             .count();
}

std::map<std::string, TraceRecorder::Totals> TraceRecorder::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto duration = spans_[i].end_ns - spans_[i].start_ns;
    auto& t = out[spans_[i].name];
    t.total_s += static_cast<double>(duration) * 1e-9;
    t.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

void TraceRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("TraceRecorder: cannot open " + path);
  for (const auto& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

}  // namespace perfbench
