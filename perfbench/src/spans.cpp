#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(capacity);
  open_.reserve(16);
}

std::int32_t SpanRecorder::open(const char* name, std::uint64_t frame) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  Span s;
  s.name = name;
  s.frame = frame;
  s.parent = open_.empty() ? kNoParent : open_.back();
  s.start_ns = to_ns(std::chrono::steady_clock::now());
  spans_.push_back(s);
  open_.push_back(id);
  return id;
}

void SpanRecorder::close() {
  spans_[static_cast<std::size_t>(open_.back())].end_ns =
      to_ns(std::chrono::steady_clock::now());
  open_.pop_back();
}

void SpanRecorder::record(const char* name,
                          std::chrono::steady_clock::time_point start,
                          std::chrono::steady_clock::time_point end,
                          std::uint64_t frame) {
  Span s;
  s.name = name;
  s.frame = frame;
  s.start_ns = to_ns(start);
  s.end_ns = to_ns(end);
  spans_.push_back(s);
}

std::map<std::string, SpanRecorder::Self> SpanRecorder::self_times() const {
  // Children close before their parent, and siblings never overlap on one
  // thread, so subtracting each child's duration from its parent is exact.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != kNoParent) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, Self> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Self& s = out[spans_[i].name];
    ++s.count;
    s.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"frame\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<unsigned long long>(s.frame));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
