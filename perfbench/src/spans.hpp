// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own thread around its calls into
// the libraries' public functions — no span lives inside src/. Each span has
// a name, start, end, parent span and frame id; a layer's time is the self
// time of its spans (duration minus the part its child spans cover). The
// recorder is single-threaded by design: only the client thread records.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name = nullptr;  ///< static storage (a literal)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = kNoParent;
    std::uint64_t frame = 0;
  };

  struct Self {
    std::uint64_t count = 0;
    double self_s = 0.0;
  };

  explicit SpanRecorder(std::size_t capacity);

  /// Opens a span and returns its id. The innermost open span is the parent.
  std::int32_t open(const char* name, std::uint64_t frame);
  /// Closes the innermost open span.
  void close();

  /// Records an already finished root span — for spans that overlap on one
  /// thread, like the in-flight frames of a pipelined client.
  void record(const char* name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, std::uint64_t frame);

  /// RAII open/close.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint64_t frame)
        : rec_(rec) {
      rec_.open(name, frame);
    }
    ~Scope() { rec_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time and count per span name.
  [[nodiscard]] std::map<std::string, Self> self_times() const;

  /// Writes the spans as a chrome-trace JSON file ("X" events; args carry
  /// the frame id and parent span id). Returns false on an IO error.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t to_ns(
      std::chrono::steady_clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span ids
};

}  // namespace perfbench
