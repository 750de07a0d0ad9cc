// Self-checks of the benchmark's own machinery, run with
//   python3 perfbench/run.py --selftest
//
//  - the host-speed probe does a fixed amount of work: its exact checksum is
//    pinned, so an edit that changes the kernel (and so the meaning of
//    kNominalRate) fails here;
//  - frame generation is a function of the seed: the same seed gives a
//    byte-identical wire stream, a different seed a different one;
//  - span self time is duration minus the time covered by children.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "probe.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

constexpr std::uint64_t kProbeChecksum3 = 374737126ull;

void probe_checksum() {
  const std::uint64_t sum = perfbench::probe_kernel(3);
  std::printf("      probe_kernel(3) checksum = %llu\n",
              static_cast<unsigned long long>(sum));
  check(sum == kProbeChecksum3, "probe kernel checksum is pinned");
  check(perfbench::probe_kernel(3) == sum, "probe kernel is deterministic");
}

void seeded_generation() {
  for (const perfbench::WorkloadConfig& w : perfbench::workloads()) {
    const auto n = w.pool_frames;
    const auto a = perfbench::encode_stream(perfbench::generate_pool(w, 7), n);
    const auto b = perfbench::encode_stream(perfbench::generate_pool(w, 7), n);
    const auto c = perfbench::encode_stream(perfbench::generate_pool(w, 8), n);
    std::printf("      %s: %zu frames, %zu bytes\n", std::string(w.name).c_str(),
                n, a.size());
    check(!a.empty() && a == b, "same seed gives a byte-identical stream");
    check(a != c, "different seed gives a different stream");
  }
}

void span_self_time() {
  perfbench::SpanRecorder rec(8);
  rec.open("root", 1);
  rec.open("child", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rec.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  rec.close();
  const auto self = rec.self_times();
  const auto& spans = rec.spans();
  check(spans.size() == 2 && spans[1].parent == 0 && spans[0].parent == -1,
        "child span records its parent");
  const double root_dur =
      static_cast<double>(spans[0].end_ns - spans[0].start_ns) * 1e-9;
  const double child_dur =
      static_cast<double>(spans[1].end_ns - spans[1].start_ns) * 1e-9;
  check(self.at("child").self_s == child_dur && child_dur >= 0.02,
        "leaf self time is its duration");
  check(std::abs(self.at("root").self_s - (root_dur - child_dur)) < 1e-12,
        "root self time excludes its child");
}

}  // namespace

int main() {
  probe_checksum();
  seeded_generation();
  span_self_time();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
