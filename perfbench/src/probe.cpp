#include "probe.hpp"

#include <algorithm>
#include <array>
#include <chrono>

namespace perfbench {

namespace {

constexpr int kDim = 16;          // complex GEMM size
constexpr int kGemmsPerUnit = 8;
constexpr int kSortsPerUnit = 24;
constexpr std::size_t kSortLen = 256;

struct SplitMat {
  std::array<double, kDim * kDim> re{};
  std::array<double, kDim * kDim> im{};
};

// Small-integer entries in [-4, 4]: every product and sum stays an exact
// integer in double, so the checksum does not depend on operation order.
void fill(SplitMat& m, std::uint32_t state) {
  for (int i = 0; i < kDim * kDim; ++i) {
    state = state * 1664525u + 1013904223u;
    m.re[i] = static_cast<double>(static_cast<int>((state >> 24) % 9) - 4);
    state = state * 1664525u + 1013904223u;
    m.im[i] = static_cast<double>(static_cast<int>((state >> 24) % 9) - 4);
  }
}

[[gnu::always_inline]] inline void gemm_body(const SplitMat& a,
                                             const SplitMat& b, SplitMat& c) {
  for (int i = 0; i < kDim; ++i) {
    double cr[kDim] = {};
    double ci[kDim] = {};
    for (int k = 0; k < kDim; ++k) {
      const double ar = a.re[i * kDim + k];
      const double ai = a.im[i * kDim + k];
      for (int j = 0; j < kDim; ++j) {
        cr[j] += ar * b.re[k * kDim + j] - ai * b.im[k * kDim + j];
        ci[j] += ar * b.im[k * kDim + j] + ai * b.re[k * kDim + j];
      }
    }
    for (int j = 0; j < kDim; ++j) {
      c.re[i * kDim + j] = cr[j];
      c.im[i * kDim + j] = ci[j];
    }
  }
}

// The decoders' GEMM kernels run on AVX2 where the CPU has it, so the probe's
// GEMM does too: both then load the same execution units. The arithmetic
// (and so the checksum) is identical either way.
[[gnu::target("avx2")]] void gemm_avx2(const SplitMat& a, const SplitMat& b,
                                       SplitMat& c) {
  gemm_body(a, b, c);
}

void gemm_default(const SplitMat& a, const SplitMat& b, SplitMat& c) {
  gemm_body(a, b, c);
}

void gemm(const SplitMat& a, const SplitMat& b, SplitMat& c) {
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  (avx2 ? gemm_avx2 : gemm_default)(a, b, c);
}

// Branchy, cache-resident integer work: sorts of pseudo-random keys.
std::uint64_t sort_keys(std::uint32_t state) {
  std::array<std::uint32_t, kSortLen> keys{};
  std::uint64_t sum = 0;
  for (int r = 0; r < kSortsPerUnit; ++r) {
    for (std::uint32_t& k : keys) {
      state = state * 1664525u + 1013904223u;
      k = state >> 8;
    }
    std::sort(keys.begin(), keys.end());
    sum += keys[static_cast<std::size_t>(r) * 7 % kSortLen];
  }
  return sum;
}

}  // namespace

std::uint64_t probe_kernel(unsigned units) {
  SplitMat a, b, c;
  std::uint64_t sum = 0;
  for (unsigned u = 0; u < units; ++u) {
    for (int g = 0; g < kGemmsPerUnit; ++g) {
      const auto s = static_cast<std::uint32_t>(u * kGemmsPerUnit + g);
      fill(a, 2 * s + 1);
      fill(b, 2 * s + 2);
      gemm(a, b, c);
      for (int i = 0; i < kDim * kDim; ++i) {
        sum += static_cast<std::uint64_t>(static_cast<std::int64_t>(c.re[i]));
        sum += static_cast<std::uint64_t>(static_cast<std::int64_t>(c.im[i])) *
               3u;
      }
    }
    sum += sort_keys(u * 2654435761u + 1u);
  }
  return sum;
}

double probe_rate() {
  using Clock = std::chrono::steady_clock;
  constexpr unsigned kUnits = 4;
  constexpr int kRepeats = 5;
  std::array<double, kRepeats> rates{};
  volatile std::uint64_t sink = 0;
  for (double& r : rates) {
    const Clock::time_point t0 = Clock::now();
    sink = sink + probe_kernel(kUnits);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    r = kUnits / s;
  }
  std::sort(rates.begin(), rates.end());
  return rates[kRepeats / 2];
}

}  // namespace perfbench
