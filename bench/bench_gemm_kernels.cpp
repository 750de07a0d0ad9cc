// CPU GEMM kernel A/B microbenchmark: scalar vs split-complex SoA, full
// block vs row 0, over the shapes the GEMM decoders issue. The paper's
// level-wide evaluation product is k x (f*p) x k (k = remaining levels,
// f = frontier width, p = constellation order); the decoders run only its
// row 0, a 1 x (f*p) x k product, because the PD loop reads nothing else.
// The full shape remains the paper's CPU baseline and the flop accounting.
// Both packed kernels are entered directly (no small-shape dispatch), so
// this measures exactly what gemm_packed resolves to.
//
// Emits BENCH_gemm_kernels.json; tools/validate_bench_json.py gates on the
// SoA kernel not regressing against scalar at the three largest shapes.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

#include "common/random.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "linalg/gemm.hpp"

namespace {

using namespace sd;

CMat random_mat(index_t r, index_t c, std::uint64_t seed) {
  GaussianSource g(seed);
  CMat m(r, c);
  for (cplx& v : m.flat()) v = g.next_cplx(1.0);
  return m;
}

/// Best-of-`kReps` wall-clock seconds for one call of `fn`, amortized over
/// `iters` back-to-back calls per measurement (plus one warm-up call that
/// also grows the packing workspace to its high-water mark).
template <typename Fn>
double time_best_of(Fn&& fn, usize iters) {
  constexpr int kReps = 5;
  fn();  // warm-up: touch operands, grow the workspace arena
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer t;
    for (usize i = 0; i < iters; ++i) fn();
    best = std::min(best, t.elapsed_seconds() / static_cast<double>(iters));
  }
  return best;
}

std::string us(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1e6);
  return buf;
}

std::string ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

}  // namespace

int main() {
  const usize trials = sd::bench::trials_or(32);
  sd::bench::open_report("gemm_kernels");
  sd::bench::print_banner(
      "GEMM kernel A/B: scalar vs split-complex SoA on decoder level shapes",
      "k x (f*p) x k level products + 1 x (f*p) x k row-0 mode", trials);

  const bool soa = gemm_soa_available();
  const char* active =
      active_gemm_kernel() == GemmKernel::kSoa ? "soa" : "scalar";
  sd::bench::report().config("soa_available", soa);
  sd::bench::report().config("active_kernel", active);

  // (k, f*p) level-product shapes: sibling batches for small frontiers up to
  // the full 16-QAM BFS level batch the paper's Fig. 10 configuration hits.
  struct Shape {
    index_t k;
    index_t cols;
  };
  const Shape shapes[] = {{4, 64},  {4, 1024},  {4, 4096},  {6, 4096},
                          {10, 64}, {10, 1024}, {10, 4096}, {10, 16384}};

  Table table({"shape (m x n x k)", "scalar us", "soa us", "soa speedup",
               "row0 us", "row0 vs full"});
  GemmWorkspace ws;

  for (const Shape& sh : shapes) {
    const index_t k = sh.k;
    const index_t n = sh.cols;
    const CMat a = random_mat(k, k, 1000 + static_cast<std::uint64_t>(k));
    const CMat a_row0 = random_mat(1, k, 2000 + static_cast<std::uint64_t>(k));
    const CMat b = random_mat(k, n, 3000 + static_cast<std::uint64_t>(n));
    CMat c(k, n);
    CMat c_row0(1, n);

    // Keep total work roughly constant across shapes so SD_TRIALS=1 smoke
    // runs stay fast and default runs stay stable on small shapes.
    const std::uint64_t vol = static_cast<std::uint64_t>(k) * n * k;
    const usize iters = std::max<usize>(
        1, static_cast<usize>(trials * 200000 / std::max<std::uint64_t>(
                                                    vol, 1)));

    const double scalar_s = time_best_of(
        [&] {
          gemm_packed_scalar(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c, ws);
        },
        iters);
    const double soa_s =
        soa ? time_best_of(
                  [&] {
                    gemm_packed_soa(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0},
                                    c, ws);
                  },
                  iters)
            : 0.0;
    // Row-0 mode runs whatever kernel is active, like the decoders do.
    const double row0_s = time_best_of(
        [&] {
          gemm_packed(Op::kNone, cplx{1, 0}, a_row0, b, cplx{0, 0}, c_row0,
                      ws);
        },
        iters);

    const double full_active_s = soa ? soa_s : scalar_s;
    const double soa_speedup = soa ? scalar_s / soa_s : 0.0;
    const double row0_speedup = full_active_s / row0_s;

    const std::string shape_label = std::to_string(k) + " x " +
                                    std::to_string(n) + " x " +
                                    std::to_string(k);
    table.add_row({shape_label, us(scalar_s), soa ? us(soa_s) : "n/a",
                   soa ? ratio(soa_speedup) : "n/a", us(row0_s),
                   ratio(row0_speedup)});

    const double flops = static_cast<double>(gemm_flops(k, n, k));
    sd::bench::report().row(
        "kernels", {{"kernel", "scalar"},
                    {"m", static_cast<std::int64_t>(k)},
                    {"n", static_cast<std::int64_t>(n)},
                    {"k", static_cast<std::int64_t>(k)},
                    {"seconds", scalar_s},
                    {"gflops", flops / scalar_s / 1e9}});
    if (soa) {
      sd::bench::report().row(
          "kernels", {{"kernel", "soa"},
                      {"m", static_cast<std::int64_t>(k)},
                      {"n", static_cast<std::int64_t>(n)},
                      {"k", static_cast<std::int64_t>(k)},
                      {"seconds", soa_s},
                      {"gflops", flops / soa_s / 1e9},
                      {"speedup_vs_scalar", soa_speedup}});
    }
    const double row0_flops = static_cast<double>(gemm_flops(1, n, k));
    sd::bench::report().row(
        "kernels", {{"kernel", "row0"},
                    {"m", static_cast<std::int64_t>(1)},
                    {"n", static_cast<std::int64_t>(n)},
                    {"k", static_cast<std::int64_t>(k)},
                    {"seconds", row0_s},
                    {"gflops", row0_flops / row0_s / 1e9},
                    {"speedup_vs_full", row0_speedup}});
  }

  sd::bench::print_table(table, "kernels_summary");
  return 0;
}
