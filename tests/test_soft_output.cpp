#include "decode/soft_output.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "decode/sd_gemm.hpp"
#include "mimo/scenario.hpp"

namespace sd {
namespace {

Trial make_trial(index_t m, Modulation mod, double snr, std::uint64_t seed) {
  ScenarioConfig sc;
  sc.num_tx = m;
  sc.num_rx = m;
  sc.modulation = mod;
  sc.snr_db = snr;
  sc.seed = seed;
  Scenario s(sc);
  return s.next();
}

TEST(ListSd, HardOutputMatchesPlainSphereDecoder) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ListSphereDecoder list_sd(c);
  SdGemmDetector plain(c);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trial t = make_trial(6, Modulation::kQam4, 8.0, seed);
    const SoftDecodeResult soft = list_sd.decode_soft(t.h, t.y, t.sigma2);
    const DecodeResult hard = plain.decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(soft.hard.indices, hard.indices) << "seed " << seed;
    EXPECT_NEAR(soft.hard.metric, hard.metric, 1e-2 * (1 + hard.metric));
  }
}

TEST(ListSd, LlrSignsMatchTransmittedBitsAtHighSnr) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  ListSphereDecoder list_sd(c);
  const int bits = c.bits_per_symbol();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trial t = make_trial(4, Modulation::kQam16, 25.0, seed);
    const SoftDecodeResult soft = list_sd.decode_soft(t.h, t.y, t.sigma2);
    std::vector<std::uint8_t> bit_buf(static_cast<usize>(bits));
    for (index_t ant = 0; ant < 4; ++ant) {
      c.index_to_bits(t.tx.indices[static_cast<usize>(ant)], bit_buf);
      for (int b = 0; b < bits; ++b) {
        const double llr =
            soft.llrs[static_cast<usize>(ant) * bits + static_cast<usize>(b)];
        if (bit_buf[static_cast<usize>(b)] == 0) {
          EXPECT_GT(llr, 0.0) << "ant " << ant << " bit " << b;
        } else {
          EXPECT_LT(llr, 0.0) << "ant " << ant << " bit " << b;
        }
      }
    }
  }
}

TEST(ListSd, LlrMagnitudeGrowsWithSnr) {
  // M=2, 4-QAM: only 16 leaves, so a 32-deep list enumerates the full
  // hypothesis space — every bit has both hypotheses and no LLR is clamped.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ListSdOptions opts;
  opts.llr_clamp = 1e9;  // effectively disable clamping
  ListSphereDecoder list_sd(c, opts);
  auto mean_abs_llr = [&](double snr) {
    double acc = 0.0;
    int n = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Trial t = make_trial(2, Modulation::kQam4, snr, seed);
      const SoftDecodeResult soft = list_sd.decode_soft(t.h, t.y, t.sigma2);
      for (double l : soft.llrs) {
        acc += std::abs(l);
        ++n;
      }
    }
    return acc / n;
  };
  EXPECT_GT(mean_abs_llr(16.0), mean_abs_llr(4.0));
}

TEST(ListSd, ClampBoundsRespected) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ListSdOptions opts;
  opts.llr_clamp = 5.0;
  ListSphereDecoder list_sd(c, opts);
  const Trial t = make_trial(6, Modulation::kQam4, 20.0, 3);
  const SoftDecodeResult soft = list_sd.decode_soft(t.h, t.y, t.sigma2);
  for (double l : soft.llrs) {
    EXPECT_LE(std::abs(l), 5.0 + 1e-12);
  }
}

TEST(ListSd, ListSizeBoundsCandidates) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ListSdOptions opts;
  opts.list_size = 4;
  ListSphereDecoder list_sd(c, opts);
  const Trial t = make_trial(6, Modulation::kQam4, 6.0, 4);
  const SoftDecodeResult soft = list_sd.decode_soft(t.h, t.y, t.sigma2);
  EXPECT_LE(soft.candidates, 4u);
  EXPECT_GE(soft.candidates, 1u);
}

TEST(ListSd, LargerListExploresMore) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ListSdOptions small_opts;
  small_opts.list_size = 2;
  ListSdOptions big_opts;
  big_opts.list_size = 64;
  ListSphereDecoder small_sd(c, small_opts);
  ListSphereDecoder big_sd(c, big_opts);
  const Trial t = make_trial(8, Modulation::kQam4, 8.0, 5);
  const auto r_small = small_sd.decode_soft(t.h, t.y, t.sigma2);
  const auto r_big = big_sd.decode_soft(t.h, t.y, t.sigma2);
  EXPECT_GT(r_big.hard.stats.nodes_expanded, r_small.hard.stats.nodes_expanded);
  EXPECT_GT(r_big.candidates, r_small.candidates);
}

// ---- pinned fingerprints ----------------------------------------------------

/// FNV-1a over the bytes of 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

struct ListCase {
  const char* label;
  Modulation mod;
  index_t m;
  double snr_db;
  usize list_size;
  bool sorted_qr;
  double alpha;             ///< noise-scaled radius multiplier, 0 = unbounded
  std::uint64_t max_nodes;  ///< expansion budget, 0 = none
  std::uint64_t hash;  ///< pinned over kListFrames seeded frames
};

constexpr std::uint64_t kListFrames = 8;

/// Folds every output the list search determines: the hard answer, its
/// metric, the candidate count, the LLRs, the stored candidate metrics,
/// every work counter, and the LLRs recomputed under a fixed prior vector.
void fold(Fnv& f, const ListSphereDecoder& lsd, const SoftDecodeResult& r,
          double sigma2) {
  f.add(static_cast<std::uint64_t>(r.hard.indices.size()));
  for (index_t idx : r.hard.indices) f.add(static_cast<std::uint64_t>(idx));
  f.add(r.hard.metric);
  f.add(static_cast<std::uint64_t>(r.candidates));
  for (double l : r.llrs) f.add(l);
  for (double m : lsd.last_candidates().metrics) f.add(m);
  const DecodeStats& s = r.hard.stats;
  for (std::uint64_t v :
       {s.nodes_expanded, s.nodes_generated, s.nodes_pruned, s.leaves_reached,
        s.radius_updates, s.gemm_calls, s.flops, s.sort_ops, s.bytes_touched,
        s.tree_levels, s.peak_list_size, s.radius_fallbacks}) {
    f.add(v);
  }
  f.add(static_cast<std::uint64_t>(s.node_budget_hit ? 1 : 0));
  std::vector<double> priors(r.llrs.size());
  for (usize b = 0; b < priors.size(); ++b) {
    priors[b] = 0.5 * static_cast<double>(static_cast<int>(b * 7 % 11) - 5);
  }
  for (double l : lsd.llrs_from_list(priors, sigma2)) f.add(l);
}

class ListSdPinned : public ::testing::TestWithParam<ListCase> {};

TEST_P(ListSdPinned, MatchesPinnedHash) {
  const ListCase& cs = GetParam();
  const Constellation& c = Constellation::get(cs.mod);
  ListSdOptions opts;
  opts.list_size = cs.list_size;
  opts.base.sorted_qr = cs.sorted_qr;
  if (cs.alpha > 0.0) {
    opts.base.radius_policy = RadiusPolicy::kNoiseScaled;
    opts.base.radius_alpha = cs.alpha;
  }
  if (cs.max_nodes > 0) opts.base.max_nodes = cs.max_nodes;
  ListSphereDecoder lsd(c, opts);
  Fnv f;
  for (std::uint64_t seed = 1; seed <= kListFrames; ++seed) {
    const Trial t = make_trial(cs.m, cs.mod, cs.snr_db, 700 + seed);
    const SoftDecodeResult r = lsd.decode_soft(t.h, t.y, t.sigma2);
    fold(f, lsd, r, t.sigma2);
  }
  EXPECT_EQ(f.h, cs.hash) << "got 0x" << std::hex << f.h;
}

// gtest prints a failing parameter with this instead of its raw bytes.
void PrintTo(const ListCase& cs, std::ostream* os) { *os << cs.label; }

std::string list_case_name(const ::testing::TestParamInfo<ListCase>& info) {
  return info.param.label;
}

// clang-format off
const ListCase kListCases[] = {
    {"Qam4_m6_4dB_L32", Modulation::kQam4, 6, 4.0, 32, false, 0, 0, 0x240af1cf376e28deull},
    {"Qam4_m6_8dB_L32", Modulation::kQam4, 6, 8.0, 32, false, 0, 0, 0xc47e0e632169901dull},
    {"Qam4_m6_14dB_L4", Modulation::kQam4, 6, 14.0, 4, false, 0, 0, 0xcb28df1bacdc43dcull},
    {"Qam4_m8_8dB_L1", Modulation::kQam4, 8, 8.0, 1, false, 0, 0, 0x589de9c5c78661f7ull},
    {"Qam4_m6_8dB_L32_sorted", Modulation::kQam4, 6, 8.0, 32, true, 0, 0, 0x4dd436ba2ef05e4ull},
    {"Qam16_m4_8dB_L16", Modulation::kQam16, 4, 8.0, 16, false, 0, 0, 0x4db6b96f3bfc8333ull},
    {"Qam4_m6_8dB_L4_alpha4", Modulation::kQam4, 6, 8.0, 4, false, 4.0, 0, 0x4928be74e02622d0ull},
    {"Qam4_m6_8dB_L8_budget20", Modulation::kQam4, 6, 8.0, 8, false, 0, 20, 0xddd3dcd807eebdf2ull},
    {"Qam16_m4_20dB_L32", Modulation::kQam16, 4, 20.0, 32, false, 0, 0, 0x49b571ee60b3d47eull},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(Seeded, ListSdPinned, ::testing::ValuesIn(kListCases),
                         list_case_name);

TEST(ListSd, RejectsBadOptions) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ListSdOptions opts;
  opts.list_size = 0;
  EXPECT_THROW(ListSphereDecoder(c, opts), invalid_argument_error);
  opts.list_size = 4;
  opts.llr_clamp = 0.0;
  EXPECT_THROW(ListSphereDecoder(c, opts), invalid_argument_error);
}

}  // namespace
}  // namespace sd
