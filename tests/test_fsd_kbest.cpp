#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/spec_parse.hpp"
#include "core/sphere_decoder.hpp"
#include "decode/fsd.hpp"
#include "decode/ml.hpp"
#include "decode/sd_gemm_bfs.hpp"
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

TEST(Fsd, FullExpansionOfAllLevelsIsMl) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FsdOptions opts;
  opts.full_levels = 4;
  opts.sorted_qr = false;
  FsdDetector fsd(c, opts);
  MlDetector ml(c);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trial t = make_trial(4, Modulation::kQam4, 6.0, seed);
    EXPECT_EQ(fsd.decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
}

TEST(Fsd, DeterministicComplexityIndependentOfSnr) {
  // FSD's selling point: fixed node count regardless of noise.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FsdDetector fsd(c, FsdOptions{2, true});
  const Trial lo = make_trial(8, Modulation::kQam4, 2.0, 1);
  const Trial hi = make_trial(8, Modulation::kQam4, 20.0, 2);
  EXPECT_EQ(fsd.decode(lo.h, lo.y, lo.sigma2).stats.nodes_expanded,
            fsd.decode(hi.h, hi.y, hi.sigma2).stats.nodes_expanded);
  EXPECT_EQ(fsd.decode(lo.h, lo.y, lo.sigma2).stats.leaves_reached, 16u);
}

TEST(Fsd, RecoversNoiselessTransmission) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  FsdDetector fsd(c, FsdOptions{1, true});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trial t = make_trial(8, Modulation::kQam16, 300.0, seed);
    EXPECT_EQ(fsd.decode(t.h, t.y, t.sigma2).indices, t.tx.indices);
  }
}

TEST(Fsd, RejectsBadOptions) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  EXPECT_THROW(FsdDetector(c, FsdOptions{0, true}), invalid_argument_error);
}

TEST(Fsd, MetricNeverBeatsMl) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FsdDetector fsd(c, FsdOptions{1, true});
  MlDetector ml(c);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trial t = make_trial(5, Modulation::kQam4, 6.0, seed);
    const double fsd_metric = fsd.decode(t.h, t.y, t.sigma2).metric;
    const double ml_metric = ml.decode(t.h, t.y, t.sigma2).metric;
    EXPECT_GE(fsd_metric, ml_metric - 1e-3 * (1 + ml_metric));
  }
}

TEST(KBest, FullWidthEqualsMl) {
  // K >= |Omega|^M keeps every path, which is exhaustive ML.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  BfsOptions opts = kbest_options(256);
  opts.base.sorted_qr = false;
  SdGemmBfsDetector kbest(c, opts);
  MlDetector ml(c);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trial t = make_trial(4, Modulation::kQam4, 4.0, seed);
    EXPECT_EQ(kbest.decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
}

TEST(KBest, WiderBeamNeverWorsensMetric) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  SdGemmBfsDetector narrow(c, kbest_options(2));
  SdGemmBfsDetector wide(c, kbest_options(32));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trial t = make_trial(6, Modulation::kQam16, 8.0, seed);
    const double m_narrow = narrow.decode(t.h, t.y, t.sigma2).metric;
    const double m_wide = wide.decode(t.h, t.y, t.sigma2).metric;
    EXPECT_LE(m_wide, m_narrow + 1e-3 * (1 + m_narrow)) << "seed " << seed;
  }
}

TEST(KBest, FrontierRespectsK) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  SdGemmBfsDetector kbest(c, kbest_options(8));
  const Trial t = make_trial(8, Modulation::kQam16, 8.0, 3);
  const DecodeResult r = kbest.decode(t.h, t.y, t.sigma2);
  EXPECT_LE(r.stats.peak_list_size, 8u);
  EXPECT_EQ(r.stats.leaves_reached, 8u);
}

TEST(KBest, RejectsZeroK) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  EXPECT_THROW(SdGemmBfsDetector(c, kbest_options(0)), invalid_argument_error);
}

TEST(KBest, K1IsSuccessiveInterferenceCancellation) {
  // K = 1 keeps only the Babai path; still a valid (if weak) detector.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  BfsOptions opts = kbest_options(1);
  opts.base.sorted_qr = false;
  SdGemmBfsDetector kbest(c, opts);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trial t = make_trial(6, Modulation::kQam4, 300.0, seed);
    EXPECT_EQ(kbest.decode(t.h, t.y, t.sigma2).indices, t.tx.indices);
  }
}


// ---------------------------------------------------------------------------
// Pinned K-Best fingerprints.
//
// Each case decodes a seeded 10x10 frame set (Scenario seed 7) and folds the
// detected indices and the tree counters into one 64-bit FNV-1a hash:
// nodes_expanded, nodes_generated, nodes_pruned, leaves_reached,
// peak_list_size and tree_levels. The metric is pinned as the case's sum
// over its frames, checked to 1e-5 relative: the winning path's PD is summed
// in float, so its last bits depend on the order of the additions. The
// other counters (sort_ops, the level-GEMM charges, radius_updates) are
// accounting conventions and stay out. Both entry points, decode_into() on
// the channel and decode_with() on a cached prep, must give the pinned
// values. The expected values were recorded from the scalar K-Best loop
// that predates the level engine; the last case is exhaustive plain-QR
// K-Best on 4x4 4-QAM (K = |Omega|^M), i.e. ML.

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

struct PinCase {
  usize k;
  Modulation mod;
  double snr_db;
  index_t m;
  bool sorted_qr;
  std::uint64_t hash;
  double metric_sum;
};

constexpr usize kPinFrames = 12;

std::unique_ptr<Detector> make_kbest(const PinCase& cs) {
  const SystemConfig sys{cs.m, cs.m, cs.mod};
  if (cs.sorted_qr) {
    return make_detector(
        sys, parse_decoder_spec("kbest:k=" + std::to_string(cs.k)));
  }
  BfsOptions opts = kbest_options(cs.k);
  opts.base.sorted_qr = false;
  return std::make_unique<SdGemmBfsDetector>(Constellation::get(cs.mod), opts);
}

class KBestPinned : public ::testing::TestWithParam<PinCase> {};

TEST_P(KBestPinned, IndicesCountersAndMetricMatchThePin) {
  const PinCase& cs = GetParam();
  ScenarioConfig sc;
  sc.num_tx = cs.m;
  sc.num_rx = cs.m;
  sc.modulation = cs.mod;
  sc.snr_db = cs.snr_db;
  sc.seed = 7;
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize f = 0; f < kPinFrames; ++f) trials.push_back(scenario.next());

  auto det = make_kbest(cs);
  for (const bool cached : {false, true}) {
    Fnv fnv;
    double metric_sum = 0.0;
    DecodeResult r;
    for (const Trial& t : trials) {
      if (cached) {
        const auto prep = det->preprocess(ChannelHandle(t.h));
        det->decode_with(*prep, t.y, t.sigma2, r);
      } else {
        det->decode_into(t.h, t.y, t.sigma2, r);
      }
      fnv.add(r.indices.size());
      for (index_t idx : r.indices) fnv.add(static_cast<std::uint64_t>(idx));
      const DecodeStats& s = r.stats;
      for (std::uint64_t v : {s.nodes_expanded, s.nodes_generated,
                              s.nodes_pruned, s.leaves_reached,
                              s.peak_list_size, s.tree_levels}) {
        fnv.add(v);
      }
      metric_sum += r.metric;
    }
    const char* path = cached ? "decode_with" : "decode_into";
    EXPECT_EQ(fnv.h, cs.hash) << path << " got 0x" << std::hex << fnv.h;
    EXPECT_NEAR(metric_sum, cs.metric_sum, 1e-5 * cs.metric_sum)
        << path << " got " << std::setprecision(17) << metric_sum;
  }
}

std::string pin_label(const PinCase& cs) {
  std::string name = "k" + std::to_string(cs.k) + "_" +
                     std::string(modulation_name(cs.mod)) + "_m" +
                     std::to_string(cs.m) + "_" +
                     std::to_string(static_cast<int>(cs.snr_db)) + "dB";
  if (!cs.sorted_qr) name += "_plain";
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return name;
}

// gtest prints a failing parameter with this instead of its raw bytes.
void PrintTo(const PinCase& cs, std::ostream* os) { *os << pin_label(cs); }

std::string pin_name(const ::testing::TestParamInfo<PinCase>& info) {
  return pin_label(info.param);
}

// clang-format off
const PinCase kPins[] = {
    {1, Modulation::kQam4, 8.0, 10, true, 0x7965db6e30f58d07ull, 338.46816205978394},
    {1, Modulation::kQam4, 14.0, 10, true, 0x2bc6cc40da08b265ull, 138.44536685943604},
    {1, Modulation::kQam4, 20.0, 10, true, 0x29733407be975184ull, 11.093897759914398},
    {1, Modulation::kQam16, 8.0, 10, true, 0xa7713c39f5979624ull, 197.3369345664978},
    {1, Modulation::kQam16, 14.0, 10, true, 0x8fc87bdabffd0c07ull, 99.323910117149353},
    {1, Modulation::kQam16, 20.0, 10, true, 0x8c75c75ad2945563ull, 28.015636444091797},
    {1, Modulation::kQam64, 8.0, 10, true, 0x6a6ee317cbce2ac0ull, 220.66809058189392},
    {1, Modulation::kQam64, 14.0, 10, true, 0xf2b1cc5e6b83e150ull, 62.929883718490601},
    {1, Modulation::kQam64, 20.0, 10, true, 0x39e83948ca867943ull, 22.871502101421356},
    {8, Modulation::kQam4, 8.0, 10, true, 0x4b6afa302fac4b7aull, 166.55932950973511},
    {8, Modulation::kQam4, 14.0, 10, true, 0xa465ea10fa70bfc8ull, 44.165598154067993},
    {8, Modulation::kQam4, 20.0, 10, true, 0xa465ea10fa70bfc8ull, 11.093897759914398},
    {8, Modulation::kQam16, 8.0, 10, true, 0x3d64199b6621856dull, 134.86303567886353},
    {8, Modulation::kQam16, 14.0, 10, true, 0x7808132039b23b02ull, 47.479318261146545},
    {8, Modulation::kQam16, 20.0, 10, true, 0x835415fe3cf48283ull, 11.093896567821503},
    {8, Modulation::kQam64, 8.0, 10, true, 0x402fc43a3fb8da4ull, 125.03587228059769},
    {8, Modulation::kQam64, 14.0, 10, true, 0xe5de368e8810d652ull, 30.383445501327515},
    {8, Modulation::kQam64, 20.0, 10, true, 0x9cb594d23cf1d476ull, 9.3598520755767822},
    {16, Modulation::kQam4, 8.0, 10, true, 0xc6d2674d0b1dc027ull, 158.34988927841187},
    {16, Modulation::kQam4, 14.0, 10, true, 0x863992be536cabf0ull, 44.165598154067993},
    {16, Modulation::kQam4, 20.0, 10, true, 0x863992be536cabf0ull, 11.093897759914398},
    {16, Modulation::kQam16, 8.0, 10, true, 0x8bf2f8c222acc50cull, 111.65015840530396},
    {16, Modulation::kQam16, 14.0, 10, true, 0x78124462d41c351eull, 39.511488795280457},
    {16, Modulation::kQam16, 20.0, 10, true, 0xa32bf8511eec755bull, 11.093896567821503},
    {16, Modulation::kQam64, 8.0, 10, true, 0xb73041c1035b89ull, 102.3607257604599},
    {16, Modulation::kQam64, 14.0, 10, true, 0x43eb20de364c2d63ull, 22.53562068939209},
    {16, Modulation::kQam64, 20.0, 10, true, 0xf4e1f47859295935ull, 8.9227885603904724},
    {64, Modulation::kQam4, 8.0, 10, true, 0x415ad6e2a7ec0fd7ull, 158.34988927841187},
    {64, Modulation::kQam4, 14.0, 10, true, 0xc4afc3d035b45828ull, 44.165598154067993},
    {64, Modulation::kQam4, 20.0, 10, true, 0xc4afc3d035b45828ull, 11.093897759914398},
    {64, Modulation::kQam16, 8.0, 10, true, 0xe099719e00b75aceull, 93.291494846343994},
    {64, Modulation::kQam16, 14.0, 10, true, 0x5b82fba11870a3c9ull, 38.712084650993347},
    {64, Modulation::kQam16, 20.0, 10, true, 0xfa50807fb86d0de3ull, 11.093896567821503},
    {64, Modulation::kQam64, 8.0, 10, true, 0x771570939c5f1b2aull, 79.96382611989975},
    {64, Modulation::kQam64, 14.0, 10, true, 0x75190df8e6c3107dull, 18.852000951766968},
    {64, Modulation::kQam64, 20.0, 10, true, 0xbe0a900607eea18full, 8.3311440944671631},
    {256, Modulation::kQam4, 4.0, 4, false, 0x83f70c4a393116aaull, 62.879292488098145},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(Seeded, KBestPinned, ::testing::ValuesIn(kPins),
                         pin_name);

}  // namespace
}  // namespace sd
