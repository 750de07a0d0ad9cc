// Gram-domain MMSE with Neumann-series inversion (PR 10).
//
// Pins the massive-MIMO fast path's contracts: the detector recovers
// noiseless transmissions on tall channels, the Jacobi/Neumann series agrees
// with the exact Cholesky solve when the Gram matrix is diagonally dominant,
// the residual guard falls back to the exact solve (never to wrong bits)
// when it is not, the cached two-phase path is bit-identical to the one-shot
// path, and the kGramMmse prep is a distinct cache entry from the tree-search
// factorizations.
#include "decode/mmse_neumann.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "decode/channel_prep.hpp"
#include "decode/linear.hpp"
#include "mimo/scenario.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

Trial rect_trial(index_t num_rx, index_t num_tx, Modulation mod, double snr_db,
                 std::uint64_t seed) {
  ScenarioConfig sc;
  sc.num_tx = num_tx;
  sc.num_rx = num_rx;
  sc.modulation = mod;
  sc.snr_db = snr_db;
  sc.seed = seed;
  Scenario s(sc);
  return s.next();
}

bool same_result_bits(const DecodeResult& a, const DecodeResult& b) {
  return a.indices == b.indices && a.symbols.size() == b.symbols.size() &&
         std::memcmp(a.symbols.data(), b.symbols.data(),
                     sizeof(cplx) * a.symbols.size()) == 0 &&
         std::memcmp(&a.metric, &b.metric, sizeof(double)) == 0;
}

TEST(MmseNeumann, RecoversNoiselessTallTransmission) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  MmseNeumannDetector det(MmseNeumannOptions{}, c);
  EXPECT_EQ(det.name(), "MMSE-Neumann");
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Trial t = rect_trial(32, 4, Modulation::kQam16, 300.0, seed);
    const DecodeResult r = det.decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(r.indices, t.tx.indices) << "seed " << seed;
  }
}

TEST(MmseNeumann, ExactSolveMatchesLinearMmse) {
  // k=0 requests the exact Cholesky solve of (G + sigma2 I) x = H^H y —
  // the same estimate the linear MMSE detector computes — so the sliced
  // decisions must agree.
  const Constellation& c = Constellation::get(Modulation::kQam16);
  MmseNeumannDetector exact(MmseNeumannOptions{.k = 0}, c);
  LinearDetector mmse(LinearKind::kMmse, c);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Trial t = rect_trial(16, 4, Modulation::kQam16, 14.0, seed);
    EXPECT_EQ(exact.decode(t.h, t.y, t.sigma2).indices,
              mmse.decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
}

TEST(MmseNeumann, SeriesMatchesExactOnTallChannels) {
  // 32x4: the Gram matrix is strongly diagonally dominant, so a short
  // Neumann series converges and the decisions match the exact solve
  // without ever tripping the residual guard.
  const Constellation& c = Constellation::get(Modulation::kQam16);
  MmseNeumannDetector exact(MmseNeumannOptions{.k = 0}, c);
  MmseNeumannDetector series(MmseNeumannOptions{.k = 3}, c);
  std::uint64_t fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Trial t = rect_trial(32, 4, Modulation::kQam16, 12.0, seed);
    const DecodeResult re = exact.decode(t.h, t.y, t.sigma2);
    const DecodeResult rs = series.decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(rs.indices, re.indices) << "seed " << seed;
    EXPECT_GT(rs.stats.neumann_terms, 0u);
    fallbacks += rs.stats.neumann_fallbacks;
  }
  EXPECT_EQ(fallbacks, 0u);
}

TEST(MmseNeumann, ResidualGuardFallsBackOnSquareChannels) {
  // On square i.i.d. channels the series has no dominance to work with and
  // routinely diverges; the guard must detect that via the residual and
  // re-solve exactly, making the answer identical to k=0 anyway.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  MmseNeumannDetector exact(MmseNeumannOptions{.k = 0}, c);
  MmseNeumannDetector series(MmseNeumannOptions{.k = 3}, c);
  std::uint64_t fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Trial t = rect_trial(6, 6, Modulation::kQam4, 16.0, seed);
    const DecodeResult rs = series.decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(rs.stats.neumann_fallbacks, rs.stats.neumann_exact_solves);
    fallbacks += rs.stats.neumann_fallbacks;
    if (rs.stats.neumann_fallbacks > 0) {
      // A guarded frame re-solved exactly, so it must equal the k=0 answer.
      const DecodeResult re = exact.decode(t.h, t.y, t.sigma2);
      EXPECT_EQ(rs.indices, re.indices) << "seed " << seed;
    }
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(MmseNeumann, CachedPathBitIdenticalToOneShot) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  for (usize k : {usize{0}, usize{2}, usize{3}}) {
    MmseNeumannDetector det(MmseNeumannOptions{.k = k}, c);
    EXPECT_EQ(det.prep_kind(), PrepKind::kGramMmse);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Trial t = rect_trial(24, 6, Modulation::kQam16, 10.0, seed);
      ChannelHandle handle{CMat(t.h)};
      const auto prep = det.preprocess(handle);
      ASSERT_NE(prep, nullptr);
      EXPECT_EQ(prep->g.rows(), 6);
      EXPECT_EQ(prep->g.cols(), 6);

      DecodeResult one_shot, cached;
      det.decode_into(t.h, t.y, t.sigma2, one_shot);
      det.decode_with(*prep, t.y, t.sigma2, cached);
      EXPECT_TRUE(same_result_bits(one_shot, cached))
          << "k " << k << " seed " << seed;
    }
  }
}

TEST(MmseNeumann, CachedSystemReusedAcrossFramesOfOneBlock) {
  // Consecutive decode_with calls against the same prep and sigma2 must not
  // re-factor: with k=0 the Cholesky happens once, so the exact-solve
  // counter still climbs once per frame while results stay per-frame
  // correct. (The reuse itself is observable through the alloc-free audit;
  // here we pin correctness across the reuse path.)
  const Constellation& c = Constellation::get(Modulation::kQam16);
  MmseNeumannDetector det(MmseNeumannOptions{.k = 0}, c);
  ScenarioConfig sc;
  sc.num_tx = 4;
  sc.num_rx = 32;
  sc.modulation = Modulation::kQam16;
  sc.snr_db = 300.0;
  sc.seed = 77;
  Scenario s(sc);
  const Trial t0 = s.next();
  ChannelHandle handle{CMat(t0.h)};
  const auto prep = det.preprocess(handle);

  DecodeResult r;
  for (int rep = 0; rep < 4; ++rep) {
    det.decode_with(*prep, t0.y, t0.sigma2, r);
    EXPECT_EQ(r.indices, t0.tx.indices) << "rep " << rep;
  }
}

TEST(MmseNeumann, ThrowingRebuildDoesNotPoisonTheCache) {
  // A NaN sigma2 fails the positive-diagonal check half way through the
  // rebuild of A. The next frame on the previous (channel, sigma2) must not
  // reuse that half-built system: it answers as a fresh detector does.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const Trial t = rect_trial(32, 8, Modulation::kQam4, 10.0, 26);
  MmseNeumannDetector det(MmseNeumannOptions{}, c);
  const auto prep = det.preprocess(ChannelHandle{CMat(t.h)});
  ASSERT_EQ(prep->kind, PrepKind::kGramMmse);

  DecodeResult r;
  det.decode_with(*prep, t.y, 0.1, r);
  EXPECT_THROW(det.decode_with(*prep, t.y,
                               std::numeric_limits<double>::quiet_NaN(), r),
               invalid_argument_error);
  det.decode_with(*prep, t.y, 0.1, r);

  MmseNeumannDetector fresh(MmseNeumannOptions{}, c);
  DecodeResult expect;
  fresh.decode_with(*prep, t.y, 0.1, expect);
  EXPECT_TRUE(same_result_bits(r, expect))
      << "metric " << r.metric << " vs a fresh detector's " << expect.metric;
}

TEST(MmseNeumann, GramPrepIsADistinctCacheEntry) {
  ChannelPrepCache cache(ChannelPrepCache::Options{8, 2});
  ChannelHandle channel(testing::random_cmat(12, 4, 19));

  bool hit = true;
  const auto gram = cache.get_or_build(channel, PrepKind::kGramMmse, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(gram, nullptr);
  EXPECT_EQ(gram->kind, PrepKind::kGramMmse);
  EXPECT_EQ(gram->g.rows(), 4);
  EXPECT_EQ(gram->g.cols(), 4);

  const auto again = cache.get_or_build(channel, PrepKind::kGramMmse, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(gram.get(), again.get());

  // Same channel, tree-search prep: a distinct entry, not a collision.
  const auto qr = cache.get_or_build(channel, PrepKind::kZf, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(static_cast<const void*>(qr.get()),
            static_cast<const void*>(gram.get()));
  EXPECT_EQ(cache.stats().collisions, 0u);
}

TEST(MmseNeumann, RejectsUndeterminedSystems) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  MmseNeumannDetector det(MmseNeumannOptions{}, c);
  const Trial t = rect_trial(4, 4, Modulation::kQam4, 20.0, 5);
  CMat fat(2, 4);  // rows < cols: G is singular by construction
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 4; ++j) fat(i, j) = t.h(i, j);
  EXPECT_THROW((void)det.decode(fat, std::span<const cplx>(t.y).first(2),
                                t.sigma2),
               invalid_argument_error);
}

TEST(MmseNeumann, CountersReportSeriesAndFallbackActivity) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  MmseNeumannDetector series(MmseNeumannOptions{.k = 2}, c);
  const Trial t = rect_trial(32, 4, Modulation::kQam16, 12.0, 3);
  const DecodeResult r = series.decode(t.h, t.y, t.sigma2);
  EXPECT_EQ(r.stats.neumann_terms, 2u);
  EXPECT_EQ(r.stats.neumann_fallbacks, 0u);
  EXPECT_EQ(r.stats.neumann_exact_solves, 0u);

  MmseNeumannDetector exact(MmseNeumannOptions{.k = 0}, c);
  const DecodeResult re = exact.decode(t.h, t.y, t.sigma2);
  EXPECT_EQ(re.stats.neumann_terms, 0u);
  EXPECT_EQ(re.stats.neumann_exact_solves, 1u);
}

}  // namespace
}  // namespace sd
