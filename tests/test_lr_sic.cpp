#include "decode/lr_sic.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "decode/linear.hpp"
#include "decode/ml.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "mimo/metrics.hpp"
#include "mimo/scenario.hpp"

namespace sd {
namespace {

Trial make_trial(index_t m, Modulation mod, double snr, std::uint64_t seed,
                 double tx_rho = 0.0) {
  ScenarioConfig sc;
  sc.num_tx = m;
  sc.num_rx = m;
  sc.modulation = mod;
  sc.snr_db = snr;
  sc.seed = seed;
  sc.correlation.tx_rho = tx_rho;
  Scenario s(sc);
  return s.next();
}

TEST(LrSic, RecoversNoiselessTransmission) {
  for (Modulation mod : {Modulation::kQam4, Modulation::kQam16}) {
    const Constellation& c = Constellation::get(mod);
    LrSicDetector det(c);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Trial t = make_trial(6, mod, 300.0, seed);
      EXPECT_EQ(det.decode(t.h, t.y, t.sigma2).indices, t.tx.indices)
          << modulation_name(mod) << " seed " << seed;
    }
  }
}

TEST(LrSic, RejectsBpsk) {
  EXPECT_THROW(LrSicDetector(Constellation::get(Modulation::kBpsk)),
               invalid_argument_error);
}

TEST(LrSic, BeatsZfOnCorrelatedChannels) {
  // Lattice reduction shines exactly where linear detection collapses:
  // strongly correlated (ill-conditioned) channels.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  LrSicDetector lr(c);
  LinearDetector zf(LinearKind::kZf, c);
  ErrorCounter lr_errors(c), zf_errors(c);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Trial t = make_trial(6, Modulation::kQam4, 16.0, seed, 0.9);
    lr_errors.record(t.tx.indices, lr.decode(t.h, t.y, t.sigma2).indices);
    zf_errors.record(t.tx.indices, zf.decode(t.h, t.y, t.sigma2).indices);
  }
  EXPECT_LT(lr_errors.ber(), 0.7 * zf_errors.ber());
}

TEST(LrSic, BetweenSicAndMlAtModerateSnr) {
  // LR-SIC restores the diversity order plain SIC loses; it stays above ML
  // (it is suboptimal) but must land strictly between the two.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  LrSicDetector lr(c);
  MlDetector ml(c);
  SdGemmBfsDetector sic(c, kbest_options(1));  // K=1 = sorted SIC
  ErrorCounter lr_errors(c), ml_errors(c), sic_errors(c);
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Trial t = make_trial(4, Modulation::kQam4, 12.0, seed);
    lr_errors.record(t.tx.indices, lr.decode(t.h, t.y, t.sigma2).indices);
    ml_errors.record(t.tx.indices, ml.decode(t.h, t.y, t.sigma2).indices);
    sic_errors.record(t.tx.indices, sic.decode(t.h, t.y, t.sigma2).indices);
  }
  EXPECT_GE(lr_errors.ber(), ml_errors.ber());
  EXPECT_LT(lr_errors.ber(), sic_errors.ber());
}

TEST(LrSic, MetricMatchesResidual) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  LrSicDetector det(c);
  const Trial t = make_trial(5, Modulation::kQam16, 14.0, 3);
  const DecodeResult r = det.decode(t.h, t.y, t.sigma2);
  EXPECT_NEAR(r.metric, residual_metric(t.h, t.y, r.symbols),
              1e-2 * (1 + r.metric));
  EXPECT_EQ(r.stats.nodes_expanded, 5u);  // one SIC decision per layer
}

TEST(LrSic, NameIsStable) {
  LrSicDetector det(Constellation::get(Modulation::kQam4));
  EXPECT_EQ(det.name(), "LR-SIC");
}

}  // namespace
}  // namespace sd
