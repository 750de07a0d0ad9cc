#include "net/admission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "mimo/constellation.hpp"
#include "obs/counters.hpp"

namespace sd::net {

void AdmissionStats::export_counters(obs::CounterRegistry& registry,
                                     std::string_view prefix) const {
  const std::string p = prefix.empty() ? "" : std::string(prefix) + ".";
  registry.set(p + "considered", considered);
  registry.set(p + "admitted", admitted);
  registry.set(p + "shed", shed);
  registry.set(p + "degraded.kbest", degraded_kbest);
  registry.set(p + "degraded.mmse", degraded_mmse);
  registry.set(p + "degraded.linear", degraded_linear);
  for (std::uint8_t q = 0; q < kQosClassCount; ++q) {
    const std::string cls(qos_class_name(static_cast<QosClass>(q)));
    registry.set(p + cls + ".admitted", admitted_by_class[q]);
    registry.set(p + cls + ".shed", shed_by_class[q]);
  }
}

AdmissionController::AdmissionController(AdmissionOptions opts,
                                         dispatch::Dispatcher& dispatcher)
    : opts_(opts), dispatcher_(dispatcher) {
  SD_CHECK(opts_.ewma_alpha > 0.0 && opts_.ewma_alpha <= 1.0,
           "admission ewma_alpha must be in (0, 1]");
  SD_CHECK(opts_.headroom > 0.0, "admission headroom must be positive");
  mod_order_ =
      Constellation::get(dispatcher_.system().modulation).order();
}

AdmitDecision AdmissionController::decide(const ChannelHandle& channel,
                                          double sigma2, double deadline_s,
                                          QosClass qos) {
  AdmitDecision d;
  const auto q = static_cast<usize>(qos);
  d.budget_s = deadline_s > 0.0 ? deadline_s : opts_.class_deadline_s[q];
  // A non-finite budget means "no deadline", not "any completion time
  // passes". Routed through the budgeted walk below it would admit every
  // frame at kPrimary ((wait + pred) * headroom <= inf always holds) and
  // make the saturation degrade unreachable; normalized to 0 it takes the
  // deadline-less path and never leaks into FrameRequest::deadline_s.
  if (!std::isfinite(d.budget_s)) d.budget_s = 0.0;

  const dispatch::FrameFeatures f =
      dispatch::FrameFeatures::extract(channel, sigma2, mod_order_);
  const unsigned lanes = std::max(1u, dispatcher_.total_lanes());

  // Cheapest predicted service time at a tier, across the backends whose
  // ladder can actually serve it (dispatcher-filtered): a budget met only by
  // an unplaceable (backend, tier) pair must not admit. An unserved tier
  // predicts +infinity and never satisfies the walk below.
  const auto cheapest = [&](serve::DecodeTier tier) {
    return dispatcher_.cheapest_prediction(f, tier);
  };

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.considered;
  d.est_wait_s = static_cast<double>(outstanding_) * service_ewma_s_ /
                 static_cast<double>(lanes);

  if (opts_.enabled && d.budget_s > 0.0 && std::isfinite(d.budget_s)) {
    static constexpr serve::DecodeTier kTiers[] = {
        serve::DecodeTier::kPrimary, serve::DecodeTier::kKBest,
        serve::DecodeTier::kMmseApprox, serve::DecodeTier::kLinear};
    d.action = AdmitAction::kShed;
    for (serve::DecodeTier tier : kTiers) {
      const double pred = cheapest(tier);
      if ((d.est_wait_s + pred) * opts_.headroom <= d.budget_s) {
        d.action = AdmitAction::kAdmit;
        d.tier = tier;
        d.predicted_s = pred;
        break;
      }
    }
  } else if (opts_.enabled && d.est_wait_s > opts_.saturation_wait_s) {
    // Deadline-less traffic never sheds, but past saturation it stops
    // competing with budgeted frames for search depth.
    d.tier = serve::DecodeTier::kLinear;
    d.predicted_s = cheapest(d.tier);
  } else {
    d.predicted_s = cheapest(serve::DecodeTier::kPrimary);
  }

  if (d.action == AdmitAction::kAdmit) {
    ++stats_.admitted;
    ++stats_.admitted_by_class[q];
    if (d.tier == serve::DecodeTier::kKBest) ++stats_.degraded_kbest;
    if (d.tier == serve::DecodeTier::kMmseApprox) ++stats_.degraded_mmse;
    if (d.tier == serve::DecodeTier::kLinear) ++stats_.degraded_linear;
    ++outstanding_;
  } else {
    ++stats_.shed;
    ++stats_.shed_by_class[q];
  }
  return d;
}

void AdmissionController::on_complete(const serve::FrameResult& r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (outstanding_ > 0) --outstanding_;
  // Only real decodes teach the service estimate; evictions and queue-expiry
  // drops would drag it toward zero exactly when the queue is longest.
  if (r.status == serve::FrameStatus::kCompleted && r.service_s > 0.0) {
    if (!ewma_primed_) {
      service_ewma_s_ = r.service_s;
      ewma_primed_ = true;
    } else {
      service_ewma_s_ = opts_.ewma_alpha * r.service_s +
                        (1.0 - opts_.ewma_alpha) * service_ewma_s_;
    }
  }
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

double AdmissionController::estimated_wait_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(outstanding_) * service_ewma_s_ /
         static_cast<double>(std::max(1u, dispatcher_.total_lanes()));
}

}  // namespace sd::net
