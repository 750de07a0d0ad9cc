// Load-aware admission control: shed-before-miss.
//
// The dispatcher's overload ladder (PR 3) degrades the decode tier when its
// *own* queues cannot meet a deadline, but it only sees frames it has already
// accepted — under sustained overload every queue is deep by the time the
// ladder reacts, and hard-deadline frames expire in line behind work that
// was doomed anyway. The admission controller sits in front of submit() and
// makes the call per frame, before it costs anything:
//
//   budget  = frame deadline (or the QoS class default)
//   wait    = outstanding * EWMA(service seconds) / lanes   (queueing delay)
//   pred(t) = min over backends of CostModel::predict at tier t
//
// The first tier t with (wait + pred(t)) * headroom <= budget is admitted —
// the frame enters the pool pre-degraded via FrameRequest::start_tier, so
// the dispatcher never places it above a rung it cannot afford. If even the
// linear tier cannot make the budget the frame is shed: a frame that would
// miss anyway is refused at the door, and the capacity it would have burned
// goes to frames that can still make their deadlines. Deadline-less
// best-effort frames are admitted at primary until the estimated wait passes
// a saturation bound, then ride the linear tier.
//
// Every decision is counted per QoS class and exported through the PR 2
// counter registry under "net.admission.*". One controller per shard — the
// estimate must see only its own cell's queue. See DESIGN.md §13.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string_view>

#include "dispatch/dispatcher.hpp"
#include "net/qos.hpp"
#include "serve/frame.hpp"

namespace sd::obs {
class CounterRegistry;
}

namespace sd::net {

struct AdmissionOptions {
  /// Off = every frame admitted at primary (the no-admission baseline the
  /// bench compares against); decisions are still counted.
  bool enabled = true;
  /// Weight of the newest observed service time in the wait estimate.
  double ewma_alpha = 0.2;
  /// Multiplier on the completion estimate before comparing to the budget;
  /// > 1 sheds earlier (conservative), < 1 later (optimistic).
  double headroom = 1.0;
  /// Per-class deadline defaults for frames that carry none, indexed by
  /// QosClass. 0 = no deadline (never shed on budget); non-finite values
  /// (inf/NaN) are normalized to 0 — an infinite budget would otherwise
  /// trivially satisfy the budgeted walk at kPrimary and bypass the
  /// saturation degrade.
  std::array<double, kQosClassCount> class_deadline_s = {0.010, 0.050, 0.0};
  /// Estimated wait above which deadline-less frames degrade to linear.
  double saturation_wait_s = 0.25;
};

enum class AdmitAction : std::uint8_t {
  kAdmit,  ///< submit at `tier`
  kShed,   ///< refuse: predicted to miss its budget at every tier
};

/// One admission decision, with the estimates that produced it.
struct AdmitDecision {
  AdmitAction action = AdmitAction::kAdmit;
  serve::DecodeTier tier = serve::DecodeTier::kPrimary;
  double budget_s = 0.0;     ///< effective deadline used (0 = none)
  double est_wait_s = 0.0;   ///< queueing-delay estimate at decision time
  double predicted_s = 0.0;  ///< cheapest backend's predicted service time
};

struct AdmissionStats {
  std::uint64_t considered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded_kbest = 0;   ///< admitted with a K-Best floor
  std::uint64_t degraded_mmse = 0;    ///< admitted with an MMSE floor
  std::uint64_t degraded_linear = 0;  ///< admitted with a linear floor
  std::array<std::uint64_t, kQosClassCount> admitted_by_class = {};
  std::array<std::uint64_t, kQosClassCount> shed_by_class = {};

  /// Pours the stats into the registry under "<prefix>.*", e.g.
  /// "net.admission.shed" and "net.admission.hard.shed".
  void export_counters(obs::CounterRegistry& registry,
                       std::string_view prefix = "net.admission") const;
};

class AdmissionController {
 public:
  /// `dispatcher` is the shard's placement layer: its cost model prices the
  /// tiers and its lane count scales the wait estimate. Must outlive the
  /// controller.
  AdmissionController(AdmissionOptions opts, dispatch::Dispatcher& dispatcher);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Decides one frame. On kAdmit the caller must submit it (with
  /// FrameRequest::start_tier = decision.tier) and later report its terminal
  /// FrameResult via on_complete — the outstanding count and service EWMA
  /// depend on that contract. Thread-safe. The channel's features come from
  /// the handle's stored summary, not from a pass over H.
  [[nodiscard]] AdmitDecision decide(const ChannelHandle& channel,
                                     double sigma2, double deadline_s,
                                     QosClass qos);

  /// Terminal-state hook for every admitted frame.
  void on_complete(const serve::FrameResult& r);

  [[nodiscard]] AdmissionStats stats() const;
  [[nodiscard]] const AdmissionOptions& options() const noexcept {
    return opts_;
  }
  /// Current queueing-delay estimate (test introspection).
  [[nodiscard]] double estimated_wait_s() const;

 private:
  AdmissionOptions opts_;
  dispatch::Dispatcher& dispatcher_;
  index_t mod_order_ = 0;

  mutable std::mutex mu_;
  std::uint64_t outstanding_ = 0;
  double service_ewma_s_ = 0.0;
  bool ewma_primed_ = false;
  AdmissionStats stats_;
};

}  // namespace sd::net
