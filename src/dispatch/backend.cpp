#include "dispatch/backend.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/spec_parse.hpp"
#include "decode/linear.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "mimo/constellation.hpp"
#include "obs/trace.hpp"

namespace sd::dispatch {

std::string_view backend_kind_name(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::kCpu: return "cpu";
    case BackendKind::kFpga: return "fpga";
    case BackendKind::kParallelSd: return "parallel-sd";
  }
  return "?";
}

namespace {

[[nodiscard]] bool is_linear_strategy(Strategy s) noexcept {
  return s == Strategy::kMrc || s == Strategy::kZf || s == Strategy::kMmse;
}

[[nodiscard]] bool is_fixed_complexity(Strategy s) noexcept {
  return s == Strategy::kKBest || s == Strategy::kFsd;
}

[[nodiscard]] double seconds_between(serve::Clock::time_point a,
                                     serve::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

Backend::Backend(SystemConfig system, BackendConfig config)
    : system_(system),
      cfg_(std::move(config)),
      prep_cache_(ChannelPrepCache::Options{
          std::max<usize>(1, cfg_.prep_cache_capacity), 4}) {
  SD_CHECK(cfg_.lanes >= 1, "backend needs at least one lane");
  SD_CHECK(cfg_.lane_queue_capacity >= 1, "lane queue capacity must be positive");
  SD_CHECK(cfg_.batch_size >= 1, "batch size must be positive");
  SD_CHECK(cfg_.rtt_s >= 0.0, "backend RTT must be non-negative");
  SD_CHECK(cfg_.max_wide_width >= 1, "max wide width must be positive");
  if (cfg_.kind == BackendKind::kFpga) {
    SD_CHECK(cfg_.decoder.device != TargetDevice::kCpu,
             "an fpga backend needs an @fpga decoder spec");
    cfg_.pace_to_charged = true;  // simulated device lanes always pace
  }
  SD_CHECK(cfg_.kind != BackendKind::kParallelSd ||
               cfg_.decoder.strategy == Strategy::kMultiPe,
           "a parallel-sd backend needs a multipe decoder spec");
  // Fail fast on an unbuildable spec in the constructing thread instead of
  // from inside a lane: build (and discard) one detector eagerly.
  (void)make_detector(system_, cfg_.decoder);
  former_enabled_ = cfg_.cross_lane_former && cfg_.lanes > 1;
  // Which overload-ladder rungs this substrate can serve. A linear primary
  // has nothing cheaper to degrade to; fixed-complexity searches skip the
  // K-Best rung (they already are one); an MMSE-Neumann primary skips its
  // own rung and degrades straight to linear. The K-Best rung is the BFS
  // level engine, which refuses more than kGemmKc transmit antennas.
  ladder_.push_back(serve::DecodeTier::kPrimary);
  if (!is_linear_strategy(cfg_.decoder.strategy)) {
    if (!is_fixed_complexity(cfg_.decoder.strategy) &&
        cfg_.decoder.strategy != Strategy::kMmseNeumann &&
        system_.num_tx <= kGemmKc) {
      ladder_.push_back(serve::DecodeTier::kKBest);
    }
    if (cfg_.decoder.strategy != Strategy::kMmseNeumann) {
      ladder_.push_back(serve::DecodeTier::kMmseApprox);
    }
    ladder_.push_back(serve::DecodeTier::kLinear);
  }
  queues_.resize(cfg_.lanes);
  acct_.lanes.resize(cfg_.lanes);
}

Backend::~Backend() {
  close();
  join();
}

void Backend::start(LaneSink& sink) {
  SD_CHECK(threads_.empty(), "backend already started");
  sink_ = &sink;
  threads_.reserve(cfg_.lanes);
  for (unsigned l = 0; l < cfg_.lanes; ++l) {
    threads_.emplace_back([this, l] { lane_main(l); });
  }
}

Backend::PushResult Backend::place(PlacedFrame frame) {
  const unsigned lane = frame.lane;
  SD_CHECK(lane < cfg_.lanes, "placement lane out of range");
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return {serve::PushStatus::kClosed, std::nullopt};
  std::deque<PlacedFrame>& q = queues_[lane];
  if (q.size() >= cfg_.lane_queue_capacity) {
    switch (cfg_.policy) {
      case serve::BackpressurePolicy::kBlock:
        not_full_.wait(lock, [&] {
          return q.size() < cfg_.lane_queue_capacity || closed_;
        });
        if (closed_) return {serve::PushStatus::kClosed, std::nullopt};
        break;
      case serve::BackpressurePolicy::kReject:
        return {serve::PushStatus::kRejected, std::nullopt};
      case serve::BackpressurePolicy::kDropOldest: {
        PlacedFrame oldest = std::move(q.front());
        q.pop_front();
        q.push_back(std::move(frame));
        not_empty_.notify_all();
        return {serve::PushStatus::kDisplacedOldest, std::move(oldest)};
      }
    }
  }
  q.push_back(std::move(frame));
  not_empty_.notify_all();
  return {serve::PushStatus::kAccepted, std::nullopt};
}

void Backend::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

void Backend::join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

usize Backend::queue_depth(unsigned lane) const {
  SD_CHECK(lane < cfg_.lanes, "lane out of range");
  std::lock_guard<std::mutex> lock(mu_);
  return queues_[lane].size();
}

usize Backend::queue_depth_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  usize total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

Backend::Snapshot Backend::snapshot() const {
  Snapshot s;
  {
    std::lock_guard<std::mutex> lock(acct_mu_);
    s = acct_;
  }
  s.in_queue = queue_depth_total();
  return s;
}

bool Backend::next_batch(unsigned lane, std::vector<PlacedFrame>& out) {
  out.clear();
  bool stole = false;
  usize gathered = 0;      // cross-lane claims (rebound + sink-notified)
  usize own_extended = 0;  // own-queue frames widened past batch_size
  bool former_eligible = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++hungry_;
    for (;;) {
      std::deque<PlacedFrame>& own = queues_[lane];
      if (!own.empty()) {
        while (!own.empty() && out.size() < cfg_.batch_size) {
          out.push_back(std::move(own.front()));
          own.pop_front();
        }
        // --- Wide-batch former (DESIGN.md §16): extend this pop with
        // compatible frames claimed from the backend's OTHER queues — the
        // lane's own queue beyond batch_size, and its siblings' — so fused
        // width tracks the backend's total ready work instead of one lane's
        // batch cap. The claim is the pop itself: removal under mu_, the
        // same lock work stealing takes, so a gathered frame can never also
        // be stolen or decoded twice. Width is capped at a fair share of the
        // ready work divided across the lanes currently asking for work AND
        // the lanes whose queues are empty (they will steal or go hungry
        // next) — one returning lane must not drain the backend into a
        // single serialized run — and gathering walks the queues round-robin
        // (own first),
        // taking queue FRONTS only (oldest first, same age discipline as
        // stealing) while they match the tier of the run being extended.
        // Own-queue extensions are NOT cross-lane claims: no sink
        // notification, no rebinding, no former_gathered tick — the frame
        // was this lane's already; it just rides a wider run. Without them,
        // refill bursts leave per-lane remainders beyond batch_size that
        // only drain as width-1 stragglers, collapsing the width p50 at
        // saturation (the bench_coherent_batch cross_lane gate pins this).
        if (former_enabled_) {
          former_eligible = true;
          usize ready = out.size() + own.size();
          unsigned starving = 0;  // empty sibling queues: imminent stealers
          for (unsigned l = 0; l < cfg_.lanes; ++l) {
            if (l == lane) continue;
            ready += queues_[l].size();
            if (queues_[l].empty()) ++starving;
          }
          const unsigned claimants = hungry_ + starving;  // hungry_ >= 1: us
          const usize fair = (ready + claimants - 1) / claimants;
          const usize target =
              std::min(cfg_.max_wide_width, std::max(out.size(), fair));
          const serve::DecodeTier tier = out.back().tier;
          bool progress = true;
          while (out.size() < target && progress) {
            progress = false;
            for (unsigned off = 0;
                 off < cfg_.lanes && out.size() < target; ++off) {
              std::deque<PlacedFrame>& q = queues_[(lane + off) % cfg_.lanes];
              if (q.empty() || q.front().tier != tier) continue;
              out.push_back(std::move(q.front()));
              q.pop_front();
              if (off != 0) {
                ++gathered;
              } else {
                ++own_extended;
              }
              progress = true;
            }
          }
        }
        break;
      }
      if (cfg_.allow_stealing) {
        // Idle lane: take the *oldest* frame from the most backlogged
        // sibling — the frame that has waited longest is the one closest
        // to its deadline.
        unsigned victim = lane;
        usize deepest = 0;
        for (unsigned l = 0; l < cfg_.lanes; ++l) {
          if (l != lane && queues_[l].size() > deepest) {
            deepest = queues_[l].size();
            victim = l;
          }
        }
        if (deepest > 0) {
          out.push_back(std::move(queues_[victim].front()));
          queues_[victim].pop_front();
          stole = true;
          break;
        }
      }
      if (closed_) {
        --hungry_;
        return false;
      }
      not_empty_.wait(lock);
    }
    --hungry_;
  }
  not_full_.notify_all();
  if (stole) {
    PlacedFrame& pf = out.front();
    {
      std::lock_guard<std::mutex> lock(acct_mu_);
      ++acct_.steals;
    }
    // Notify with the original placement still intact, then rebind the
    // frame to the thief lane.
    if (sink_ != nullptr) sink_->frame_stolen(pf, lane);
    pf.global_worker = pf.global_worker - pf.lane + lane;
    pf.lane = lane;
    pf.stolen = true;
  }
  if (former_eligible) {
    std::lock_guard<std::mutex> lock(acct_mu_);
    if (gathered + own_extended > 0) {
      ++acct_.former_runs;
      acct_.former_gathered += gathered;
    } else {
      ++acct_.former_empty;
    }
  }
  if (gathered > 0) {
    // Gathered frames keep stolen=false — they were co-scheduled into a wide
    // run, not rescued from an idle lane — but the dispatcher-side pending
    // accounting rebinds exactly like a steal (default frame_gathered).
    // Cross-lane claims are interleaved with own-queue extensions by the
    // round-robin above, so they are found by lane, not position: a frame
    // still carrying a sibling's lane id was gathered.
    for (PlacedFrame& pf : out) {
      if (pf.lane == lane) continue;
      if (sink_ != nullptr) sink_->frame_gathered(pf, lane);
      pf.global_worker = pf.global_worker - pf.lane + lane;
      pf.lane = lane;
    }
  }
  return true;
}

/// One lane's private detector ladder plus the scratch of its runs. Decodes
/// never share mutable state across threads, and the run vectors keep their
/// capacity, so a warm lane allocates no per-run scratch. The K-Best rung
/// keeps a small fixed width: it exists to bound work under overload, not
/// to chase BER.
struct Backend::Lane {
  Lane(const SystemConfig& system, const DecoderSpec& decoder, unsigned lane)
      : id(lane),
        primary(make_detector(system, decoder)),
        kbest(Constellation::get(system.modulation), kbest_options(8)),
        mmse(MmseNeumannOptions{}, Constellation::get(system.modulation)),
        linear(LinearKind::kZf, Constellation::get(system.modulation)) {}

  [[nodiscard]] Detector& detector(serve::DecodeTier tier) {
    switch (tier) {
      case serve::DecodeTier::kPrimary: return *primary;
      case serve::DecodeTier::kKBest: return kbest;
      case serve::DecodeTier::kMmseApprox: return mmse;
      case serve::DecodeTier::kLinear: break;
    }
    return linear;
  }

  unsigned id;
  std::unique_ptr<Detector> primary;
  SdGemmBfsDetector kbest;
  MmseNeumannDetector mmse;
  LinearDetector linear;
  // Run scratch, indexed parallel to the run's frames (`live` and `items`
  // hold the frames that did not expire).
  std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
  std::vector<serve::FrameResult> results;
  std::vector<Detector::WideItem> items;
  std::vector<usize> live;
};

void Backend::lane_main(unsigned lane_id) {
  Lane lane(system_, cfg_.decoder, lane_id);
  std::vector<PlacedFrame> batch;
  batch.reserve(cfg_.batch_size);
  while (next_batch(lane_id, batch)) {
    SD_TRACE_SPAN("dispatch.batch");
    Timer busy;
    // Split the popped batch into maximal runs of CONSECUTIVE frames that
    // share a tier. Channels may differ within a run — run() resolves each
    // distinct channel once — so interleaved cells (A,B,A,B,...) decode at
    // full width. Consecutive-only grouping never reorders frames, so
    // completion order is preserved within the pop.
    usize i = 0;
    while (i < batch.size()) {
      const serve::DecodeTier tier = batch[i].tier;
      usize j = i + 1;
      while (j < batch.size() && batch[j].tier == tier) ++j;
      run(lane, std::span<PlacedFrame>(batch).subspan(i, j - i));
      i = j;
    }
    std::lock_guard<std::mutex> lock(acct_mu_);
    serve::WorkerStats& ws = acct_.lanes[lane_id];
    ws.frames += batch.size();
    ws.batches += 1;
    ws.busy_seconds += busy.elapsed_seconds();
  }
}

void Backend::run(Lane& lane, std::span<PlacedFrame> frames) {
  SD_TRACE_SPAN("dispatch.run");
  // Dequeue time is stamped before any channel is resolved, so a prep miss's
  // factorization is booked as service, not as queue wait.
  const serve::Clock::time_point dequeued = serve::Clock::now();
  Detector& chosen = lane.detector(frames.front().tier);
  const PrepKind kind = chosen.prep_kind();
  const usize n = frames.size();
  lane.results.clear();
  lane.results.resize(n);
  lane.preps.assign(n, nullptr);
  lane.items.clear();
  lane.live.clear();

  usize misses = 0;
  for (usize i = 0; i < n; ++i) {
    PlacedFrame& pf = frames[i];
    serve::FrameRequest& frame = pf.frame;
    serve::FrameResult& r = lane.results[i];
    r.id = frame.id;
    r.worker_id = pf.global_worker;
    r.backend_id = pf.backend_id;
    r.lane_id = lane.id;
    r.tier = pf.tier;
    r.stolen = pf.stolen;
    r.queue_wait_s = seconds_between(frame.submit_time, dequeued);
    // Expiry is tested before the channel is resolved: an expired frame is
    // answered by ZF from H or dropped, so it never builds or looks up a
    // prep and counts as neither a prep hit nor a miss.
    if (frame.deadline_s > 0.0 && r.queue_wait_s > frame.deadline_s) {
      if (cfg_.zf_fallback_on_expiry) {
        SD_TRACE_SPAN("dispatch.zf_fallback");
        r.status = serve::FrameStatus::kExpiredFallback;
        r.tier = serve::DecodeTier::kLinear;
        lane.linear.decode_into(frame.h(), frame.y, frame.sigma2, r.result);
      } else {
        r.status = serve::FrameStatus::kExpiredDropped;
      }
      continue;
    }
    r.status = serve::FrameStatus::kCompleted;
    // Resolve each DISTINCT channel of the run's live frames once: the
    // first live frame carrying a channel pays (or reuses) the cache
    // lookup; later ones with the same storage reuse the run-local
    // resolution and count as hits.
    const auto same =
        std::find_if(lane.live.begin(), lane.live.end(), [&](usize j) {
          return frames[j].frame.channel.same_storage(frame.channel);
        });
    if (same != lane.live.end()) {
      lane.preps[i] = lane.preps[*same];
      pf.prep_hit = true;
    } else {
      bool cache_hit = false;
      lane.preps[i] = prep_cache_.get_or_build(frame.channel, kind, &cache_hit);
      pf.prep_hit = cache_hit;
      if (!cache_hit) ++misses;
    }
    lane.items.push_back(Detector::WideItem{lane.preps[i].get(), frame.y,
                                            frame.sigma2, &r.result});
    lane.live.push_back(i);
  }

  if (!lane.items.empty()) {
    SD_TRACE_SPAN("dispatch.decode");
    chosen.decode_wide(lane.items);
  }

  double charged_total = 0.0;
  if (cfg_.pace_to_charged && !lane.live.empty()) {
    // Pace the lane to the charged device time plus the transfer RTT: the
    // run ships as ONE device round trip, so its frames' charged times add
    // up and the RTT is paid once — which is how a paced lane amortizes its
    // RTT over a gathered run.
    charged_total = cfg_.rtt_s;
    for (const usize i : lane.live) {
      charged_total += lane.results[i].result.stats.search_seconds;
    }
    const double spent = seconds_between(dequeued, serve::Clock::now());
    if (charged_total > spent) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(charged_total - spent));
    }
  }

  const serve::Clock::time_point done = serve::Clock::now();
  const double service = seconds_between(dequeued, done);
  // Every frame's service spans the whole run (they finish together). What
  // a completed frame cost the lane — the occupancy the cost model
  // calibrates against — is its even share of the run: simulated device
  // occupancy for paced backends, measured wall time otherwise.
  const usize width = lane.live.size();
  const double charged_share =
      width == 0 ? 0.0
                 : (cfg_.pace_to_charged ? charged_total : service) /
                       static_cast<double>(width);
  {
    std::lock_guard<std::mutex> lock(acct_mu_);
    acct_.prep_hits += width - misses;
    acct_.prep_misses += misses;
    if (width >= 2) {
      ++acct_.fused_runs;
      acct_.fused_frames += width;
      if (acct_.fused_width_counts.size() <= width) {
        acct_.fused_width_counts.resize(width + 1, 0);
      }
      ++acct_.fused_width_counts[width];
    }
    for (usize i = 0; i < n; ++i) {
      ++acct_.frames;
      const serve::DecodeTier tier = frames[i].tier;
      switch (lane.results[i].status) {
        case serve::FrameStatus::kCompleted:
          ++acct_.completed;
          if (tier == serve::DecodeTier::kKBest) ++acct_.degraded_kbest;
          if (tier == serve::DecodeTier::kMmseApprox &&
              cfg_.decoder.strategy != Strategy::kMmseNeumann) {
            ++acct_.degraded_mmse;
          }
          if (tier == serve::DecodeTier::kLinear &&
              !is_linear_strategy(cfg_.decoder.strategy)) {
            ++acct_.degraded_linear;
          }
          break;
        case serve::FrameStatus::kExpiredFallback: ++acct_.expired_fallback; break;
        case serve::FrameStatus::kExpiredDropped: ++acct_.expired_dropped; break;
        case serve::FrameStatus::kEvicted: break;  // accounted by the dispatcher
      }
    }
  }
  for (usize i = 0; i < n; ++i) {
    PlacedFrame& pf = frames[i];
    serve::FrameResult& r = lane.results[i];
    r.service_s = service;
    r.e2e_s = seconds_between(pf.frame.submit_time, done);
    r.deadline_missed = pf.frame.deadline_s > 0.0 && r.e2e_s > pf.frame.deadline_s;
    pf.charged_seconds =
        r.status == serve::FrameStatus::kCompleted ? charged_share : service;
    if (sink_ != nullptr) sink_->frame_retired(pf, std::move(r));
  }
  lane.preps.clear();  // release the run's channel references
}

std::unique_ptr<Backend> make_backend(const SystemConfig& system,
                                      BackendConfig config) {
  return std::make_unique<Backend>(system, std::move(config));
}

namespace {

[[nodiscard]] bool is_all_digits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  usize start = 0;
  while (start <= text.size()) {
    const usize end = text.find(sep, start);
    if (end == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

// Measured lane-level speedup of the int16 BFS datapath over fp32 (see
// EXPERIMENTS.md: bench_quant_kernels shows ~3x on the row-0 level-GEMM
// shapes; whole-decode rates dilute that with the float preprocessing and
// tree bookkeeping, so the prior uses a deliberately conservative ratio).
constexpr double kInt16PriorSpeedup = 2.5;

// Substrate-specific cost-model rate priors. Rough by design — calibration
// overwrites them after a handful of observations; they only need to order
// the substrates sensibly when the model is cold.
void apply_rate_priors(BackendConfig& cfg) {
  switch (cfg.kind) {
    case BackendKind::kCpu:
      cfg.prior_seconds_per_node = 150e-9;
      cfg.prior_overhead_s = 30e-6;
      break;
    case BackendKind::kFpga:
      // The pipelined device expands nodes far faster than the host; the
      // round trip dominates the fixed cost.
      cfg.prior_seconds_per_node = 10e-9;
      cfg.prior_overhead_s = 20e-6;
      break;
    case BackendKind::kParallelSd:
      cfg.prior_seconds_per_node = 80e-9;
      cfg.prior_overhead_s = 50e-6;
      break;
  }
  // The int16 BFS datapath runs measurably faster than the fp32 kernels it
  // replaces (bench_quant_kernels: ~3x on the level-GEMM, diluted by the
  // non-kernel share of a decode). Seed its per-node rate from the fp32
  // prior scaled by a conservative lane-level ratio, so a COLD cost model
  // already orders int16 lanes cheaper than fp32 lanes instead of treating
  // both substrates as identical until EWMA calibration catches up.
  if (decoder_precision_name(cfg.decoder) == "int16") {
    cfg.prior_seconds_per_node /= kInt16PriorSpeedup;
  }
  if (cfg.pace_to_charged || cfg.kind == BackendKind::kFpga) {
    cfg.prior_overhead_s += cfg.rtt_s;
  }
}

namespace {

BackendConfig parse_pool_entry(std::string_view entry,
                               const PoolDefaults& defaults) {
  const std::vector<std::string> fields = split(entry, ':');
  const std::string& name = fields[0];
  SD_CHECK(!name.empty(), "empty backend name in pool spec");

  BackendConfig cfg;
  cfg.label = name;
  cfg.lane_queue_capacity = defaults.lane_queue_capacity;
  cfg.policy = defaults.policy;
  cfg.batch_size = defaults.batch_size;
  cfg.cross_lane_former = defaults.cross_lane_former;
  cfg.max_wide_width = defaults.max_wide_width;
  cfg.zf_fallback_on_expiry = defaults.zf_fallback_on_expiry;

  bool saw_rtt = false;
  std::string decoder_opts;  // leftover fields, rejoined for parse_decoder_spec
  for (usize i = 1; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    if (f.empty()) continue;
    if (is_all_digits(f)) {
      cfg.lanes = static_cast<unsigned>(std::stoul(f));
      continue;
    }
    const usize eq = f.find('=');
    const std::string_view key = std::string_view(f).substr(0, eq);
    if (key == "rtt-ms" && eq != std::string::npos) {
      SpecOption opt{std::string(key), f.substr(eq + 1)};
      cfg.rtt_s = spec_option_double(opt) * 1e-3;
      SD_CHECK(cfg.rtt_s >= 0.0, "backend RTT must be non-negative");
      saw_rtt = true;
    } else if (key == "queue" && eq != std::string::npos) {
      SpecOption opt{std::string(key), f.substr(eq + 1)};
      cfg.lane_queue_capacity = static_cast<usize>(spec_option_int(opt));
    } else if (key == "batch" && eq != std::string::npos) {
      SpecOption opt{std::string(key), f.substr(eq + 1)};
      cfg.batch_size = static_cast<usize>(spec_option_int(opt));
    } else if (key == "wide-width" && eq != std::string::npos) {
      SpecOption opt{std::string(key), f.substr(eq + 1)};
      cfg.max_wide_width = static_cast<usize>(spec_option_int(opt));
    } else if (f == "no-cross-lane-fuse") {
      cfg.cross_lane_former = false;
    } else if (f == "cross-lane-fuse") {
      cfg.cross_lane_former = true;
    } else if (f == "no-steal") {
      cfg.allow_stealing = false;
    } else if (f == "steal") {
      cfg.allow_stealing = true;
    } else {
      if (!decoder_opts.empty()) decoder_opts += ',';
      decoder_opts += f;
    }
  }

  if (name == "cpu") {
    cfg.kind = BackendKind::kCpu;
    cfg.decoder = defaults.primary;
    SD_CHECK(decoder_opts.empty(),
             "backend 'cpu' serves the server's primary decoder and takes no "
             "decoder options (got '" + decoder_opts + "')");
    if (saw_rtt) cfg.pace_to_charged = true;
  } else if (name == "fpga" || name == "fpga-base") {
    cfg.kind = BackendKind::kFpga;
    std::string spec = name == "fpga" ? "sphere@fpga" : "sphere@fpga-base";
    if (!decoder_opts.empty()) spec += ":" + decoder_opts;
    cfg.decoder = parse_decoder_spec(spec);
    cfg.pace_to_charged = true;
    cfg.allow_stealing = false;  // device queues: no host-side rebinding
    if (!saw_rtt) cfg.rtt_s = defaults.fpga_rtt_s;
  } else if (name == "multipe") {
    cfg.kind = BackendKind::kParallelSd;
    std::string spec = "multipe";
    if (!decoder_opts.empty()) spec += ":" + decoder_opts;
    cfg.decoder = parse_decoder_spec(spec);
    if (saw_rtt) cfg.pace_to_charged = true;
  } else {
    // Any decoder-spec name runs as a CPU backend of that decoder
    // ("kbest:2:k=16", "zf", "sphere:sorted", ...). parse_decoder_spec
    // throws the pointed error on unknown names.
    cfg.kind = BackendKind::kCpu;
    std::string spec = name;
    if (!decoder_opts.empty()) spec += ":" + decoder_opts;
    cfg.decoder = parse_decoder_spec(spec);
    if (saw_rtt) cfg.pace_to_charged = true;
  }
  apply_rate_priors(cfg);
  return cfg;
}

}  // namespace

std::vector<BackendConfig> parse_backend_pool(std::string_view text,
                                              const PoolDefaults& defaults) {
  std::vector<BackendConfig> out;
  for (const std::string& entry : split(text, ',')) {
    if (entry.empty()) continue;
    out.push_back(parse_pool_entry(entry, defaults));
  }
  SD_CHECK(!out.empty(), "backend pool spec '" + std::string(text) +
                             "' names no backends");
  // Cost-model calibration is keyed by label; disambiguate repeats so
  // "cpu:2,cpu:2" calibrates (and reports) per backend, not pooled.
  std::unordered_map<std::string, int> seen;
  for (BackendConfig& cfg : out) {
    const int n = seen[cfg.label]++;
    if (n > 0) cfg.label.append("#").append(std::to_string(n));
  }
  return out;
}

}  // namespace sd::dispatch
