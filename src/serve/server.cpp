#include "serve/server.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/spec_parse.hpp"
#include "dispatch/backend.hpp"
#include "obs/trace.hpp"

namespace sd::serve {

ServerOptions parse_server_options(std::string_view text, ServerOptions base) {
  for (const SpecOption& opt : parse_spec_options(text)) {
    if (opt.key == "workers") {
      base.num_workers = static_cast<unsigned>(spec_option_int(opt));
    } else if (opt.key == "batch") {
      base.batch_size = static_cast<usize>(spec_option_int(opt));
    } else if (opt.key == "queue") {
      base.queue_capacity = static_cast<usize>(spec_option_int(opt));
    } else if (opt.key == "policy") {
      base.policy = parse_backpressure_policy(opt.value);
    } else if (opt.key == "deadline-ms") {
      base.default_deadline_s = spec_option_double(opt) * 1e-3;
    } else if (opt.key == "no-fallback") {
      base.zf_fallback_on_expiry = false;
    } else if (opt.key == "fallback") {
      base.zf_fallback_on_expiry = true;
    } else if (opt.key == "no-cross-lane-fuse") {
      base.cross_lane_former = false;
    } else if (opt.key == "cross-lane-fuse") {
      base.cross_lane_former = true;
    } else if (opt.key == "wide-width") {
      base.max_wide_width = static_cast<usize>(spec_option_int(opt));
    } else if (opt.key == "placement") {
      base.placement = dispatch::parse_placement_policy(opt.value);
    } else if (opt.key == "fpga-rtt-ms") {
      base.fpga_rtt_s = spec_option_double(opt) * 1e-3;
    } else if (opt.key == "no-degrade") {
      base.degrade_on_deadline = false;
    } else if (opt.key == "degrade") {
      base.degrade_on_deadline = true;
    } else if (opt.key == "deterministic-cost") {
      base.deterministic_cost = true;
    } else {
      throw invalid_argument_error(
          "unknown server option '" + opt.key +
          "' (workers, batch, queue, policy, deadline-ms, no-fallback, "
          "no-cross-lane-fuse, wide-width, placement, fpga-rtt-ms, "
          "no-degrade, deterministic-cost)");
    }
  }
  return base;
}

DetectionServer::DetectionServer(SystemConfig system, DecoderSpec spec,
                                 ServerOptions options, CompletionFn on_complete)
    : system_(system), spec_(spec), opts_(std::move(options)) {
  SD_CHECK(opts_.num_workers >= 1, "server needs at least one worker");
  SD_CHECK(opts_.batch_size >= 1, "batch size must be positive");
  SD_CHECK(opts_.queue_capacity >= 1, "queue capacity must be positive");
  SD_CHECK(opts_.max_wide_width >= 1, "wide width must be positive");
  SD_CHECK(opts_.default_deadline_s >= 0.0, "deadline must be non-negative");
  SD_CHECK(opts_.fpga_rtt_s >= 0.0, "FPGA RTT must be non-negative");

  // With no pool spec the server runs the classic worker pool: one CPU
  // backend of the primary decoder with num_workers lanes. Each lane gets
  // the full configured queue depth so closed-loop producers sized against
  // queue_capacity never deadlock on a lane.
  dispatch::PoolDefaults defaults;
  defaults.primary = spec_;
  defaults.lane_queue_capacity = opts_.queue_capacity;
  defaults.policy = opts_.policy;
  defaults.batch_size = opts_.batch_size;
  defaults.cross_lane_former = opts_.cross_lane_former;
  defaults.max_wide_width = opts_.max_wide_width;
  defaults.zf_fallback_on_expiry = opts_.zf_fallback_on_expiry;
  defaults.fpga_rtt_s = opts_.fpga_rtt_s;
  std::vector<dispatch::BackendConfig> configs = dispatch::parse_backend_pool(
      opts_.backends.empty() ? "cpu:" + std::to_string(opts_.num_workers)
                             : opts_.backends,
      defaults);

  dispatch::DispatcherOptions dopts;
  dopts.policy = opts_.placement;
  dopts.degrade_on_deadline = opts_.degrade_on_deadline;
  dopts.cost.adapt_rates = !opts_.deterministic_cost;
  dopts.histogram_max_s = opts_.histogram_max_s;
  dopts.histogram_buckets = opts_.histogram_buckets;
  dispatcher_ = std::make_unique<dispatch::Dispatcher>(
      system_, std::move(configs), dopts, std::move(on_complete));
}

DetectionServer::~DetectionServer() { drain(); }

SubmitStatus DetectionServer::submit(FrameRequest frame) {
  SD_TRACE_SPAN("serve.submit");
  SD_CHECK(frame.channel.valid(), "frame carries no channel estimate");
  SD_CHECK(frame.h().rows() == static_cast<index_t>(frame.y.size()),
           "frame y length does not match channel rows");
  SD_CHECK(frame.h().cols() == system_.num_tx,
           "frame channel columns do not match the served system");
  if (frame.deadline_s <= 0.0) frame.deadline_s = opts_.default_deadline_s;
  frame.submit_time = Clock::now();
  return dispatcher_->submit(std::move(frame));
}

void DetectionServer::drain() { dispatcher_->drain(); }

ServerMetrics DetectionServer::metrics() const { return dispatcher_->metrics(); }

}  // namespace sd::serve
