// perfbench: the served-path benchmark.
//
// Starts a real ShardedServer + IngressServer on a Unix-domain socket inside
// this process and drives one NetClient connection in a closed loop: a fixed
// window of frames stays in flight, and each response releases the next
// frame. Every frame is best-effort with no deadline and admission is off,
// so the served answer never depends on timing; every response is checked
// bit for bit against an in-process decode_with of the same frame.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --uds <path> --trace-out <path>
//
// --trace 0 prints the end-to-end metrics; --trace 1 adds a traced served
// run and a traced replay of the same frames through each layer's public
// functions and prints the per-layer metrics (see perfbench/README.md).
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Exit status is non-zero on any correctness failure.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/spec_parse.hpp"
#include "net/client.hpp"
#include "net/ingress.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
using sd::usize;

constexpr double kSliceSeconds = 0.5;
constexpr int kTracedSlices = 4;
constexpr usize kReplayFrames = 1024;
constexpr usize kFpgaModelFrames = 128;
constexpr usize kSlotRing = usize{1} << 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Linear-interpolated quantile (numpy's default) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string uds;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value) != 0;
    } else if (key == "--uds") {
      a.uds = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.uds.empty() || a.trace_out.empty()) {
    throw std::invalid_argument("--workload, --uds and --trace-out are required");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Pins the calling thread to `cpu`; threads it starts later inherit it.
void pin_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// Confines the process — and every thread it starts later — to the CPU of
/// its affinity set on which the probe currently runs fastest, and returns
/// it. Other tenants load this host's CPUs unevenly, and some hold a vCPU
/// off its core for whole seconds. With client, IO and lane threads sharing
/// the probe's CPU, the probe sees what the server sees, and a frame's cost
/// is CPU time rather than the luck of cross-CPU wake-ups.
int confine_to_fastest_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<std::vector<double>> rates(cpus.size());
  for (int round = 0; round < 3; ++round) {
    for (usize i = 0; i < cpus.size(); ++i) {
      pin_thread(cpus[i]);
      rates[i].push_back(probe_rate());
    }
  }
  usize best = 0;
  for (usize i = 1; i < cpus.size(); ++i) {
    if (median(rates[i]) > median(rates[best])) best = i;
  }
  pin_thread(cpus[best]);
  return cpus[best];
}

/// ShardedServer + IngressServer on a UDS path + one connected NetClient.
class ServedStack {
 public:
  ServedStack(const WorkloadConfig& w, const std::string& uds_path) {
    sd::net::ShardedServerOptions so;
    so.num_shards = 1;
    so.server.num_workers = w.lanes;
    so.server.queue_capacity = std::max<usize>(64, w.window);
    // 10 us latency buckets up to 50 ms: the frames served here take tens to
    // hundreds of microseconds, below the default 0.1 ms resolution. Kept
    // small so building a stack does not fault in megabytes of histogram.
    so.server.histogram_max_s = 0.05;
    so.server.histogram_buckets = 5'000;
    so.admission.enabled = false;
    shards_ = std::make_unique<sd::net::ShardedServer>(
        w.system, sd::parse_decoder_spec(w.spec), so);
    sd::net::IngressOptions io;
    io.uds_path = uds_path;
    ingress_ = std::make_unique<sd::net::IngressServer>(*shards_, io);
    ingress_->start();
    client_.reset(new sd::net::NetClient(
        sd::net::NetClient::connect_uds(ingress_->uds_path())));
  }

  ~ServedStack() {
    client_.reset();
    ingress_->stop();
    shards_->drain();
  }

  ServedStack(const ServedStack&) = delete;
  ServedStack& operator=(const ServedStack&) = delete;

  sd::net::NetClient& client() { return *client_; }
  sd::net::IngressServer& ingress() { return *ingress_; }
  sd::net::ShardedServer& shards() { return *shards_; }

 private:
  std::unique_ptr<sd::net::ShardedServer> shards_;
  std::unique_ptr<sd::net::IngressServer> ingress_;
  std::unique_ptr<sd::net::NetClient> client_;
};

struct PhaseCount {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

struct Slice {
  std::uint64_t frames = 0;
  double seconds = 0.0;
  double server_cpu_s = 0.0;  ///< process CPU minus the client thread's
  std::vector<double> latency_s;
};

/// The closed-loop client: frame ids count up from 0 across all phases and
/// map onto the pool cyclically, so the byte stream is a function of the
/// seed alone.
class ClosedLoop {
 public:
  ClosedLoop(const WorkloadConfig& w, FramePool& pool, const Reference& ref,
             sd::net::NetClient& client)
      : w_(w), pool_(pool), ref_(ref), client_(client),
        slot_id_(kSlotRing, ~std::uint64_t{0}), slot_sent_(kSlotRing) {}

  /// Sends until `seconds` elapse or `max_frames` are sent, then drains the
  /// window. Records root spans "client.frame" into `rec` when given.
  Slice run(double seconds, std::uint64_t max_frames, PhaseCount& count,
            SpanRecorder* rec) {
    Slice s;
    s.latency_s.reserve(
        static_cast<usize>(std::min<std::uint64_t>(max_frames, 1u << 16)));
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point t_end =
        std::isinf(seconds)
            ? Clock::time_point::max()
            : t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
    const double proc0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const double thr0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    std::uint64_t sent = 0;
    usize in_flight = 0;
    const auto more = [&] {
      return sent < max_frames && Clock::now() < t_end;
    };
    while (in_flight < w_.window && more()) {
      send_next(count);
      ++sent;
      ++in_flight;
    }
    sd::net::WireResponse resp;
    while (in_flight > 0) {
      if (!client_.recv(resp)) {
        throw std::runtime_error("server closed the connection");
      }
      --in_flight;
      ++s.frames;
      complete(resp, count, s, rec);
      if (more()) {
        send_next(count);
        ++sent;
        ++in_flight;
      }
    }
    s.seconds = seconds_since(t0);
    s.server_cpu_s = (cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - proc0) -
                     (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - thr0);
    return s;
  }

  /// Symbol errors of the served answers to the first pass over the pool.
  [[nodiscard]] std::uint64_t first_pass_errors() const noexcept {
    return first_pass_errors_;
  }
  [[nodiscard]] std::uint64_t first_pass_symbols() const noexcept {
    return first_pass_symbols_;
  }

 private:
  void send_next(PhaseCount& count) {
    const std::uint64_t id = next_id_++;
    sd::net::WireFrame& f = pool_.frames[id % pool_.frames.size()].wire;
    f.frame_id = id;
    const usize slot = id % kSlotRing;
    slot_id_[slot] = id;
    slot_sent_[slot] = Clock::now();
    if (!client_.send(f)) throw std::runtime_error("server closed on send");
    ++count.sent;
  }

  void complete(const sd::net::WireResponse& r, PhaseCount& count, Slice& s,
                SpanRecorder* rec) {
    const Clock::time_point now = Clock::now();
    const usize slot = r.frame_id % kSlotRing;
    if (slot_id_[slot] != r.frame_id) {
      ++count.failed;  // a response for a frame this client never sent
      return;
    }
    slot_id_[slot] = ~std::uint64_t{0};
    s.latency_s.push_back(
        std::chrono::duration<double>(now - slot_sent_[slot]).count());
    if (rec != nullptr) {
      rec->record("client.frame", slot_sent_[slot], now, r.frame_id);
    }
    const usize p = r.frame_id % pool_.frames.size();
    const bool ok = r.status == sd::net::WireFrameStatus::kCompleted &&
                    r.tier == sd::serve::DecodeTier::kPrimary &&
                    r.indices == ref_.indices[p];
    ++(ok ? count.ok : count.failed);
    if (r.frame_id < pool_.frames.size()) {
      const std::vector<sd::index_t>& truth = pool_.frames[p].truth;
      for (usize k = 0; k < truth.size(); ++k) {
        first_pass_errors_ +=
            k < r.indices.size() && r.indices[k] == truth[k] ? 0 : 1;
      }
      first_pass_symbols_ += truth.size();
    }
  }

  const WorkloadConfig& w_;
  FramePool& pool_;
  const Reference& ref_;
  sd::net::NetClient& client_;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> slot_id_;
  std::vector<Clock::time_point> slot_sent_;
  std::uint64_t first_pass_errors_ = 0;
  std::uint64_t first_pass_symbols_ = 0;
};

/// kNominalRate / the geometric mean of two probe rates, raised to
/// `elasticity`: how much faster than nominal the host runs this work.
double speed_factor(double probe_a, double probe_b, double elasticity) {
  return std::pow(kNominalRate / std::sqrt(probe_a * probe_b), elasticity);
}

/// One traffic slice reduced to its raw metrics.
struct SliceStats {
  double fps = 0.0, cpu_us = 0.0, p50_ms = 0.0, p99_ms = 0.0;
  double setup_s = 0.0;  ///< one set-up of a second serving stack
  std::uint64_t samples = 0;  ///< frames answered = latency samples
  double speed = 1.0;  ///< speed factor for the served traffic
  double setup_speed = 1.0;  ///< speed factor for set-up (elasticity 1)
};

/// A timed phase: its slices and the probe rates taken between them.
/// Normalised values scale each slice by its own speed factor — rates
/// multiplied, times divided — and take the median over slices.
struct Phase {
  std::vector<SliceStats> slices;
  std::vector<double> probes;

  template <typename F>
  [[nodiscard]] double median_over_slices(F f) const {
    std::vector<double> x;
    x.reserve(slices.size());
    for (const SliceStats& s : slices) x.push_back(f(s));
    return median(std::move(x));
  }

  [[nodiscard]] double fps_raw() const {
    return median_over_slices([](const SliceStats& s) { return s.fps; });
  }
  [[nodiscard]] double fps_norm() const {
    return median_over_slices(
        [](const SliceStats& s) { return s.fps * s.speed; });
  }
  [[nodiscard]] double cpu_norm() const {
    return median_over_slices(
        [](const SliceStats& s) { return s.cpu_us / s.speed; });
  }
  [[nodiscard]] double setup_norm_s() const {
    return median_over_slices(
        [](const SliceStats& s) { return s.setup_s / s.setup_speed; });
  }
  [[nodiscard]] double p50_raw_ms() const {
    return median_over_slices([](const SliceStats& s) { return s.p50_ms; });
  }
  [[nodiscard]] double p50_norm_ms() const {
    return median_over_slices(
        [](const SliceStats& s) { return s.p50_ms / s.speed; });
  }
  [[nodiscard]] double p99_norm_ms() const {
    return median_over_slices(
        [](const SliceStats& s) { return s.p99_ms / s.speed; });
  }
};

/// Runs `n` slices of `slice_s` seconds with a probe before each and after
/// the last, always while the server is idle. After each slice's closing
/// probe, `set_up` (when given) times one construction of a second serving
/// stack, so set-up time is sampled across the whole phase like the rest.
Phase run_slices(const WorkloadConfig& w, ClosedLoop& loop, int n,
                 double slice_s, PhaseCount& count, SpanRecorder* rec,
                 const std::function<double()>& set_up) {
  Phase ph;
  ph.probes.push_back(probe_rate());
  for (int i = 0; i < n; ++i) {
    const Slice s = loop.run(slice_s, ~std::uint64_t{0}, count, rec);
    ph.probes.push_back(probe_rate());
    SliceStats st;
    st.samples = s.frames;
    const double before = ph.probes[ph.probes.size() - 2];
    st.speed = speed_factor(before, ph.probes.back(), w.host_elasticity);
    st.setup_speed = speed_factor(before, ph.probes.back(), 1.0);
    st.fps = ratio(static_cast<double>(s.frames), s.seconds);
    st.cpu_us = ratio(s.server_cpu_s, static_cast<double>(s.frames)) * 1e6;
    st.p50_ms = quantile(s.latency_s, 0.50) * 1e3;
    st.p99_ms = quantile(s.latency_s, 0.99) * 1e3;
    if (set_up) st.setup_s = set_up();
    ph.slices.push_back(st);
  }
  return ph;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (usize i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_phase(const char* name, const PhaseCount& c) {
  std::printf("phase %-8s sent %llu  succeeded %llu  failed %llu\n", name,
              static_cast<unsigned long long>(c.sent),
              static_cast<unsigned long long>(c.ok),
              static_cast<unsigned long long>(c.failed));
}

/// Counters whose change over a phase the per-layer metrics use.
struct Counters {
  sd::net::NetStats net;
  sd::dispatch::DispatchStats dispatch;
};

Counters snapshot(ServedStack& stack) {
  return {stack.ingress().stats(),
          stack.shards().shard(0).dispatcher().stats()};
}

/// Per-layer replay of the first frames of the pool through each layer's
/// public functions, with a span around every call.
struct Replay {
  double encode_us = 0.0, decode_us = 0.0, prep_us = 0.0, search_us = 0.0,
         wide_us = 0.0;
  std::uint64_t mismatches = 0;
};

Replay replay_layers(const WorkloadConfig& w, FramePool& pool,
                     const Reference& ref, usize wide_width,
                     SpanRecorder& rec) {
  const usize n = std::min(kReplayFrames, pool.frames.size());
  const std::unique_ptr<sd::Detector> det =
      sd::make_detector(w.system, sd::parse_decoder_spec(w.spec));
  std::vector<std::shared_ptr<const sd::PreprocessedChannel>> preps(
      pool.channels.size());
  std::vector<std::uint8_t> bytes;
  sd::net::WireDecoder decoder;
  sd::net::WireFrame decoded;
  sd::net::WireResponse unused;
  sd::DecodeResult out;
  Replay r;
  for (usize i = 0; i < n; ++i) {
    PoolFrame& pf = pool.frames[i];
    pf.wire.frame_id = i;
    SpanRecorder::Scope root(rec, "replay.frame", i);
    bytes.clear();
    {
      SpanRecorder::Scope s(rec, "net.encode_frame", i);
      sd::net::encode_frame(pf.wire, bytes);
    }
    {
      SpanRecorder::Scope s(rec, "net.wire_decode", i);
      decoder.feed(bytes.data(), bytes.size());
      if (decoder.next(decoded, unused) != sd::net::WireDecoder::Next::kFrame) {
        ++r.mismatches;
      }
    }
    auto& prep = preps[pf.channel];
    if (!prep) {
      SpanRecorder::Scope s(rec, "decode.preprocess", i);
      prep = det->preprocess(pool.channels[pf.channel]);
    }
    {
      SpanRecorder::Scope s(rec, "decode.decode_with", i);
      det->decode_with(*prep, decoded.y, decoded.sigma2, out);
    }
    if (out.indices != ref.indices[i]) ++r.mismatches;
  }

  std::vector<sd::DecodeResult> wide_out(wide_width);
  std::vector<sd::Detector::WideItem> items;
  for (usize i = 0; i < n; i += wide_width) {
    items.clear();
    for (usize k = i; k < std::min(n, i + wide_width); ++k) {
      const PoolFrame& pf = pool.frames[k];
      items.push_back({preps[pf.channel].get(), pf.wire.y, pf.wire.sigma2,
                       &wide_out[k - i]});
    }
    {
      SpanRecorder::Scope s(rec, "decode.decode_wide", i);
      det->decode_wide(items);
    }
    for (usize k = i; k < std::min(n, i + wide_width); ++k) {
      if (wide_out[k - i].indices != ref.indices[k]) ++r.mismatches;
    }
  }

  const auto self = rec.self_times();
  const auto per_call_us = [&](const char* name, double calls) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : ratio(it->second.self_s, calls) * 1e6;
  };
  const auto frames = static_cast<double>(n);
  r.encode_us = per_call_us("net.encode_frame", frames);
  r.decode_us = per_call_us("net.wire_decode", frames);
  const auto prep_it = self.find("decode.preprocess");
  r.prep_us = prep_it == self.end()
                  ? 0.0
                  : ratio(prep_it->second.self_s,
                          static_cast<double>(prep_it->second.count)) * 1e6;
  r.search_us = per_call_us("decode.decode_with", frames);
  r.wide_us = per_call_us("decode.decode_wide", frames);
  return r;
}

/// Modelled sphere@fpga device time per frame on the first pool frames.
double fpga_model_us(const WorkloadConfig& w, const FramePool& pool,
                     SpanRecorder& rec) {
  const std::unique_ptr<sd::Detector> fpga =
      sd::make_detector(w.system, sd::parse_decoder_spec("sphere@fpga"));
  const usize n = std::min(kFpgaModelFrames, pool.frames.size());
  double total_s = 0.0;
  for (usize i = 0; i < n; ++i) {
    const PoolFrame& pf = pool.frames[i];
    SpanRecorder::Scope s(rec, "fpga.model_decode", i);
    const sd::DecodeResult r = fpga->decode(
        pool.channels[pf.channel].matrix(), pf.wire.y, pf.wire.sigma2);
    total_s += r.stats.search_seconds;
  }
  return ratio(total_s, static_cast<double>(n)) * 1e6;
}

int run(const Args& args) {
  const WorkloadConfig* wp = find_workload(args.workload);
  if (wp == nullptr) {
    std::string msg = "unknown workload '";
    msg += args.workload;
    msg += "'; known:";
    for (const WorkloadConfig& w : workloads()) {
      msg += ' ';
      msg += w.name;
    }
    throw std::invalid_argument(msg);
  }
  const WorkloadConfig& w = *wp;
  std::printf("perfbench workload %s seed %llu seconds %.3g trace %d\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("confined to cpu %d\n", confine_to_fastest_cpu());

  const Clock::time_point t_gen = Clock::now();
  FramePool pool = generate_pool(w, args.seed);
  const Reference ref = reference_decode(w, pool);
  std::printf("generated %zu frames (%zu channels) and their reference "
              "decode in %.2f s\n",
              pool.frames.size(), pool.channels.size(), seconds_since(t_gen));

  // The stack that serves the traffic. Set-up time is measured on a second
  // stack, built and torn down once after every timed slice (run_slices).
  auto stack = std::make_unique<ServedStack>(w, args.uds);
  const std::string setup_uds = args.uds + ".setup";
  const std::function<double()> set_up = [&w, &setup_uds] {
    const Clock::time_point t0 = Clock::now();
    const ServedStack probe_stack(w, setup_uds);
    return seconds_since(t0);
  };

  ClosedLoop loop(w, pool, ref, stack->client());
  PhaseCount warm, timed, traced;

  // Warm-up: exactly one pass over the pool, the fixed sequence ser uses.
  const Counters c0 = snapshot(*stack);
  (void)loop.run(INFINITY, pool.frames.size(), warm, nullptr);
  const Counters c1 = snapshot(*stack);
  const double ser = ratio(static_cast<double>(loop.first_pass_errors()),
                           static_cast<double>(loop.first_pass_symbols()));
  const bool ser_matches = loop.first_pass_errors() == ref.symbol_errors &&
                           loop.first_pass_symbols() == ref.symbols;

  const int n_slices =
      std::max(3, static_cast<int>(std::lround(args.seconds / kSliceSeconds)));
  const Phase ph = run_slices(w, loop, n_slices, args.seconds / n_slices, timed,
                              nullptr, set_up);
  const Counters c2 = snapshot(*stack);

  std::vector<Metric> layer;
  Replay rp;
  if (args.trace) {
    SpanRecorder rec(1u << 18);
    const Phase traced_ph =
        run_slices(w, loop, kTracedSlices, kSliceSeconds, traced, &rec, {});

    const auto timed_frames = static_cast<double>(timed.ok + timed.failed);
    const double runs = static_cast<double>(c2.dispatch.fused_runs -
                                            c1.dispatch.fused_runs) +
                        timed_frames -
                        static_cast<double>(c2.dispatch.fused_frames -
                                            c1.dispatch.fused_frames);
    const double fused_width_mean = ratio(timed_frames, runs);
    const usize wide_width = std::max<usize>(
        1, static_cast<usize>(std::lround(fused_width_mean)));

    const double probe_before = probe_rate();
    rp = replay_layers(w, pool, ref, wide_width, rec);
    const double probe_after = probe_rate();
    const double speed =
        speed_factor(probe_before, probe_after, w.host_elasticity);
    const double fpga_us = fpga_model_us(w, pool, rec);
    if (!rec.write_chrome_trace(args.trace_out)) {
      throw std::runtime_error("cannot write " + args.trace_out);
    }
    std::printf("chrome trace: %s (%zu spans)\n", args.trace_out.c_str(),
                rec.spans().size());

    // The server's histograms cover the whole served run.
    const sd::serve::ServerMetrics m = stack->shards().global_metrics();
    const double served_speed = speed_factor(
        median(ph.probes), median(ph.probes), w.host_elasticity);
    const auto wire_frames =
        static_cast<double>(c1.net.frames_rx - c0.net.frames_rx);
    const auto pool_frames = static_cast<double>(pool.frames.size());
    const std::uint64_t elided =
        c1.net.channel_cache_hits - c0.net.channel_cache_hits;
    const std::uint64_t shipped =
        c1.net.channel_cache_misses - c0.net.channel_cache_misses;
    const std::uint64_t prep_hits =
        c1.dispatch.prep_hits - c0.dispatch.prep_hits;
    const std::uint64_t prep_misses =
        c1.dispatch.prep_misses - c0.dispatch.prep_misses;
    const sd::DecodeStats& t = ref.totals;
    layer = {
        {"net.wire_bytes_per_frame",
         ratio(static_cast<double>(c1.net.bytes_rx - c0.net.bytes_rx),
               wire_frames),
         "B"},
        {"net.elision_hit_ratio",
         ratio(static_cast<double>(elided),
               static_cast<double>(elided + shipped)),
         "ratio"},
        {"net.encode_us_per_frame", rp.encode_us / speed, "us"},
        {"net.decode_us_per_frame", rp.decode_us / speed, "us"},
        {"dispatch.prep_hit_ratio",
         ratio(static_cast<double>(prep_hits),
               static_cast<double>(prep_hits + prep_misses)),
         "ratio"},
        {"dispatch.fused_width_mean", fused_width_mean, "frames"},
        {"dispatch.fused_frame_share",
         ratio(static_cast<double>(c2.dispatch.fused_frames -
                                   c1.dispatch.fused_frames),
               timed_frames),
         "ratio"},
        {"dispatch.former_gathered_share",
         ratio(static_cast<double>(c2.dispatch.former_gathered -
                                   c1.dispatch.former_gathered),
               timed_frames),
         "ratio"},
        {"dispatch.steals_per_kframe",
         ratio(static_cast<double>(c2.dispatch.steals - c1.dispatch.steals),
               timed_frames) * 1e3,
         "count"},
        {"serve.queue_wait_p50_us", m.queue_wait.p50_s * 1e6 / served_speed, "us"},
        {"serve.queue_wait_p99_us", m.queue_wait.p99_s * 1e6 / served_speed, "us"},
        {"serve.service_p50_us", m.service.p50_s * 1e6 / served_speed, "us"},
        {"serve.service_p99_us", m.service.p99_s * 1e6 / served_speed, "us"},
        {"decode.prep_us", rp.prep_us / speed, "us"},
        {"decode.search_us_per_frame", rp.search_us / speed, "us"},
        {"decode.wide_us_per_frame", rp.wide_us / speed, "us"},
        {"decode.nodes_per_frame",
         ratio(static_cast<double>(t.nodes_expanded), pool_frames), "count"},
        {"decode.neumann_fallback_share",
         ratio(static_cast<double>(t.neumann_fallbacks), pool_frames),
         "ratio"},
        {"linalg.gemm_calls_per_frame",
         ratio(static_cast<double>(t.gemm_calls), pool_frames), "count"},
        {"linalg.gemm_mflop_per_frame",
         ratio(static_cast<double>(t.flops), pool_frames) * 1e-6, "MFLOP"},
        {"quant.saturations_per_frame",
         ratio(static_cast<double>(t.quant_saturations), pool_frames),
         "count"},
        {"quant.fallback_share",
         ratio(static_cast<double>(t.quant_fallbacks), pool_frames), "ratio"},
        {"fpga.model_us_per_frame", fpga_us, "us"},
        {"host.ref_rate", median(ph.probes), "1/s"},
        {"host.throughput_fps_raw", ph.fps_raw(), "frames/s"},
        {"host.latency_p50_ms_raw", ph.p50_raw_ms(), "ms"},
        {"trace.overhead_ratio", ratio(traced_ph.fps_norm(), ph.fps_norm()),
         "ratio"},
    };
  }

  const Counters end = snapshot(*stack);
  const sd::serve::ServerMetrics m = stack->shards().global_metrics();
  stack.reset();

  const std::uint64_t transport_failures =
      end.net.protocol_errors + end.net.channel_resend_requests +
      end.net.shed_tx;
  const bool server_clean = m.rejected == 0 && m.expired_fallback == 0 &&
                            m.expired_dropped == 0 && m.evicted == 0;
  const std::uint64_t attempted = warm.sent + timed.sent + traced.sent;
  const std::uint64_t failed =
      warm.failed + timed.failed + traced.failed + transport_failures;
  const bool correct = failed == 0 && server_clean && ser_matches &&
                       rp.mismatches == 0 &&
                       attempted == warm.ok + timed.ok + traced.ok;

  print_phase("warm-up", warm);
  print_phase("timed", timed);
  if (args.trace) print_phase("traced", traced);
  std::printf("timed slices (raw frames/s, server cpu us/frame, latency "
              "p50 ms, p99 ms, latency samples, set-up s, speed factor):\n");
  for (const SliceStats& s : ph.slices) {
    std::printf("  %10.1f %8.2f %8.4f %8.4f %8llu %9.6f %7.4f\n", s.fps,
                s.cpu_us, s.p50_ms, s.p99_ms,
                static_cast<unsigned long long>(s.samples), s.setup_s,
                s.speed);
  }
  std::printf("host probe rates (units/s, nominal %.0f):", kNominalRate);
  for (double p : ph.probes) std::printf(" %.1f", p);
  std::printf("\n");
  std::printf("\n%-34s %14s %10s\n", "metric", "value", "unit");
  std::vector<Metric> e2e = {
      {"throughput_fps_norm", ph.fps_norm(), "frames/s"},
      {"latency_p50_ms_norm", ph.p50_norm_ms(), "ms"},
      {"latency_p99_ms_norm", ph.p99_norm_ms(), "ms"},
      {"cpu_us_per_frame_norm", ph.cpu_norm(), "us"},
      {"ser", ser, "ratio"},
      {"setup_s", ph.setup_norm_s(), "s"},
  };
  for (const auto* list : {&e2e, &layer}) {
    for (const Metric& x : *list) {
      std::printf("%-34s %14.6g %10s\n", x.name.c_str(), x.value,
                  x.unit.c_str());
    }
  }
  if (!correct) {
    std::printf("CORRECTNESS FAILURE: failed=%llu transport=%llu "
                "server_clean=%d ser_matches=%d replay_mismatches=%llu\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(transport_failures),
                server_clean ? 1 : 0, ser_matches ? 1 : 0,
                static_cast<unsigned long long>(rp.mismatches));
  }
  print_result(correct, attempted, failed, args.trace ? layer : e2e);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
