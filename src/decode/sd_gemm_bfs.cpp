#include "decode/sd_gemm_bfs.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "decode/decode_scratch.hpp"
#include "decode/mst.hpp"
#include "obs/trace.hpp"

namespace sd {

namespace {

/// Quantized frontier entry: MST node id plus its exact int32 Q(2f) PD.
struct QuantNode {
  NodeId id;
  std::int32_t pd;
};

}  // namespace

/// Per-frame engine state. Each frame keeps its own triangular system, Meta
/// State Table, frontier and radius (ybar AND R may differ per frame), so
/// NodeIds, truncation cuts and stats evolve exactly as in a solo decode
/// whatever the frame's lockstep company.
struct SdGemmBfsDetector::Frame {
  template <class Node>
  struct Levels {
    std::vector<Node> cur;   ///< frontier of the next level to expand
    std::vector<Node> next;  ///< survivors being collected
  };

  // Inputs: the caller fills pre, then bind()s the rest.
  PreprocessScratch prep;
  Preprocessed pre;
  const PreprocessedChannel* chan = nullptr;
  const quant::QuantChannelPrep* qprep = nullptr;
  double sigma2 = 0.0;
  DecodeResult* out = nullptr;
  index_t m = 0;

  // Search state.
  std::optional<MetaStateTable> mst;  ///< rebuilt only when m changes
  Levels<ScratchNode> f32;
  Levels<QuantNode> i16;
  std::vector<std::int16_t> qsyms;  ///< constellation under this frame's spec
  std::vector<index_t> path;
  std::vector<index_t> best_path;
  std::vector<index_t> layered;
  double radius_sq = 0.0;
  std::int32_t radius_q = 0;
  int attempt = 0;
  index_t depth = 0;     ///< next level to expand
  usize block = 0;       ///< index of this frame's R block at the level
  bool active = false;   ///< still advancing in the current lockstep
  bool truncated = false;

  /// Attaches the frame (pre already filled) to its inputs and output slot.
  /// `c` keys R-block sharing in the lockstep (null for one-shot input).
  void bind(const PreprocessedChannel* c, const quant::QuantChannelPrep* q,
            double s2, DecodeResult& o) {
    chan = c;
    qprep = q;
    sigma2 = s2;
    out = &o;
    m = pre.r.rows();
  }
};

/// Float policy: complex A/S staging, gemm_grouped, real PDs compared
/// against the float radius.
struct SdGemmBfsDetector::Fp32Arith {
  using Node = ScratchNode;
  SdGemmBfsDetector& d;

  static Frame::Levels<Node>& levels(Frame& fr) { return fr.f32; }
  static bool saturated(const Frame&) { return false; }
  void start(Frame&) {}
  void begin_attempt(Frame&) {}

  /// One 1 x k row of R per distinct channel, side by side: the level
  /// product forms only row 0, the one the PD recursion reads, bit-identical
  /// to row 0 of the paper's full block product. And a k x cols tree-state
  /// operand.
  void begin_level(index_t a, index_t k, usize cols) {
    d.s_mat_.reshape(k, static_cast<index_t>(cols));
    CMat& a_stack = d.a_stack_;
    a_stack.reshape(1, static_cast<index_t>(d.blocks_.size()) * k);
    for (usize g = 0; g < d.blocks_.size(); ++g) {
      const CMat& r = d.blocks_[g]->pre.r;
      const index_t base = static_cast<index_t>(g) * k;
      for (index_t t = 0; t < k; ++t) a_stack(0, base + t) = r(a, a + t);
    }
  }

  /// Tree-state block of one frontier node: row 0 enumerates the children,
  /// row t repeats the node's symbol t levels up.
  void stage_states(const Frame& fr, index_t col, index_t depth, index_t k) {
    const Constellation& c = *d.c_;
    const index_t p = c.order();
    CMat& s = d.s_mat_;
    for (index_t ci = 0; ci < p; ++ci) s(0, col + ci) = c.point(ci);
    for (index_t t = 1; t < k; ++t) {
      const cplx sym = c.point(fr.path[static_cast<usize>(depth - t)]);
      for (index_t ci = 0; ci < p; ++ci) s(t, col + ci) = sym;
    }
  }

  void product(index_t k, usize cols) {
    d.z_.reshape(1, static_cast<index_t>(cols));
    gemm_grouped(cplx{1, 0}, d.a_stack_, k, d.s_mat_, cplx{0, 0}, d.z_,
                 d.groups_, d.gemm_ws_);
  }

  static void charge(DecodeStats& stats, index_t cols, index_t k) {
    charge_level_gemm(stats, cols, k, LevelOperands::kComplexFloat);
  }

  /// What a frame's PD loop reads at one level: its target and row 0 of
  /// the product.
  struct Level {
    cplx target;
    const cplx* z;
  };

  [[nodiscard]] Level level(const Frame& fr, index_t a, DecodeStats&) const {
    return Level{fr.pre.ybar[static_cast<usize>(a)], d.z_.data()};
  }

  [[nodiscard]] static real child_pd(const Level& lv, real parent,
                                     index_t col, DecodeStats&) {
    return parent + norm2(lv.target - lv.z[col]);
  }

  [[nodiscard]] static double radius(const Frame& fr) { return fr.radius_sq; }
  [[nodiscard]] static double metric(const Frame&, real pd) {
    return static_cast<double>(pd);
  }
};

/// Fixed-point policy: int16 R planes and interleaved states,
/// qgemm_level_grouped, a saturating requantize of each residual, exact
/// int32 PDs against an integer radius, dequantized metric. The level
/// product is always row 0 only: the PD recursion consumes nothing else and
/// 1 x k by k x cols is the madd kernel's native shape.
struct SdGemmBfsDetector::I16Arith {
  using Node = QuantNode;
  SdGemmBfsDetector& d;

  static Frame::Levels<Node>& levels(Frame& fr) { return fr.i16; }

  /// The sphere is as large as Q(2f) can express: an empty frontier is then
  /// a quantization floor, not a radius problem.
  static bool saturated(const Frame& fr) {
    return fr.radius_q >= quant::kQuantPdMax;
  }

  /// Quantizes the constellation into interleaved (re, im) Q(f) pairs —
  /// once per decode, since the scale is per channel.
  void start(Frame& fr) {
    SD_CHECK(fr.qprep != nullptr && fr.qprep->valid(),
             "quantized search needs a calibrated channel prep");
    const quant::QuantSpec& spec = fr.qprep->spec;
    const index_t p = d.c_->order();
    fr.qsyms.resize(2 * static_cast<usize>(p));
    for (index_t i = 0; i < p; ++i) {
      const cplx s = d.c_->point(i);
      std::uint64_t& clamps = fr.out->stats.quant_saturations;
      fr.qsyms[2 * static_cast<usize>(i)] =
          quant::quantize_sat(s.real(), spec, clamps);
      fr.qsyms[2 * static_cast<usize>(i) + 1] =
          quant::quantize_sat(s.imag(), spec, clamps);
    }
  }

  /// Maps the float radius into the Q(2f) integer domain, rounding UP so the
  /// integer sphere never prunes a candidate the float radius would keep at
  /// this scale. Saturation (counted as an overflow) means Q(2f) cannot
  /// express a sphere this large — the search falls back to float if even
  /// that sphere comes up empty.
  void begin_attempt(Frame& fr) {
    const double scale = static_cast<double>(fr.qprep->spec.scale);
    const double scaled = std::ceil(fr.radius_sq * scale * scale);
    if (!(scaled < static_cast<double>(quant::kQuantPdMax))) {
      ++fr.out->stats.quant_overflows;
      fr.radius_q = quant::kQuantPdMax;
    } else {
      fr.radius_q = static_cast<std::int32_t>(scaled);
    }
  }

  void begin_level(index_t a, index_t k, usize cols) {
    d.qs_ri_.reshape(k, 2 * static_cast<index_t>(cols));
    const index_t a_cols = static_cast<index_t>(d.blocks_.size()) * k;
    d.qa_re_.reshape(1, a_cols);
    d.qa_im_.reshape(1, a_cols);
    for (usize g = 0; g < d.blocks_.size(); ++g) {
      const quant::QuantChannelPrep& qp = *d.blocks_[g]->qprep;
      const index_t base = static_cast<index_t>(g) * k;
      for (index_t t = 0; t < k; ++t) {
        d.qa_re_(0, base + t) = qp.r_re(a, a + t);
        d.qa_im_(0, base + t) = qp.r_im(a, a + t);
      }
    }
  }

  void stage_states(const Frame& fr, index_t col, index_t depth, index_t k) {
    const index_t p = d.c_->order();
    std::copy(fr.qsyms.begin(), fr.qsyms.end(), &d.qs_ri_(0, 2 * col));
    for (index_t t = 1; t < k; ++t) {
      const usize si =
          2 * static_cast<usize>(fr.path[static_cast<usize>(depth - t)]);
      const std::int16_t sr = fr.qsyms[si];
      const std::int16_t sim = fr.qsyms[si + 1];
      std::int16_t* row = &d.qs_ri_(t, 2 * col);
      for (index_t c = 0; c < p; ++c) {
        row[2 * c] = sr;
        row[2 * c + 1] = sim;
      }
    }
  }

  void product(index_t k, usize cols) {
    d.qz_re_.reshape(1, static_cast<index_t>(cols));
    d.qz_im_.reshape(1, static_cast<index_t>(cols));
    quant::qgemm_level_grouped(d.qa_re_, d.qa_im_, k, d.qs_ri_, d.qz_re_,
                               d.qz_im_, d.groups_);
  }

  /// The same full-block volume as the float policy (MAC-equivalent
  /// flops), with bytes at the narrow operand widths.
  static void charge(DecodeStats& stats, index_t cols, index_t k) {
    charge_level_gemm(stats, cols, k, LevelOperands::kInt16);
    stats.quant_requants += static_cast<std::uint64_t>(cols);
  }

  /// What a frame's PD loop reads at one level: its target in Q(2f) and row
  /// 0 of the exact product.
  struct Level {
    std::int32_t t_re;
    std::int32_t t_im;
    int frac_bits;
    const std::int32_t* z_re;
    const std::int32_t* z_im;
  };

  [[nodiscard]] Level level(const Frame& fr, index_t a,
                            DecodeStats& stats) const {
    const quant::QuantSpec& spec = fr.qprep->spec;
    const int fb = spec.frac_bits;
    const cplx t = fr.pre.ybar[static_cast<usize>(a)];
    return Level{static_cast<std::int32_t>(quant::quantize_sat(
                     t.real(), spec, stats.quant_saturations))
                     << fb,
                 static_cast<std::int32_t>(quant::quantize_sat(
                     t.imag(), spec, stats.quant_saturations))
                     << fb,
                 fb, d.qz_re_.data(), d.qz_im_.data()};
  }

  /// Residual in exact Q(2f), then the saturating requantize to Q(f) — the
  /// between-levels narrowing — and an exact int32 PD.
  [[nodiscard]] static std::int32_t child_pd(const Level& lv,
                                             std::int32_t parent, index_t col,
                                             DecodeStats& stats) {
    const std::int32_t dre = lv.t_re - lv.z_re[col];
    const std::int32_t dim = lv.t_im - lv.z_im[col];
    const std::int16_t rqr =
        quant::requantize_sat(dre, lv.frac_bits, stats.quant_saturations);
    const std::int16_t rqi =
        quant::requantize_sat(dim, lv.frac_bits, stats.quant_saturations);
    const std::int32_t inc = static_cast<std::int32_t>(rqr) * rqr +
                             static_cast<std::int32_t>(rqi) * rqi;
    return quant::pd_add_sat(parent, inc, stats.quant_overflows);
  }

  [[nodiscard]] static std::int32_t radius(const Frame& fr) {
    return fr.radius_q;
  }
  /// Dequantized PD: path/metric reporting (and the MST) stay in the float
  /// domain; the search itself compares ints.
  [[nodiscard]] static double metric(const Frame& fr, std::int32_t pd) {
    return static_cast<double>(pd) * fr.qprep->spec.inv_scale2;
  }
};

/// The level engine over one arithmetic policy: the lockstep level loop, the
/// per-frame retry driver and the harvest. Every decode entry point runs
/// through it; a single-frame decode is width 1.
template <class Arith>
struct SdGemmBfsDetector::Engine {
  using Node = typename Arith::Node;
  SdGemmBfsDetector& d;
  Arith arith{d};

  /// One lockstep pass over the frames, then each frame finishes alone.
  void solve(std::span<Frame* const> frames) {
    SD_TRACE_SPAN("decode.search");
    for (Frame* fr : frames) start(*fr);
    Timer timer;
    advance(frames);
    for (Frame* fr : frames) {
      finish(*fr);
      // Wall time is genuinely shared across a lockstep; each frame is
      // charged the pass up to its own answer (the *_seconds fields are
      // measurements, not part of the bit-identity contract).
      fr->out->stats.search_seconds = timer.elapsed_seconds();
    }
  }

  /// Starts a fresh search: any partial stats of an earlier policy's
  /// attempts are discarded, as a retry would.
  void start(Frame& fr) {
    SD_CHECK(fr.m <= kGemmKc,
             "SD-GEMM-BFS supports at most kGemmKc (128) transmit antennas");
    const usize m = static_cast<usize>(fr.m);
    fr.out->reset();
    fr.out->stats.preprocess_seconds = fr.pre.seconds;
    fr.out->stats.tree_levels = static_cast<std::uint64_t>(m);
    fr.truncated = false;
    fr.attempt = 0;
    fr.radius_sq = initial_radius_sq(d.opts_.base, fr.sigma2, fr.m);
    if (!fr.mst || fr.mst->levels() != fr.m) fr.mst.emplace(fr.m, 4096);
    fr.path.assign(m, 0);
    fr.best_path.assign(m, 0);
    arith.start(fr);
    begin_attempt(fr);
  }

  void begin_attempt(Frame& fr) {
    arith.begin_attempt(fr);
    fr.mst->reset();
    std::vector<Node>& cur = Arith::levels(fr).cur;
    cur.clear();
    cur.push_back(Node{kRootId, {}});
    fr.depth = 0;
  }

  /// Expands the frames' levels in lockstep (all start at the same depth)
  /// until each reaches the leaves, empties, or is demoted by the fused
  /// operand budget. Frames whose dimension differs from the first frame's
  /// cannot share its levels; they stay behind.
  void advance(std::span<Frame* const> frames) {
    if (frames.empty()) return;
    const index_t p = d.c_->order();
    const index_t m = frames.front()->m;
    // Cap on the stacked tree-state width: the widest operand a SOLO decode
    // can legally form (a full frontier's children). Exceeding it demotes
    // frames — from the END of the set, deterministically — to finish alone,
    // so fused memory never exceeds the sequential worst case times one.
    const usize col_budget = d.opts_.max_frontier * static_cast<usize>(p);
    for (Frame* fr : frames) fr->active = fr->m == m;

    for (index_t depth = frames.front()->depth; depth < m; ++depth) {
      // A frame whose frontier emptied has ended its attempt; finish() owns
      // the radius retry.
      usize active_count = 0;
      usize total_cols = 0;
      for (Frame* fr : frames) {
        if (!fr->active) continue;
        if (Arith::levels(*fr).cur.empty()) {
          fr->active = false;
          continue;
        }
        ++active_count;
        total_cols += Arith::levels(*fr).cur.size() * static_cast<usize>(p);
      }
      for (usize i = frames.size();
           i-- > 0 && total_cols > col_budget && active_count > 1;) {
        Frame& fr = *frames[i];
        if (!fr.active) continue;
        total_cols -= Arith::levels(fr).cur.size() * static_cast<usize>(p);
        fr.active = false;
        --active_count;
      }
      if (active_count == 0) break;

      const index_t a = m - 1 - depth;
      const index_t k = m - a;  // R row-block length = depth + 1

      // One R block per DISTINCT channel among the active frames, in
      // first-appearance order. Same-channel frames share a block (coherent
      // traffic degenerates to the single-block case); i.i.d. traffic gets
      // one block per frame.
      d.blocks_.clear();
      for (Frame* fr : frames) {
        if (!fr->active) continue;
        usize g = 0;
        while (g < d.blocks_.size() && d.blocks_[g]->chan != fr->chan) ++g;
        if (g == d.blocks_.size()) d.blocks_.push_back(fr);
        fr->block = g;
      }
      arith.begin_level(a, k, total_cols);

      // One stacked tree-state operand: frame j's segment is exactly the S
      // it would build solo. Column independence of the grouped kernels
      // (DESIGN.md §12/§14) makes each segment's product bit-identical to the
      // solo product against that frame's own R block.
      d.groups_.clear();
      index_t col_off = 0;
      for (Frame* fr : frames) {
        if (!fr->active) continue;
        const std::vector<Node>& cur = Arith::levels(*fr).cur;
        for (usize ni = 0; ni < cur.size(); ++ni) {
          if (cur[ni].id != kRootId) {
            fr->mst->path_symbols(cur[ni].id, fr->path);
          }
          arith.stage_states(*fr, col_off + static_cast<index_t>(ni) * p,
                             depth, k);
        }
        const index_t cols = static_cast<index_t>(cur.size()) * p;
        d.groups_.push_back(
            GemmGroup{static_cast<index_t>(fr->block) * k, col_off, cols});
        col_off += cols;
      }

      // ONE grouped block-diagonal product for the whole level, across all
      // channels — the cross-channel generalization of the single level GEMM
      // that [1] maps onto the GPU.
      arith.product(k, total_cols);

      // Per-frame consume: prune / insert / truncate with the frame's own
      // MST, radius and stats over its column segment. Stats are charged
      // as-if-solo (each frame "sees" its own product), so lockstep and
      // sequential DecodeStats match field for field.
      col_off = 0;
      for (Frame* fr : frames) {
        if (!fr->active) continue;
        DecodeStats& stats = fr->out->stats;
        auto& [cur, next] = Arith::levels(*fr);
        const usize f = cur.size();
        const index_t cols = static_cast<index_t>(f) * p;
        Arith::charge(stats, cols, k);
        stats.nodes_expanded += f;
        stats.nodes_generated += static_cast<std::uint64_t>(cols);

        MetaStateTable& mst = *fr->mst;
        const auto lv = arith.level(*fr, a, stats);
        const auto radius = Arith::radius(*fr);
        next.clear();
        for (usize ni = 0; ni < f; ++ni) {
          const index_t base_col = col_off + static_cast<index_t>(ni) * p;
          for (index_t c = 0; c < p; ++c) {
            const auto pd =
                Arith::child_pd(lv, cur[ni].pd, base_col + c, stats);
            if (pd >= radius) {
              ++stats.nodes_pruned;
              continue;
            }
            // The MST stores the PD as a float: exact for fp32 PDs, the
            // dequantized value for int16 ones.
            const NodeId id = mst.insert(
                depth, MstNode{cur[ni].id, c,
                               static_cast<real>(Arith::metric(*fr, pd))});
            next.push_back(Node{id, pd});
          }
        }

        const usize cap = d.opts_.max_frontier;
        if (next.size() > cap) {
          // Memory guard: keep the best max_frontier nodes. This is the
          // BER-costing heuristic GPU implementations fall back on.
          //
          // Determinism contract: the cut must be a TOTAL order. A pd-only
          // comparator lets std::nth_element resolve PD ties (common for the
          // symmetric constellations) in stdlib-dependent order, so which
          // tied nodes survive — and every downstream golden number of a
          // truncated decode — varied across toolchains. The NodeId
          // tie-break is total (ids are unique) and reproducible (ids are
          // assigned in frontier order, itself deterministic by induction).
          // partial_sort rather than nth_element so the surviving
          // frontier's ORDER is pinned too: the next level assigns NodeIds
          // in frontier order, and those ids feed the next cut's key. On the
          // int16 path the ties are genuine value ties of EXACT ints.
          fr->truncated = true;
          std::partial_sort(next.begin(),
                            next.begin() + static_cast<std::ptrdiff_t>(cap),
                            next.end(), [](const Node& x, const Node& y2) {
                              return x.pd < y2.pd ||
                                     (x.pd == y2.pd && x.id < y2.id);
                            });
          stats.nodes_pruned += next.size() - cap;
          next.resize(cap);
        }

        cur.swap(next);
        stats.peak_list_size =
            std::max<std::uint64_t>(stats.peak_list_size, cur.size());
        fr->depth = depth + 1;
        col_off += cols;
      }
    }
  }

  /// Runs one frame to its answer: continues a demoted search at width 1,
  /// retries an empty sphere, falls back from int16 to fp32, harvests.
  void finish(Frame& fr) {
    DecodeResult& out = *fr.out;
    std::vector<Node>& cur = Arith::levels(fr).cur;
    for (;;) {
      if (!cur.empty() && fr.depth < fr.m) {
        // Demoted from (or never in) the lockstep: continue at width 1 from
        // the same level, which is exactly where a solo decode would be.
        Frame* const self[] = {&fr};
        advance(self);
        continue;
      }
      if (!cur.empty()) break;  // leaves reached
      if (Arith::saturated(fr)) {
        // Re-run this frame on the float policy — exactly decode_with's
        // float search, with the int16 attempts' partial stats discarded
        // like any retry's.
        Engine<Fp32Arith> f32{d};
        f32.start(fr);
        f32.finish(fr);
        out.stats.quant_fallbacks = 1;
        return;
      }
      // Even an unbounded sphere came up empty: every PD is +inf (non-finite
      // input). Nothing is left to try; the answer below is all symbol 0.
      if (std::isinf(fr.radius_sq)) break;
      // Empty sphere: enlarge the radius and re-run the whole BFS — the
      // standard recovery, and the cost is charged (stats accumulate).
      fr.radius_sq = next_radius_sq(fr.radius_sq, fr.attempt++, out.stats);
      begin_attempt(fr);
    }

    if (!cur.empty()) {
      // Leaf level survivors: the minimum-PD one is the solution.
      const auto best_it = std::min_element(
          cur.begin(), cur.end(),
          [](const Node& x, const Node& y2) { return x.pd < y2.pd; });
      out.stats.leaves_reached += cur.size();
      ++out.stats.radius_updates;
      fr.mst->path_symbols(best_it->id, fr.best_path);
      out.metric = Arith::metric(fr, best_it->pd);
    }
    const usize m = static_cast<usize>(fr.m);
    fr.layered.resize(m);
    for (usize l = 0; l < m; ++l) fr.layered[m - 1 - l] = fr.best_path[l];
    to_antenna_order_into(fr.pre, fr.layered, out.indices);
    materialize_symbols(*d.c_, out);
  }
};

SdGemmBfsDetector::SdGemmBfsDetector(const Constellation& constellation,
                                     BfsOptions options)
    : c_(&constellation),
      opts_(options),
      solo_(std::make_unique<Frame>()) {
  // BFS cannot prune without a finite radius; an unbounded sphere would make
  // the frontier exactly |Omega|^level, i.e. exhaustive ML.
  if (opts_.base.radius_policy == RadiusPolicy::kInfinite) {
    opts_.base.radius_policy = RadiusPolicy::kNoiseScaled;
  }
}

SdGemmBfsDetector::~SdGemmBfsDetector() = default;

DecodeResult SdGemmBfsDetector::decode(const CMat& h, std::span<const cplx> y,
                                       double sigma2) {
  DecodeResult result;
  decode_into(h, y, sigma2, result);
  return result;
}

void SdGemmBfsDetector::decode_into(const CMat& h, std::span<const cplx> y,
                                    double sigma2, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  Frame& fr = *solo_;
  preprocess_into(h, y, opts_.base.sorted_qr, fr.prep, fr.pre);
  const quant::QuantChannelPrep* qprep = nullptr;
  if (opts_.quantized) {
    // Same calibration+quantization code as build_channel_prep's quant
    // kinds, on the same R bytes — so decode_into and decode_with agree
    // bit-for-bit on the quantized path too.
    quant::quantize_channel_prep(fr.pre.r, qlocal_);
    qprep = &qlocal_;
  }
  fr.bind(nullptr, qprep, sigma2, out);
  Frame* const one[] = {&fr};
  solve(one);
  truncated_ = fr.truncated;
}

void SdGemmBfsDetector::decode_with(const PreprocessedChannel& prep,
                                    std::span<const cplx> y, double sigma2,
                                    DecodeResult& out) {
  if (prep.kind != prep_kind()) {
    Detector::decode_with(prep, y, sigma2, out);
    return;
  }
  SD_TRACE_SPAN("decode");
  WideItem item{&prep, y, sigma2, &out};
  decode_wide({&item, 1});
}

void SdGemmBfsDetector::decode_wide(std::span<WideItem> items) {
  if (items.empty()) return;
  SD_TRACE_SPAN("decode.batch");
  while (pool_.size() < items.size()) {
    pool_.push_back(std::make_unique<Frame>());
  }
  // Each frame derives its triangular system from ITS OWN prep. A frame whose
  // prep kind doesn't match needs the one-shot fallback of decode_with().
  frames_.clear();
  for (usize i = 0; i < items.size(); ++i) {
    Frame& fr = *pool_[i];
    const WideItem& item = items[i];
    SD_CHECK(item.prep != nullptr, "wide item missing a prepared channel");
    SD_CHECK(item.out != nullptr, "wide item missing an output slot");
    if (item.prep->kind != prep_kind()) {
      decode_with(*item.prep, item.y, item.sigma2, *item.out);
      fr.truncated = truncated_;
      continue;
    }
    preprocess_with_channel(*item.prep, item.y, fr.prep, fr.pre);
    fr.bind(item.prep, opts_.quantized ? &item.prep->qprep : nullptr,
            item.sigma2, *item.out);
    frames_.push_back(&fr);
  }
  solve(frames_);
  // Match a sequential loop's view: report the batch's LAST frame.
  truncated_ = pool_[items.size() - 1]->truncated;
}

void SdGemmBfsDetector::solve(std::span<Frame* const> frames) {
  if (frames.empty()) return;
  if (opts_.quantized) {
    Engine<I16Arith>{*this}.solve(frames);
  } else {
    Engine<Fp32Arith>{*this}.solve(frames);
  }
}

}  // namespace sd
