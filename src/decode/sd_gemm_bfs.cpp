#include "decode/sd_gemm_bfs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "quant/quant_gemm.hpp"

namespace sd {

namespace {

/// Frontier entry: a node's PD, its parent's row in the frontier's path
/// array and its own symbol. Once a level is cut, a node's index in the
/// frontier is its path row.
template <class Pd>
struct Node {
  Pd pd;
  std::uint32_t parent;
  std::uint8_t symbol;
};

/// A level's tallies of the saturating int16 arithmetic, kept out of
/// DecodeStats until the level is done.
struct LevelCounts {
  std::uint64_t saturations = 0;
  std::uint64_t overflows = 0;
};

}  // namespace

/// Per-frame engine state: the triangular system, the frontier with its
/// paths, and the radius.
struct SdGemmBfsDetector::Frame {
  /// Both buffers only grow, so a level's f·p children are written without
  /// clearing and capacity is reused across levels and frames.
  template <class Pd>
  struct Levels {
    std::vector<Node<Pd>> cur;   ///< frontier of the next level to expand
    std::vector<Node<Pd>> next;  ///< one slot per child of the level
    usize width = 0;             ///< frontier nodes in cur
  };

  // Inputs: the caller fills pre, then bind()s the rest.
  PreprocessScratch prep;
  Preprocessed pre;
  const quant::QuantChannelPrep* qprep = nullptr;
  double sigma2 = 0.0;
  DecodeResult* out = nullptr;
  index_t m = 0;

  // Search state.
  Levels<real> f32;
  Levels<std::int32_t> i16;
  /// Row r (m bytes) holds the path of frontier node r: the symbol decided
  /// at each depth so far. `next_paths` is built as a level is cut.
  std::vector<std::uint8_t> paths;
  std::vector<std::uint8_t> next_paths;
  std::vector<std::int16_t> qsyms;  ///< constellation under this frame's spec
  std::vector<index_t> path;        ///< the answer's symbol at each depth
  std::vector<index_t> layered;
  bool searchable = false;  ///< R is finite (finite_triangle)
  /// kBabaiCapped: the Babai point's path row, which caps the radius; empty
  /// when the cap does not apply to the frame.
  std::vector<std::uint8_t> babai;
  double radius_sq = 0.0;
  std::int32_t radius_q = 0;
  int attempt = 0;
  index_t depth = 0;  ///< next level to expand
  bool truncated = false;

  // Level-product scratch: the level's tables and one parent's products.
  Row0Table table;
  CVec z;
  std::vector<quant::QDot> qtable;
  std::vector<std::int32_t> qterm_re;
  std::vector<std::int32_t> qterm_im;

  /// Attaches the frame (pre already filled) to its inputs and output slot.
  void bind(const quant::QuantChannelPrep* q, double s2, DecodeResult& o) {
    qprep = q;
    sigma2 = s2;
    out = &o;
    m = pre.r.rows();
  }
};

/// Float policy: row-0 products from a per-level table, real PDs
/// compared against the float radius.
struct SdGemmBfsDetector::Fp32Arith {
  using Pd = real;
  SdGemmBfsDetector& d;

  static Frame::Levels<Pd>& levels(Frame& fr) { return fr.f32; }
  static bool saturated(const Frame&) { return false; }
  void start(Frame&) {}
  void begin_attempt(Frame&) {}

  static void charge(DecodeStats& stats, index_t cols, index_t k) {
    charge_level_gemm(stats, cols, k, LevelOperands::kComplexFloat);
  }

  /// What a level's PD loop reads: its target and the current parent's
  /// row 0 of the product.
  struct Level {
    cplx target;
    const cplx* z;
  };

  /// Tabulates R's row a against the alphabet for the whole level.
  [[nodiscard]] Level level(Frame& fr, index_t a, index_t k,
                            DecodeStats&) const {
    fr.z.resize(static_cast<usize>(d.c_->order()));
    build_row0_table(fr.pre.r.row(a).subspan(static_cast<usize>(a),
                                             static_cast<usize>(k)),
                     d.c_->points(), fr.table);
    return Level{fr.pre.ybar[static_cast<usize>(a)], fr.z.data()};
  }

  /// Row 0 of one parent's product, bit-identical to the level GEMM's.
  static void product(Frame& fr, Level&, std::span<const std::uint8_t> path) {
    level_row0_from_table(fr.table, path, fr.z);
  }

  [[nodiscard]] static real child_pd(const Level& lv, real parent,
                                     index_t c, LevelCounts&) {
    return parent + norm2(lv.target - lv.z[c]);
  }

  [[nodiscard]] static double radius(const Frame& fr) { return fr.radius_sq; }
  [[nodiscard]] static double metric(const Frame&, real pd) {
    return static_cast<double>(pd);
  }
  /// The least radius whose keep test passes a node of PD `pd`.
  [[nodiscard]] static double radius_above(const Frame&, real pd) {
    return std::nextafter(static_cast<double>(pd),
                          std::numeric_limits<double>::infinity());
  }
};

/// Fixed-point policy: exact int32 row-0 products from int16 R and
/// symbols, a saturating requantize of each residual, exact int32 PDs
/// against an integer radius, dequantized metric.
struct SdGemmBfsDetector::I16Arith {
  using Pd = std::int32_t;
  SdGemmBfsDetector& d;

  static Frame::Levels<Pd>& levels(Frame& fr) { return fr.i16; }

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

  /// The same full-block volume as the float policy (MAC-equivalent
  /// flops), with bytes at the narrow operand widths.
  static void charge(DecodeStats& stats, index_t cols, index_t k) {
    charge_level_gemm(stats, cols, k, LevelOperands::kInt16);
    stats.quant_requants += static_cast<std::uint64_t>(cols);
  }

  /// What a level's PD loop reads: its target in Q(2f), the children's
  /// terms, the parents' term table and the current parent's dot.
  struct Level {
    std::int32_t t_re;
    std::int32_t t_im;
    int frac_bits;
    const std::int32_t* term_re;
    const std::int32_t* term_im;
    std::span<const quant::QDot> table;
    usize p;
    quant::QDot dot;
  };

  /// Tabulates the children's terms and every possible parent term of the
  /// level.
  [[nodiscard]] Level level(Frame& fr, index_t a, index_t k,
                            DecodeStats& stats) const {
    const quant::QuantChannelPrep& qp = *fr.qprep;
    const quant::QuantSpec& spec = qp.spec;
    const int fb = spec.frac_bits;
    const cplx t = fr.pre.ybar[static_cast<usize>(a)];
    const usize p = static_cast<usize>(d.c_->order());
    fr.qterm_re.resize(p);
    fr.qterm_im.resize(p);
    quant::qrow0_child_terms(qp.r_re(a, a), qp.r_im(a, a), fr.qsyms,
                             fr.qterm_re, fr.qterm_im);
    const usize tail = static_cast<usize>(k - 1);
    fr.qtable.resize(tail * p);
    quant::qrow0_parent_table(
        qp.r_re.row(a).subspan(static_cast<usize>(a) + 1, tail),
        qp.r_im.row(a).subspan(static_cast<usize>(a) + 1, tail), fr.qsyms,
        fr.qtable);
    return Level{static_cast<std::int32_t>(quant::quantize_sat(
                     t.real(), spec, stats.quant_saturations))
                     << fb,
                 static_cast<std::int32_t>(quant::quantize_sat(
                     t.imag(), spec, stats.quant_saturations))
                     << fb,
                 fb,
                 fr.qterm_re.data(),
                 fr.qterm_im.data(),
                 fr.qtable,
                 p,
                 {}};
  }

  /// The parent's exact share of row 0, summed from the table once for its
  /// children.
  static void product(Frame&, Level& lv, std::span<const std::uint8_t> path) {
    lv.dot = quant::qrow0_table_dot(lv.table, lv.p, path);
  }

  /// Residual in exact Q(2f), then the saturating requantize to Q(f) — the
  /// between-levels narrowing — and an exact int32 PD.
  [[nodiscard]] static std::int32_t child_pd(const Level& lv,
                                             std::int32_t parent, index_t c,
                                             LevelCounts& counts) {
    const std::int32_t dre = lv.t_re - (lv.term_re[c] + lv.dot.re);
    const std::int32_t dim = lv.t_im - (lv.term_im[c] + lv.dot.im);
    const std::int16_t rqr =
        quant::requantize_sat(dre, lv.frac_bits, counts.saturations);
    const std::int16_t rqi =
        quant::requantize_sat(dim, lv.frac_bits, counts.saturations);
    const std::int32_t inc = static_cast<std::int32_t>(rqr) * rqr +
                             static_cast<std::int32_t>(rqi) * rqi;
    return quant::pd_add_sat(parent, inc, counts.overflows);
  }

  [[nodiscard]] static std::int32_t radius(const Frame& fr) {
    return fr.radius_q;
  }
  /// Dequantized PD: metric reporting stays in the float domain; the search
  /// itself compares ints.
  [[nodiscard]] static double metric(const Frame& fr, std::int32_t pd) {
    return static_cast<double>(pd) * fr.qprep->spec.inv_scale2;
  }
  /// The float radius that begin_attempt() maps to pd + 1, exactly: the
  /// scale is a power of two. A saturated PD sets no cap.
  [[nodiscard]] static double radius_above(const Frame& fr, std::int32_t pd) {
    if (pd >= quant::kQuantPdMax) {
      return std::numeric_limits<double>::infinity();
    }
    return (static_cast<double>(pd) + 1.0) * fr.qprep->spec.inv_scale2;
  }
};

/// The level engine over one arithmetic policy: the level loop, the retry
/// driver and the harvest.
template <class Arith>
struct SdGemmBfsDetector::Engine {
  using Pd = typename Arith::Pd;
  SdGemmBfsDetector& d;
  Arith arith{d};

  void solve(Frame& fr) {
    SD_TRACE_SPAN("decode.search");
    Timer timer;
    fr.searchable = finite_triangle(fr.pre.r);
    find_babai(fr);
    start(fr);
    finish(fr);
    fr.out->stats.search_seconds = timer.elapsed_seconds();
  }

  /// kBabaiCapped: the Babai point's path, once per frame. The cap does not
  /// apply, and the noise sphere starts the search as under kNoiseScaled,
  /// for a non-finite R, a sigma2 that is not positive and finite (which
  /// takes the radius fallback) or a non-finite Babai metric (a NaN sample).
  void find_babai(Frame& fr) const {
    fr.babai.clear();
    if (d.opts_.base.radius_policy != RadiusPolicy::kBabaiCapped ||
        !fr.searchable || !(fr.sigma2 > 0.0) || !std::isfinite(fr.sigma2)) {
      return;
    }
    fr.path.resize(static_cast<usize>(fr.m));
    if (!std::isfinite(babai_point(fr.pre, *d.c_, fr.path))) return;
    for (const index_t sym : fr.path) {
      fr.babai.push_back(static_cast<std::uint8_t>(sym));
    }
  }

  /// The Babai leaf's PD in this policy's arithmetic: the level products and
  /// PD steps the search itself takes along that path, with their counts
  /// left out of the frame's stats.
  [[nodiscard]] Pd babai_pd(Frame& fr) {
    DecodeStats unused;
    LevelCounts counts;
    Pd pd{};
    for (index_t depth = 0; depth < fr.m; ++depth) {
      const usize du = static_cast<usize>(depth);
      auto lv = arith.level(fr, fr.m - 1 - depth, depth + 1, unused);
      Arith::product(fr, lv, {fr.babai.data(), du});
      pd = Arith::child_pd(lv, pd, fr.babai[du], counts);
    }
    return pd;
  }

  /// Starts a fresh search: any partial stats of an earlier policy's
  /// attempts are discarded, as a retry would.
  void start(Frame& fr) {
    SD_CHECK(fr.m <= kGemmKc,
             "SD-GEMM-BFS supports at most kGemmKc (128) transmit antennas");
    fr.out->reset();
    fr.out->stats.preprocess_seconds = fr.pre.seconds;
    fr.out->stats.tree_levels = static_cast<std::uint64_t>(fr.m);
    fr.truncated = false;
    fr.attempt = 0;
    fr.radius_sq = initial_radius_sq(d.opts_.base, fr.sigma2, fr.m);
    arith.start(fr);
    // kBabaiCapped: the Babai leaf, and every leaf no worse, stays inside
    // the sphere. Any radius above the answer's PD reaches the same answer
    // (DESIGN.md §3), so the cap changes only the work.
    if (!fr.babai.empty()) {
      fr.radius_sq =
          std::min(fr.radius_sq, Arith::radius_above(fr, babai_pd(fr)));
    }
    begin_attempt(fr);
  }

  /// Restarts from the root, whose path is empty.
  void begin_attempt(Frame& fr) {
    arith.begin_attempt(fr);
    Frame::Levels<Pd>& lvls = Arith::levels(fr);
    if (lvls.cur.empty()) lvls.cur.resize(1);
    lvls.cur[0] = Node<Pd>{Pd{}, 0, 0};
    lvls.width = 1;
    fr.paths.resize(static_cast<usize>(fr.m));
    fr.depth = 0;
  }

  /// Expands one level: every frontier node's children are evaluated from
  /// the node's path and the level's tables and kept inside the radius; the
  /// survivors are cut to max_frontier and their paths built.
  void expand_level(Frame& fr) {
    const index_t p = d.c_->order();
    const index_t depth = fr.depth;
    const index_t a = fr.m - 1 - depth;
    const index_t k = depth + 1;  // R row-block length
    const usize m = static_cast<usize>(fr.m);
    DecodeStats& stats = fr.out->stats;
    Frame::Levels<Pd>& lvls = Arith::levels(fr);
    const usize f = lvls.width;
    const usize cols = f * static_cast<usize>(p);
    Arith::charge(stats, static_cast<index_t>(cols), k);
    stats.nodes_expanded += f;
    stats.nodes_generated += cols;

    auto lv = arith.level(fr, a, k, stats);
    const auto radius = Arith::radius(fr);
    if (lvls.next.size() < cols) lvls.next.resize(cols);
    const Node<Pd>* cur = lvls.cur.data();
    Node<Pd>* next = lvls.next.data();
    LevelCounts counts;
    usize kept = 0;
    for (usize ni = 0; ni < f; ++ni) {
      Arith::product(fr, lv,
                     {&fr.paths[ni * m], static_cast<usize>(depth)});
      const Pd parent = cur[ni].pd;
      for (index_t c = 0; c < p; ++c) {
        const Pd pd = Arith::child_pd(lv, parent, c, counts);
        // Every child is written, but the count advances only for one
        // inside the radius. A NaN PD (non-finite input) fails the test and
        // is pruned.
        next[kept] = Node<Pd>{pd, static_cast<std::uint32_t>(ni),
                              static_cast<std::uint8_t>(c)};
        kept += static_cast<usize>(pd < radius);
      }
    }
    stats.nodes_pruned += cols - kept;
    stats.quant_saturations += counts.saturations;
    stats.quant_overflows += counts.overflows;

    const usize cap = d.opts_.max_frontier;
    if (kept > cap) {
      // Memory guard: keep the best max_frontier nodes. This is the
      // BER-costing heuristic GPU implementations fall back on.
      //
      // Determinism contract: the cut must be a TOTAL order. A pd-only
      // comparator lets std::partial_sort resolve PD ties (common for the
      // symmetric constellations) in stdlib-dependent order, so which tied
      // nodes survive — and every downstream golden number of a truncated
      // decode — would vary across toolchains. Ties break on
      // (parent, symbol), which is unique within a level and is the order
      // the children were generated in, itself deterministic by induction.
      // partial_sort rather than nth_element so the surviving frontier's
      // ORDER is pinned too: the next level's parents are numbered in
      // frontier order, and those numbers feed the next cut's key. On the
      // int16 path the ties are genuine value ties of EXACT ints.
      fr.truncated = true;
      std::partial_sort(next, next + cap, next + kept,
                        [](const Node<Pd>& x, const Node<Pd>& y2) {
                          if (x.pd != y2.pd) return x.pd < y2.pd;
                          if (x.parent != y2.parent) {
                            return x.parent < y2.parent;
                          }
                          return x.symbol < y2.symbol;
                        });
      stats.nodes_pruned += kept - cap;
      kept = cap;
    }

    // Each kept node's path row: its parent's row plus its own symbol.
    fr.next_paths.resize(kept * m);
    for (usize j = 0; j < kept; ++j) {
      std::uint8_t* row = &fr.next_paths[j * m];
      std::copy_n(&fr.paths[next[j].parent * m], depth, row);
      row[depth] = next[j].symbol;
    }
    fr.paths.swap(fr.next_paths);
    lvls.cur.swap(lvls.next);
    lvls.width = kept;
    stats.peak_list_size = std::max<std::uint64_t>(stats.peak_list_size, kept);
    fr.depth = depth + 1;
  }

  /// Runs the frame to its answer: the levels, a retry of an empty sphere,
  /// the int16 -> fp32 fallback, the harvest.
  void finish(Frame& fr) {
    DecodeResult& out = *fr.out;
    Frame::Levels<Pd>& lvls = Arith::levels(fr);
    // A non-finite R is not searched; the Babai point answers.
    if (!fr.searchable) lvls.width = 0;
    while (fr.searchable) {
      while (lvls.width != 0 && fr.depth < fr.m) expand_level(fr);
      if (lvls.width != 0) break;  // leaves reached
      if (Arith::saturated(fr)) {
        // Re-run this frame on the float policy — the float detector's
        // exact search, with the int16 attempts' partial stats discarded
        // like any retry's.
        Engine<Fp32Arith> f32{d};
        f32.start(fr);
        f32.finish(fr);
        out.stats.quant_fallbacks = 1;
        return;
      }
      // Even an unbounded sphere came up empty: every PD is +inf or NaN
      // (non-finite input). Nothing is left to try; the Babai point answers.
      if (std::isinf(fr.radius_sq)) break;
      // Empty sphere: enlarge the radius and re-run the whole BFS — the
      // standard recovery, and the cost is charged (stats accumulate).
      fr.radius_sq = next_radius_sq(fr.radius_sq, fr.attempt++, out.stats);
      begin_attempt(fr);
    }

    const usize m = static_cast<usize>(fr.m);
    fr.path.resize(m);
    if (lvls.width != 0) {
      // Leaf level survivors: the minimum-PD one is the solution, and its
      // path row holds its symbol at every depth.
      const Node<Pd>* leaves = lvls.cur.data();
      const Node<Pd>* best = std::min_element(
          leaves, leaves + lvls.width,
          [](const Node<Pd>& x, const Node<Pd>& y2) { return x.pd < y2.pd; });
      out.stats.leaves_reached += lvls.width;
      ++out.stats.radius_updates;
      std::copy_n(&fr.paths[static_cast<usize>(best - leaves) * m], m,
                  fr.path.begin());
      out.metric = Arith::metric(fr, best->pd);
    } else {
      out.metric = babai_point(fr.pre, *d.c_, fr.path);
    }
    path_to_antenna_order(fr.pre, fr.path, fr.layered, out.indices);
    materialize_symbols(*d.c_, out);
  }
};

SdGemmBfsDetector::SdGemmBfsDetector(const Constellation& constellation,
                                     BfsOptions options)
    : c_(&constellation),
      opts_(options),
      frame_(std::make_unique<Frame>()) {
  SD_CHECK(opts_.max_frontier >= 1, "the BFS frontier must hold a node");
}

BfsOptions kbest_options(usize k) {
  BfsOptions opts;
  opts.base.radius_policy = RadiusPolicy::kInfinite;
  opts.base.sorted_qr = true;
  opts.max_frontier = k;
  return opts;
}

SdGemmBfsDetector::~SdGemmBfsDetector() = default;

void SdGemmBfsDetector::decode_frame(const CMat& h,
                                     const PreprocessedChannel* prep,
                                     std::span<const cplx> y, double sigma2,
                                     DecodeResult& out) {
  Frame& fr = *frame_;
  preprocess_frame(h, prep, y, opts_.base.sorted_qr, fr.prep, fr.pre);
  const quant::QuantChannelPrep* qprep = nullptr;
  if (opts_.quantized) {
    if (prep == nullptr) {
      // Same calibration+quantization code as build_channel_prep's quant
      // kinds, on the same R bytes — so cached and uncached frames agree
      // bit-for-bit on the quantized path too.
      quant::quantize_channel_prep(fr.pre.r, qlocal_);
    }
    qprep = prep != nullptr ? &prep->qprep : &qlocal_;
  }
  fr.bind(qprep, sigma2, out);
  solve(fr);
}

void SdGemmBfsDetector::solve(Frame& frame) {
  if (opts_.quantized) {
    Engine<I16Arith>{*this}.solve(frame);
  } else {
    Engine<Fp32Arith>{*this}.solve(frame);
  }
  truncated_ = frame.truncated;
}

}  // namespace sd
