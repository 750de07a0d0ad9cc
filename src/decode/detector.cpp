#include "decode/detector.hpp"

#include <string>

#include "common/error.hpp"
#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace sd {

void DecodeStats::export_counters(obs::CounterRegistry& registry,
                                  std::string_view prefix) const {
  const std::string p = prefix.empty() ? "" : std::string(prefix) + ".";
  registry.set(p + "nodes_expanded", nodes_expanded);
  registry.set(p + "nodes_generated", nodes_generated);
  registry.set(p + "nodes_pruned", nodes_pruned);
  registry.set(p + "leaves_reached", leaves_reached);
  registry.set(p + "radius_updates", radius_updates);
  registry.set(p + "gemm_calls", gemm_calls);
  registry.set(p + "flops", flops);
  registry.set(p + "sort_ops", sort_ops);
  registry.set(p + "bytes_touched", bytes_touched);
  registry.set(p + "tree_levels", tree_levels);
  registry.set(p + "peak_list_size", peak_list_size);
  registry.set(p + "quant_saturations", quant_saturations);
  registry.set(p + "quant_overflows", quant_overflows);
  registry.set(p + "quant_requants", quant_requants);
  registry.set(p + "quant_fallbacks", quant_fallbacks);
  registry.set(p + "radius_fallbacks", radius_fallbacks);
  registry.set(p + "neumann_terms", neumann_terms);
  registry.set(p + "neumann_exact_solves", neumann_exact_solves);
  registry.set(p + "neumann_fallbacks", neumann_fallbacks);
  registry.set(p + "node_budget_hit", std::uint64_t{node_budget_hit ? 1u : 0u});
  registry.set(p + "preprocess_seconds", preprocess_seconds);
  registry.set(p + "search_seconds", search_seconds);
}

DecodeResult Detector::decode(const CMat& h, std::span<const cplx> y,
                              double sigma2) {
  DecodeResult result;
  decode_into(h, y, sigma2, result);
  return result;
}

void Detector::decode_into(const CMat& h, std::span<const cplx> y,
                           double sigma2, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  out.reset();
  decode_frame(h, nullptr, y, sigma2, out);
}

void Detector::decode_with(const PreprocessedChannel& prep,
                           std::span<const cplx> y, double sigma2,
                           DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  out.reset();
  decode_frame(prep.channel.matrix(), matching_prep(prep), y, sigma2, out);
}

void Detector::decode_wide(std::span<WideItem> items) {
  for (WideItem& item : items) {
    SD_CHECK(item.prep != nullptr, "wide item missing a prepared channel");
    SD_CHECK(item.out != nullptr, "wide item missing an output slot");
    decode_with(*item.prep, item.y, item.sigma2, *item.out);
  }
}

double residual_metric(const CMat& h, std::span<const cplx> y,
                       std::span<const cplx> s) {
  SD_CHECK(h.rows() == static_cast<index_t>(y.size()), "y length mismatch");
  SD_CHECK(h.cols() == static_cast<index_t>(s.size()), "s length mismatch");
  CVec r(y.begin(), y.end());
  gemv(Op::kNone, cplx{-1, 0}, h, s, cplx{1, 0}, r);
  return norm2_sq(r);
}

void materialize_symbols(const Constellation& c, DecodeResult& result) {
  SD_TRACE_SPAN("decode.materialize");
  result.symbols.resize(result.indices.size());
  for (usize i = 0; i < result.indices.size(); ++i) {
    result.symbols[i] = c.point(result.indices[i]);
  }
}

}  // namespace sd
