#include "dispatch/cost_model.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "mimo/channel.hpp"
#include "obs/json.hpp"

namespace sd::dispatch {

FrameFeatures FrameFeatures::extract(const ChannelHandle& channel,
                                     double sigma2, index_t mod_order) {
  const CMat& h = channel.matrix();
  const ChannelSummary& summary = channel.summary();
  FrameFeatures f;
  f.num_tx = h.cols();
  f.num_rx = h.rows();
  f.mod_order = mod_order;
  f.sigma2 = sigma2;
  f.snr_db = sigma2 > 0.0 && h.cols() > 0 ? sigma2_to_snr_db(sigma2, h.cols())
                                          : 60.0;
  f.finite_h = summary.finite;
  const double min_norm = summary.min_col_norm2;
  const double max_norm = summary.max_col_norm2;
  f.cond_proxy =
      min_norm > 0.0 ? std::sqrt(max_norm / min_norm) : 16.0;  // clamp target
  f.cond_proxy = std::clamp(f.cond_proxy, 1.0, 16.0);
  return f;
}

CostModel::CostModel(CostModelOptions opts) : opts_(opts) {
  SD_CHECK(opts_.ewma_alpha > 0.0 && opts_.ewma_alpha <= 1.0,
           "EWMA alpha must be in (0, 1]");
  SD_CHECK(opts_.snr_bucket_db > 0.0, "SNR bucket width must be positive");
}

int CostModel::register_backend(std::string label, double seconds_per_node,
                                double overhead_s, std::string precision) {
  SD_CHECK(seconds_per_node > 0.0 && overhead_s >= 0.0,
           "cost-model rate priors must be positive");
  SD_CHECK(precision.size() <= kMaxPrecisionChars,
           "cost-model precision name is too long");
  std::lock_guard<std::mutex> lock(mu_);
  rates_.push_back(
      {std::move(label), seconds_per_node, overhead_s, std::move(precision)});
  return static_cast<int>(rates_.size()) - 1;
}

usize CostModel::backend_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rates_.size();
}

double CostModel::prior_nodes(const FrameFeatures& f, DecodeTier tier) {
  const double m = std::max<double>(1.0, static_cast<double>(f.num_tx));
  const double order = std::max<double>(2.0, static_cast<double>(f.mod_order));
  switch (tier) {
    case DecodeTier::kLinear:
      return m * m;  // equalize-and-slice: one small solve
    case DecodeTier::kKBest:
      return m * 8.0 * order;  // fixed-width survivor expansion
    case DecodeTier::kMmseApprox: {
      // Gram-domain MMSE with a Neumann-series inverse: a few m x m Jacobi
      // sweeps — but the series only converges when A = G + sigma2 I is
      // diagonally dominant, i.e. the channel is tall. The penalty diverges
      // as N_r -> M (the residual guard would fall back to exact Cholesky
      // per frame), so square channels route to tree search and tall
      // massive-MIMO channels route here.
      const double nr =
          f.num_rx > 0 ? std::max(m, static_cast<double>(f.num_rx)) : m;
      const double dominance = 1.0 - std::sqrt(m / nr);
      const double penalty = 1.0 / std::max(1.0 / 64.0, dominance);
      return 0.5 * m * m * penalty;
    }
    case DecodeTier::kPrimary:
      break;
  }
  // Sphere decoding: the explored-tree size grows exponentially in M with a
  // noise-dependent exponent (the paper's complexity curves). gamma shrinks
  // monotonically with SNR, so lower SNR => non-decreasing predicted cost.
  const double snr_lin = std::max(std::pow(10.0, f.snr_db / 10.0), 1e-3);
  const double gamma = 0.2 + 1.1 / (1.0 + snr_lin / 6.0);
  const double cond = std::clamp(f.cond_proxy, 1.0, 16.0);
  return m * order * std::pow(order, 0.25 * m * gamma) * std::sqrt(cond);
}

void CostModel::KeyBuffer::append(std::string_view text) noexcept {
  std::memcpy(chars.data() + size, text.data(), text.size());
  size += text.size();
}

void CostModel::KeyBuffer::append(long long v) noexcept {
  char* const first = chars.data();
  size = static_cast<usize>(
      std::to_chars(first + size, first + chars.size(), v).ptr - first);
}

std::string_view CostModel::bucket_key(const FrameFeatures& f, int backend,
                                       DecodeTier tier, bool prep_hit,
                                       KeyBuffer& out) const {
  const long snr_bucket =
      std::lround(std::floor(f.snr_db / opts_.snr_bucket_db));
  const long cond_bucket = std::lround(
      std::floor(std::log2(std::clamp(f.cond_proxy, 1.0, 16.0))));
  out.size = 0;
  out.append("b");
  out.append(backend);
  out.append(".t");
  out.append(static_cast<int>(tier));
  out.append(".m");
  out.append(f.num_tx);
  out.append(".q");
  out.append(f.mod_order);
  out.append(".s");
  out.append(snr_bucket);
  out.append(".c");
  out.append(cond_bucket);
  // Rectangular channels calibrate separately (a 128x8 decode costs nothing
  // like an 8x8 one); square frames keep the historical key shape so v1-v3
  // exports warm-start the same buckets they always did.
  if (f.num_rx > 0 && f.num_rx != f.num_tx) {
    out.append(".r");
    out.append(f.num_rx);
  }
  out.append(prep_hit ? ".h1" : ".h0");
  // Non-fp32 datapaths calibrate separately; fp32/empty keeps the historical
  // key shape so v1/v2 exports warm-start the same buckets they always did.
  const std::string& precision = rates_[static_cast<usize>(backend)].precision;
  if (!precision.empty() && precision != "fp32") {
    out.append(".p");
    out.append(precision);
  }
  return out.view();
}

CostPrediction CostModel::predict(const FrameFeatures& f, int backend,
                                  DecodeTier tier, bool prep_hit) const {
  std::lock_guard<std::mutex> lock(mu_);
  SD_CHECK(backend >= 0 && static_cast<usize>(backend) < rates_.size(),
           "cost-model backend id out of range");
  const Rate& rate = rates_[static_cast<usize>(backend)];
  CostPrediction p;
  KeyBuffer key;
  const auto it = buckets_.find(bucket_key(f, backend, tier, prep_hit, key));
  if (it != buckets_.end() && it->second.count > 0) {
    p.warm = true;
    p.nodes = it->second.nodes_ewma;
    if (opts_.adapt_rates) {
      p.seconds = it->second.seconds_ewma;
      return p;
    }
  } else {
    p.nodes = prior_nodes(f, tier);
  }
  p.seconds = rate.overhead_s + p.nodes * rate.seconds_per_node;
  return p;
}

void CostModel::observe(const FrameFeatures& f, int backend, DecodeTier tier,
                        std::uint64_t nodes_expanded, double charged_seconds,
                        bool prep_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  SD_CHECK(backend >= 0 && static_cast<usize>(backend) < rates_.size(),
           "cost-model backend id out of range");
  KeyBuffer key_buf;
  const std::string_view key = bucket_key(f, backend, tier, prep_hit, key_buf);
  auto it = buckets_.find(key);
  if (it == buckets_.end())
    it = buckets_.emplace(std::string(key), Bucket{}).first;
  Bucket& b = it->second;
  // Node counts are heavy-tailed (rare frames explore 10x the typical tree),
  // so the smoothing runs in log domain: the bucket tracks the geometric
  // mean, which predicts the *typical* frame instead of being dragged up by
  // spikes. Floors keep log() defined for zero-node linear decodes and
  // sub-resolution timer readings.
  const double nodes = std::max(static_cast<double>(nodes_expanded), 1.0);
  const double seconds = std::max(charged_seconds, 1e-9);
  if (b.count == 0) {
    b.nodes_ewma = nodes;
    b.seconds_ewma = seconds;
  } else {
    const double a = opts_.ewma_alpha;
    b.nodes_ewma =
        std::exp(std::log(b.nodes_ewma) + a * (std::log(nodes) - std::log(b.nodes_ewma)));
    b.seconds_ewma = std::exp(std::log(b.seconds_ewma) +
                              a * (std::log(seconds) - std::log(b.seconds_ewma)));
  }
  ++b.count;
  ++observations_;
}

usize CostModel::bucket_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_.size();
}

std::uint64_t CostModel::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

std::string CostModel::export_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("spheredec.costmodel");
  w.key("schema_version").value(std::int64_t{3});
  w.key("ewma_alpha").value(opts_.ewma_alpha);
  w.key("snr_bucket_db").value(opts_.snr_bucket_db);
  w.key("backends").begin_array();
  for (const Rate& r : rates_) {
    w.begin_object();
    w.key("label").value(r.label);
    w.key("seconds_per_node").value(r.seconds_per_node);
    w.key("overhead_s").value(r.overhead_s);
    // Written only for non-default datapaths: fp32 documents stay
    // byte-compatible with pre-precision readers.
    if (!r.precision.empty()) w.key("precision").value(r.precision);
    w.end_object();
  }
  w.end_array();
  w.key("buckets").begin_object();
  for (const auto& [key, b] : buckets_) {
    w.key(key).begin_object();
    w.key("nodes").value(b.nodes_ewma);
    w.key("seconds").value(b.seconds_ewma);
    w.key("count").value(b.count);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

namespace {

// Minimal recursive-descent reader for the exact document shape export_json
// emits (objects, arrays, strings, numbers). Not a general JSON library —
// anything outside the cost-model schema is rejected with a pointed error.
class MiniParser {
 public:
  explicit MiniParser(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  [[nodiscard]] bool consume_if(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        c = text_[pos_++];
        if (c != '"' && c != '\\' && c != '/') {
          fail("unsupported escape in cost-model document");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  [[nodiscard]] double parse_number() {
    skip_ws();
    const usize start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    const std::string token(text_.substr(start, pos_ - start));
    usize consumed = 0;
    double v = 0.0;
    try {
      v = std::stod(token, &consumed);
    } catch (const std::exception&) {
      fail("bad number '" + token + "'");
    }
    if (consumed != token.size()) fail("bad number '" + token + "'");
    return v;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw invalid_argument_error("cost-model JSON: " + what + " at offset " +
                                 std::to_string(pos_));
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  std::string_view text_;
  usize pos_ = 0;
};

}  // namespace

void CostModel::import_json(std::string_view json) {
  MiniParser p(json);
  std::vector<Rate> rates;
  std::map<std::string, Bucket, std::less<>> buckets;
  bool schema_ok = false;
  long version = 0;

  p.expect('{');
  bool first = true;
  while (!p.consume_if('}')) {
    if (!first) p.expect(',');
    first = false;
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "schema") {
      if (p.parse_string() != "spheredec.costmodel") {
        p.fail("wrong schema tag");
      }
      schema_ok = true;
    } else if (key == "schema_version") {
      const double v = p.parse_number();
      if (v != 1.0 && v != 2.0 && v != 3.0) p.fail("unsupported schema_version");
      version = static_cast<long>(v);
    } else if (key == "ewma_alpha" || key == "snr_bucket_db") {
      (void)p.parse_number();  // informational; options stay as constructed
    } else if (key == "backends") {
      p.expect('[');
      bool first_backend = true;
      while (!p.consume_if(']')) {
        if (!first_backend) p.expect(',');
        first_backend = false;
        Rate r;
        p.expect('{');
        bool first_field = true;
        while (!p.consume_if('}')) {
          if (!first_field) p.expect(',');
          first_field = false;
          const std::string field = p.parse_string();
          p.expect(':');
          if (field == "label") {
            r.label = p.parse_string();
          } else if (field == "seconds_per_node") {
            r.seconds_per_node = p.parse_number();
          } else if (field == "overhead_s") {
            r.overhead_s = p.parse_number();
          } else if (field == "precision") {
            r.precision = p.parse_string();
            if (r.precision.size() > kMaxPrecisionChars) {
              p.fail("backend precision name is too long");
            }
          } else {
            p.fail("unknown backend field '" + field + "'");
          }
        }
        if (r.seconds_per_node <= 0.0 || r.overhead_s < 0.0) {
          p.fail("backend '" + r.label + "' has invalid rates");
        }
        rates.push_back(std::move(r));
      }
    } else if (key == "buckets") {
      p.expect('{');
      bool first_bucket = true;
      while (!p.consume_if('}')) {
        if (!first_bucket) p.expect(',');
        first_bucket = false;
        const std::string bucket_name = p.parse_string();
        p.expect(':');
        Bucket b;
        p.expect('{');
        bool first_field = true;
        while (!p.consume_if('}')) {
          if (!first_field) p.expect(',');
          first_field = false;
          const std::string field = p.parse_string();
          p.expect(':');
          if (field == "nodes") {
            b.nodes_ewma = p.parse_number();
          } else if (field == "seconds") {
            b.seconds_ewma = p.parse_number();
          } else if (field == "count") {
            b.count = static_cast<std::uint64_t>(p.parse_number());
          } else {
            p.fail("unknown bucket field '" + field + "'");
          }
        }
        if (b.nodes_ewma < 0.0 || b.seconds_ewma < 0.0) {
          p.fail("bucket '" + bucket_name + "' has negative state");
        }
        // Same floors observe() applies, so the log-domain blend stays
        // defined for every imported bucket.
        if (b.count > 0) {
          b.nodes_ewma = std::max(b.nodes_ewma, 1.0);
          b.seconds_ewma = std::max(b.seconds_ewma, 1e-9);
        }
        buckets.emplace(bucket_name, b);
      }
    } else {
      p.fail("unknown top-level key '" + key + "'");
    }
  }
  if (!p.at_end()) p.fail("trailing content");
  if (!schema_ok) {
    throw invalid_argument_error("cost-model JSON: missing schema tag");
  }
  if (version < 2) {
    // v1 shim: buckets predate the prep-hit key dimension. A v1 soak never
    // reused a cached factorization, so its buckets are prep-miss buckets.
    std::map<std::string, Bucket, std::less<>> upgraded;
    for (auto& [key, b] : buckets) upgraded.emplace(key + ".h0", b);
    buckets = std::move(upgraded);
  }
  if (version < 3) {
    // v3 renumbered the tier ladder to make room for kMmseApprox = 2: the
    // old kLinear buckets (".t2") become ".t3". The tier component appears
    // exactly once, right after the backend id, so a first-occurrence
    // replace is safe.
    std::map<std::string, Bucket, std::less<>> upgraded;
    for (auto& [key, b] : buckets) {
      std::string k = key;
      const auto pos = k.find(".t2.");
      if (pos != std::string::npos) k.replace(pos, 4, ".t3.");
      upgraded.emplace(std::move(k), b);
    }
    buckets = std::move(upgraded);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (!rates_.empty()) {
    if (rates.size() != rates_.size()) {
      throw invalid_argument_error(
          "cost-model JSON: backend count mismatch (document has " +
          std::to_string(rates.size()) + ", model has " +
          std::to_string(rates_.size()) + ")");
    }
    for (usize i = 0; i < rates.size(); ++i) {
      if (rates[i].label != rates_[i].label) {
        throw invalid_argument_error("cost-model JSON: backend " +
                                     std::to_string(i) + " is '" +
                                     rates[i].label + "', model expects '" +
                                     rates_[i].label + "'");
      }
      // Documents that predate the precision field keep the registered
      // datapath, so post-import bucket keys match pre-import ones.
      if (rates[i].precision.empty()) rates[i].precision = rates_[i].precision;
    }
  }
  rates_ = std::move(rates);
  buckets_ = std::move(buckets);
  observations_ = 0;
  for (const auto& [key, b] : buckets_) observations_ += b.count;
}

}  // namespace sd::dispatch
