// Pinned decode fingerprints for the level-product paths.
//
// Each case decodes a seeded frame set and folds every output bit that the
// search determines into one 64-bit FNV-1a hash: the detected indices, the
// metric's bits and every DecodeStats counter (the *_seconds timings are
// measurements and stay out). The expected hashes were recorded from the
// staged-GEMM implementation of the level product, so any change to how the
// level product is formed must reproduce that implementation bit for bit —
// PDs, prune decisions, node order, truncation cuts and the accounting alike.
//
// Every case runs twice over the same frames: solo decode_with() calls and
// width-8 decode_wide() runs. Both must give the pinned hash. Rows whose
// work counters depend on thread timing (ParallelSd with two workers) hash
// the answers only. The "coherent"
// variant points each group of four frames at one shared prep, so the fused
// BFS also sees frames that share a channel.
//
// The paper's Best-FS is spelled out (`sphere:sorted=0,alpha=inf`), and so
// is the paper's BFS (`bfs:sorted=0,alpha=2`), so their rows keep the hashes
// recorded from the staged-GEMM implementation. The plain `sphere` rows pin
// the served settings (SQRD order, noise-scaled radius) and were recorded
// from the code that introduced them.
//
// To re-derive a constant after an intentional behaviour change, run the
// suite and copy the "got" values from the failure messages.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include "core/spec_parse.hpp"
#include "core/sphere_decoder.hpp"
#include "mimo/scenario.hpp"

namespace sd {
namespace {

/// FNV-1a over the bytes of 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

void fold(Fnv& f, const DecodeResult& r, bool answers_only) {
  f.add(r.indices.size());
  for (index_t idx : r.indices) f.add(static_cast<std::uint64_t>(idx));
  f.add(std::bit_cast<std::uint64_t>(r.metric));
  if (answers_only) return;
  const DecodeStats& s = r.stats;
  for (std::uint64_t v :
       {s.nodes_expanded, s.nodes_generated, s.nodes_pruned, s.leaves_reached,
        s.radius_updates, s.gemm_calls, s.flops, s.sort_ops, s.bytes_touched,
        s.tree_levels, s.peak_list_size, s.quant_saturations,
        s.quant_overflows, s.quant_requants, s.quant_fallbacks,
        s.radius_fallbacks, s.neumann_terms, s.neumann_exact_solves,
        s.neumann_fallbacks}) {
    f.add(v);
  }
  f.add(s.node_budget_hit ? 1u : 0u);
}

struct Case {
  std::string spec;
  Modulation mod;
  index_t m;
  double snr_db;
  bool zero_sigma2;      ///< decode with sigma2 = 0 (radius fallback)
  std::uint64_t iid;     ///< pinned hash, one channel per frame
  std::uint64_t coh;     ///< pinned hash, four frames per channel
  bool answers_only = false;  ///< hash indices and metric, not the counters
};

constexpr usize kFrames = 16;
constexpr usize kWidth = 8;
constexpr usize kCoherence = 4;

struct Hashes {
  std::uint64_t solo;
  std::uint64_t wide;
};

/// Decodes the frames solo and in width-kWidth runs; frame f uses prep
/// `prep_of[f]` and its own y.
Hashes decode_both(const Case& cs, const std::vector<Trial>& trials,
                   const std::vector<usize>& prep_of) {
  const SystemConfig sys{cs.m, cs.m, cs.mod};
  const DecoderSpec spec = parse_decoder_spec(cs.spec);
  auto solo = make_detector(sys, spec);
  auto wide = make_detector(sys, spec);
  const PrepKind kind = solo->prep_kind();
  std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
  for (const Trial& t : trials) {
    preps.push_back(build_channel_prep(ChannelHandle(t.h), kind));
  }
  auto sigma2_of = [&](usize f) {
    return cs.zero_sigma2 ? 0.0 : trials[f].sigma2;
  };

  Fnv solo_hash;
  DecodeResult r;
  for (usize f = 0; f < trials.size(); ++f) {
    solo->decode_with(*preps[prep_of[f]], trials[f].y, sigma2_of(f), r);
    fold(solo_hash, r, cs.answers_only);
  }

  Fnv wide_hash;
  std::vector<DecodeResult> outs(kWidth);
  std::vector<Detector::WideItem> items;
  for (usize base = 0; base < trials.size(); base += kWidth) {
    items.clear();
    for (usize j = 0; j < kWidth; ++j) {
      const usize f = base + j;
      items.push_back({preps[prep_of[f]].get(), trials[f].y, sigma2_of(f),
                       &outs[j]});
    }
    wide->decode_wide(items);
    for (const DecodeResult& o : outs) fold(wide_hash, o, cs.answers_only);
  }
  return {solo_hash.h, wide_hash.h};
}

class DecodePinned : public ::testing::TestWithParam<Case> {};

TEST_P(DecodePinned, SoloAndWideMatchPinnedHash) {
  const Case& cs = GetParam();
  ScenarioConfig sc;
  sc.num_tx = cs.m;
  sc.num_rx = cs.m;
  sc.modulation = cs.mod;
  sc.snr_db = cs.snr_db;
  sc.seed = 20260 + static_cast<std::uint64_t>(cs.m);
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize f = 0; f < kFrames; ++f) trials.push_back(scenario.next());

  std::vector<usize> iid(kFrames);
  std::vector<usize> coh(kFrames);
  for (usize f = 0; f < kFrames; ++f) {
    iid[f] = f;
    coh[f] = f - f % kCoherence;
  }

  const Hashes got_iid = decode_both(cs, trials, iid);
  EXPECT_EQ(got_iid.solo, cs.iid) << "solo i.i.d. got 0x" << std::hex
                                  << got_iid.solo;
  EXPECT_EQ(got_iid.wide, cs.iid) << "wide i.i.d. got 0x" << std::hex
                                  << got_iid.wide;
  const Hashes got_coh = decode_both(cs, trials, coh);
  EXPECT_EQ(got_coh.solo, cs.coh) << "solo coherent got 0x" << std::hex
                                  << got_coh.solo;
  EXPECT_EQ(got_coh.wide, cs.coh) << "wide coherent got 0x" << std::hex
                                  << got_coh.wide;
}

std::string case_label(const Case& cs) {
  std::string name = cs.spec + "_" + std::string(modulation_name(cs.mod)) +
                     "_m" + std::to_string(cs.m) + "_" +
                     std::to_string(static_cast<int>(cs.snr_db)) + "dB";
  if (cs.zero_sigma2) name += "_sigma0";
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return name;
}

// gtest prints a failing parameter with this instead of its raw bytes.
void PrintTo(const Case& cs, std::ostream* os) { *os << case_label(cs); }

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return case_label(info.param);
}

// clang-format off
const Case kCases[] = {
    {"sphere:sorted=0,alpha=inf", Modulation::kQam4, 8, 4.0, false, 0xc6d48f1d666478b9ull, 0xaa1a79a8d4576e46ull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam4, 8, 8.0, false, 0xdc0847eff87b81c0ull, 0x8f72ce598d107dcull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam4, 8, 14.0, false, 0x6f29d91b14bcc4bfull, 0x69a71aced43a4732ull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam16, 4, 4.0, false, 0x2ad31794c6a5e92cull, 0xedd92562215e8b37ull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam16, 4, 8.0, false, 0xabdd3e2327c5455dull, 0x8c7c507e7f3263beull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam16, 4, 14.0, false, 0xf3a8860cc34fdebaull, 0xcceaab01e960a6adull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam64, 3, 4.0, false, 0x2b4af74a53b415b5ull, 0xc0b6e7f5b2e5d1b5ull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam64, 3, 8.0, false, 0x28a189d189d77c24ull, 0x55ce8e68235956eeull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam64, 3, 14.0, false, 0x4fe634cfb6543758ull, 0xc09c3b352759bc8aull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam4, 8, 4.0, false, 0x580557baaf398366ull, 0x24e2f8cd8c4d8855ull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam4, 8, 8.0, false, 0x8a473b307f0c1491ull, 0x85360f3de9b39313ull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam4, 8, 14.0, false, 0xeeac31b509012fddull, 0xd9fe98e6a6045f35ull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam16, 4, 4.0, false, 0xfd28ddc38920d66aull, 0x82ee42fe0a8c935cull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam16, 4, 8.0, false, 0x9c3e0fbd96ab0d06ull, 0x1302ec875ee95330ull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam16, 4, 14.0, false, 0x8a7dbba4c3c0e518ull, 0x102ae21dcc01523dull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam64, 3, 4.0, false, 0x347136c00cbb676aull, 0x8c6f0dc20b357dedull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam64, 3, 8.0, false, 0x5d3f2ee340ee9222ull, 0x9b4ed88c31205ecfull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam64, 3, 14.0, false, 0x78479e13bd096334ull, 0xcd375193eee79becull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam4, 8, 4.0, false, 0xd391236af89b0623ull, 0x1b13d37b2a5fcbc4ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam4, 8, 8.0, false, 0x3df136c7979b7c3bull, 0xa4792b0214816985ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam4, 8, 14.0, false, 0x402df20cbd78f06aull, 0x9099b457b07a2b70ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam16, 4, 4.0, false, 0x938d9b31ff18b156ull, 0xe16914236992fe58ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam16, 4, 8.0, false, 0x446303c2e552ccccull, 0xec125db6f87bf85aull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam16, 4, 14.0, false, 0xabf5d27d54e0497aull, 0x3acc80a91501f989ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam64, 3, 4.0, false, 0x71024bbb6d65ce44ull, 0x4d1d96c2a6141d28ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam64, 3, 8.0, false, 0x2ae45f23e02c0705ull, 0x8e93b37a08480bf0ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam64, 3, 14.0, false, 0x512a4a1cfc6714aull, 0x4f260a14fd1f6ff6ull},
    {"sphere:sorted=0,alpha=inf", Modulation::kQam4, 16, 8.0, false, 0x33289899c88596beull, 0xef2817c871f3d1d6ull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam4, 12, 14.0, false, 0x3a79044baad86febull, 0x24ef5b9ae5c0f576ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam4, 12, 14.0, false, 0x20da96fc3fdd8055ull, 0x62b65c73cc0bb7fcull},
    {"bfs:sorted=0,alpha=2,frontier=16", Modulation::kQam4, 8, 4.0, false, 0xdd4ca14c780bea9cull, 0x5f0c0c33b4b16a1eull},
    {"bfs:sorted=0,alpha=2,frontier=16", Modulation::kQam16, 4, 8.0, false, 0xdd4ba1fc23a86dd3ull, 0xe5f1828fe4f9dc86ull},
    {"bfs:sorted=0,alpha=2,frontier=16,precision=int16", Modulation::kQam4, 8, 4.0, false, 0xf5bc390d064144a1ull, 0x3be9ead23c484327ull},
    {"sphere:sorted=0,alpha=inf,max-nodes=4", Modulation::kQam4, 8, 4.0, false, 0x4ccd8198e64d640dull, 0x3e90464775ea5166ull},
    {"sphere:sorted=0,alpha=inf,max-nodes=4", Modulation::kQam16, 4, 4.0, false, 0xfd9a1eeb7a62a838ull, 0xb38a2617fae39b30ull},
    {"sphere:sorted=0,alpha=2", Modulation::kQam4, 8, 14.0, true, 0x71b5a72b3be0def0ull, 0x71ad3a2a7ed5a76cull},
    {"bfs:sorted=0,alpha=2", Modulation::kQam4, 8, 14.0, true, 0x9f4da2d2c923356full, 0x39b2083921a2a660ull},
    {"bfs:sorted=0,alpha=2,precision=int16", Modulation::kQam4, 8, 14.0, true, 0x8ed38dbf705e6886ull, 0xa0f9f14764582704ull},
    // Served Best-FS: `sphere` on the CPU starts from kServedBestFs (SQRD
    // order, noise-scaled radius with alpha = 2). Recorded from this code.
    {"sphere", Modulation::kQam4, 8, 4.0, false, 0xe6c7b53f4d57d274ull, 0xc44f05f8e48dc973ull},
    {"sphere", Modulation::kQam4, 8, 8.0, false, 0x98f0402b1bdaa99bull, 0x6342fd7d760577c3ull},
    {"sphere", Modulation::kQam4, 8, 14.0, false, 0xcb39f6b94d3f20b7ull, 0xa9d49fc99f49dd52ull},
    {"sphere", Modulation::kQam16, 4, 4.0, false, 0x260d607bf175c17dull, 0xbd15824f9ed91cc7ull},
    {"sphere", Modulation::kQam16, 4, 8.0, false, 0x3bc1d7923c84ccbaull, 0xae69af2bd0e3f889ull},
    {"sphere", Modulation::kQam16, 4, 14.0, false, 0xd7b8c022b1011300ull, 0xc5db5471443f58a8ull},
    {"sphere", Modulation::kQam64, 3, 4.0, false, 0xd65232b6f27a0cccull, 0xe4b19b612f472c71ull},
    {"sphere", Modulation::kQam64, 3, 8.0, false, 0x2bb07fa53344787dull, 0x3d06499598d06d4cull},
    {"sphere", Modulation::kQam64, 3, 14.0, false, 0x6b67c4e3a07c8bbull, 0xd232776363148ff7ull},
    {"sphere", Modulation::kQam4, 16, 8.0, false, 0x6cef03f2706fea4full, 0xc9ca55002ab98b02ull},
    {"sphere:max-nodes=4", Modulation::kQam4, 8, 4.0, false, 0x73c52e7f4bb96dc9ull, 0xf475a2f1cc374390ull},
    {"sphere:max-nodes=4", Modulation::kQam16, 4, 4.0, false, 0x1f12e5a51f22acc1ull, 0xd8ab6a7b73e13021ull},
    {"sphere:alpha=2", Modulation::kQam4, 8, 14.0, true, 0xa62f02bc405cedbfull, 0x80a5d610f7d3500aull},
    // Served BFS: `bfs` on the CPU starts from kServedBfs (SQRD order, noise
    // radius capped at the Babai leaf). Recorded from this code; the answers
    // equal `bfs:sorted,alpha=2`'s (BfsServedRadius).
    {"bfs", Modulation::kQam4, 8, 4.0, false, 0x6621cf71f06a81e2ull, 0xf86621e4d4f0213dull},
    {"bfs", Modulation::kQam4, 8, 8.0, false, 0xed2e30d43b0db63ull, 0xafb0551990be4138ull},
    {"bfs", Modulation::kQam4, 8, 14.0, false, 0xd5b15e2d6cbe3766ull, 0x61bff943ff9ba526ull},
    {"bfs", Modulation::kQam16, 4, 4.0, false, 0x8648c01566a2718cull, 0x99e0f579e2ad25afull},
    {"bfs", Modulation::kQam16, 4, 8.0, false, 0xd6566828def5c6f6ull, 0x129dffaa7b2fc206ull},
    {"bfs", Modulation::kQam16, 4, 14.0, false, 0x21d7f16b9acac04dull, 0x9a5ec4f3711bad2dull},
    {"bfs", Modulation::kQam64, 3, 4.0, false, 0x5a0487deba53886bull, 0xc4cd0366f6f6c564ull},
    {"bfs", Modulation::kQam64, 3, 8.0, false, 0xf8af7dc9a7ea499ull, 0x8a7fd8c76c20195ull},
    {"bfs", Modulation::kQam64, 3, 14.0, false, 0x5adf32cfb42befa2ull, 0x79a6c7b9c4d17f5full},
    {"bfs:precision=int16", Modulation::kQam4, 8, 4.0, false, 0xa21887af1b99cda1ull, 0xb831e1d2fc51dbd4ull},
    {"bfs:precision=int16", Modulation::kQam4, 8, 8.0, false, 0x295a1e43d84b29c9ull, 0xcd10137f5b8c9edaull},
    {"bfs:precision=int16", Modulation::kQam4, 8, 14.0, false, 0x80b15b290e9c71a5ull, 0x4fa04668547a83b6ull},
    {"bfs:precision=int16", Modulation::kQam16, 4, 4.0, false, 0x8a9f34d7123a647full, 0x6fe5b22f7e6918a6ull},
    {"bfs:precision=int16", Modulation::kQam16, 4, 8.0, false, 0xb92122cad4f23f40ull, 0xccdfb3a76d867a83ull},
    {"bfs:precision=int16", Modulation::kQam16, 4, 14.0, false, 0xe11ea3a5b5852b22ull, 0x3a45746881a23249ull},
    {"bfs:precision=int16", Modulation::kQam64, 3, 4.0, false, 0xf41747050ddaf434ull, 0x725ceec368d11f66ull},
    {"bfs:precision=int16", Modulation::kQam64, 3, 8.0, false, 0xcafef3b5184fb5faull, 0xa8c09d778ab98c08ull},
    {"bfs:precision=int16", Modulation::kQam64, 3, 14.0, false, 0x42538e116ee135a1ull, 0x48d962fe3c204a8ull},
    {"bfs", Modulation::kQam4, 12, 14.0, false, 0x63fbb365fbdf660ull, 0x78e51426dbce9f77ull},
    {"bfs:precision=int16", Modulation::kQam4, 12, 14.0, false, 0x479de2e63e37186cull, 0x3611c2030f998677ull},
    {"bfs:frontier=16", Modulation::kQam4, 8, 4.0, false, 0x131065c21b246639ull, 0xcd2a5fb0ae81de90ull},
    {"bfs:frontier=16", Modulation::kQam16, 4, 8.0, false, 0xeb4122c8d909809ull, 0x67e96cb8c8bba5ccull},
    {"bfs:precision=int16,frontier=16", Modulation::kQam4, 8, 4.0, false, 0x8febb9745b6d8fd3ull, 0xf4d4b91258ae5b0eull},
    {"bfs", Modulation::kQam4, 8, 14.0, true, 0xefbcd1a4d9f4668ull, 0x52b9af8616995aull},
    {"bfs:precision=int16", Modulation::kQam4, 8, 14.0, true, 0x95eccfde475297a7ull, 0x8f1ac58a956da77bull},
    // The SE depth-first searches: DFS, and ParallelSd over one worker
    // (every counter) and two workers (the answers only).
    {"dfs", Modulation::kQam4, 8, 4.0, false, 0x2f696ade9f130e94ull, 0x78b4d325eef9bab8ull},
    {"dfs", Modulation::kQam4, 8, 8.0, false, 0x8d8797c114b0cb8ull, 0x8bfdf48f3cba0d85ull},
    {"dfs", Modulation::kQam4, 8, 14.0, false, 0xe4132a6ec12681eeull, 0x1a3e9a37aef1c430ull},
    {"dfs", Modulation::kQam16, 4, 4.0, false, 0x3581f1eb62e52f8cull, 0xb8a22961b37275aeull},
    {"dfs", Modulation::kQam16, 4, 8.0, false, 0x3ea9531a593faf33ull, 0xc6e6df3a118d1e30ull},
    {"dfs", Modulation::kQam16, 4, 14.0, false, 0xc6fe1acf3cdd6e2aull, 0xd82a41616bba618ull},
    {"dfs:alpha=2", Modulation::kQam4, 8, 8.0, false, 0x3e4079ec4a0b3086ull, 0x51922c22a2ccd0b7ull},
    {"dfs:alpha=2", Modulation::kQam16, 4, 8.0, false, 0x8a604ab72bd58f99ull, 0xaf0c97737305b5beull},
    {"dfs:max-nodes=4", Modulation::kQam4, 8, 4.0, false, 0x834ed715144f8bd9ull, 0x3f0e671119e711ceull},
    {"dfs:max-nodes=4", Modulation::kQam16, 4, 4.0, false, 0x6a18931c2c46a992ull, 0xb624c44288afacaeull},
    {"dfs", Modulation::kQam4, 8, 14.0, true, 0xe4132a6ec12681eeull, 0x1a3e9a37aef1c430ull},
    {"dfs:alpha=2", Modulation::kQam4, 8, 14.0, true, 0xc30697af5f94479eull, 0x6527ff6a7c2acd72ull},
    {"multipe:threads=1", Modulation::kQam4, 8, 4.0, false, 0xf7263c884c4d9551ull, 0x220db37859db2d5aull},
    {"multipe:threads=1", Modulation::kQam4, 8, 14.0, false, 0x11d601a8f86e20f1ull, 0x1a94f3d7071cc0d9ull},
    {"multipe:threads=1", Modulation::kQam16, 4, 8.0, false, 0x89e98573e9a6391bull, 0x140653d7ba68e549ull},
    {"multipe:threads=1,split=2", Modulation::kQam4, 8, 4.0, false, 0xdc11fc28c7051848ull, 0x35084548d9ca72ull},
    {"multipe:threads=1,split=2", Modulation::kQam4, 8, 14.0, false, 0xda64637e60cfbb62ull, 0x5cea0558cc0057e5ull},
    {"multipe:threads=1,split=2", Modulation::kQam16, 4, 8.0, false, 0x74934ed9ac5a88f6ull, 0xe1161be550c8aec7ull},
    {"multipe:threads=2", Modulation::kQam4, 8, 4.0, false, 0xa59a7263c1cb7c72ull, 0x57d18be1de29ed40ull, true},
    {"multipe:threads=2", Modulation::kQam16, 4, 8.0, false, 0x19e5b520448ec75cull, 0x9d65cacab832eaf8ull, true},
    {"multipe:threads=2,split=2", Modulation::kQam4, 8, 8.0, false, 0xc57bbb416fb0382full, 0xd8c352ff5840d49eull, true},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(Seeded, DecodePinned, ::testing::ValuesIn(kCases),
                         case_name);

}  // namespace
}  // namespace sd
