// Golden per-warp digests of the traversal engine. The serial/parallel and
// lane/line bit-identity suites compare two runs of the same code, so a
// charge drift shared by every mode passes them; this suite pins the
// engine's output to fixed values instead. Each digest covers every warp's
// WarpStats and every round's out-frontier (in order) of one BFS, CC or BC
// run, and must come out the same on the serial engine, the 4-thread engine
// and the traced serial engine. The traced runs also pin a digest of the
// Fig. 4 step tables (ops, lanes and labels).
//
// Matrix: CGR at all five GcgtLevels x segment lengths {0, 32} x lanes
// {8, 32} x line bytes {8, 128}, plus StreamVByte and VarintGB (whose walk
// ignores the level) at lanes {8, 32} x line bytes {8, 128}.
//
// When a change to the modeled schedule is intended, the failure message
// prints the replacement row for kGolden.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "cgr/cgr_graph.h"
#include "core/bc_filters.h"
#include "core/cc_filter.h"
#include "core/cgr_traversal.h"
#include "core/frontier_filter.h"
#include "core/gcgt_options.h"
#include "core/trace.h"
#include "graph/generators.h"
#include "util/random.h"

namespace gcgt {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) Add(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void AddStats(Digest& d, const simt::WarpStats& s) {
  for (uint64_t x :
       {s.steps, s.decode_steps, s.append_steps, s.active_lane_steps,
        s.idle_lane_steps, s.mem_txns, s.shared_ops, s.atomics, s.decode_words,
        s.partition_faults, s.partition_spills, s.partition_pins, s.fault_txns,
        s.spill_txns, s.intersect_txns}) {
    d.Add(x);
  }
}

/// A web graph (intervals, LLP-like locality) plus two hubs with long
/// scattered residual lists (warp-centric hand-offs, many segments per
/// node), one 70-node interval (warp-wide stage-1 expansion at 32 lanes)
/// and isolated nodes (zero-degree lanes).
Graph GoldenGraph() {
  WebGraphParams params;
  params.num_nodes = 640;
  params.avg_degree = 10;
  params.seed = 1616;
  EdgeList edges = GenerateWebGraph(params).ToEdges();
  const NodeId n = params.num_nodes + 8;  // the last 8 nodes stay isolated
  Rng rng(99);
  for (NodeId hub : {NodeId{5}, NodeId{333}}) {
    for (int i = 0; i < 180; ++i) {
      edges.emplace_back(hub, static_cast<NodeId>(rng.Uniform(640)));
    }
  }
  for (NodeId v = 100; v < 170; ++v) edges.emplace_back(NodeId{17}, v);
  return Graph::FromEdges(n, edges);
}

struct Config {
  CodecId codec;
  GcgtLevel level;
  int seg;
  int lanes;
  int line;
};

enum class Mode { kSerial, kThreads4, kTrace };

struct Digests {
  uint64_t bfs = 0;
  uint64_t cc = 0;
  uint64_t bc = 0;
  uint64_t trace = 0;  // step tables of all three runs (traced mode only)
};

void AddRound(Digest& d, const std::vector<NodeId>& out,
              const std::vector<simt::WarpStats>& warps) {
  d.Add(out.size());
  for (NodeId v : out) d.Add(v);
  d.Add(warps.size());
  for (const simt::WarpStats& w : warps) AddStats(d, w);
}

void AddTrace(Digest& d, const StepTrace& trace) {
  d.Add(trace.steps().size());
  for (const StepTrace::Step& s : trace.steps()) {
    d.Add(static_cast<uint64_t>(s.op));
    d.Add(s.lanes.size());
    for (const auto& [lane, label] : s.lanes) {
      d.Add(static_cast<uint64_t>(lane));
      d.Add(label);
    }
  }
}

Digests RunConfig(const CgrGraph& cgr, const Config& c, Mode mode) {
  GcgtOptions o;
  o.level = c.level;
  o.lanes = c.lanes;
  o.cost.cache_line_bytes = c.line;
  o.num_threads = mode == Mode::kThreads4 ? 4 : 1;
  CgrTraversalEngine engine(cgr, o);
  StepTrace trace;
  StepTrace* tp = mode == Mode::kTrace ? &trace : nullptr;
  const NodeId n = cgr.num_nodes();
  Digests out;
  std::vector<NodeId> next;
  std::vector<simt::WarpStats> warps;

  {  // BFS from node 0 (a web node reaching both hubs).
    Digest d;
    BfsFilter filter(n);
    filter.SetSource(0);
    std::vector<NodeId> frontier{0};
    while (!frontier.empty()) {
      next.clear();
      warps.clear();
      engine.ProcessFrontier(frontier, filter, &next, &warps, tp);
      AddRound(d, next, warps);
      frontier.swap(next);
    }
    for (uint32_t depth : filter.depth()) d.Add(depth);
    out.bfs = d.value();
  }
  {  // CC: all nodes, round-frozen hooking, sort-unique contraction.
    Digest d;
    CcFilter filter(n);
    std::vector<NodeId> frontier(n);
    std::iota(frontier.begin(), frontier.end(), 0);
    while (!frontier.empty()) {
      next.clear();
      warps.clear();
      engine.ProcessFrontier(frontier, filter, &next, &warps, tp);
      AddRound(d, next, warps);
      filter.CommitRound();
      filter.PointerJump(c.lanes, c.line);
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      frontier.swap(next);
    }
    for (NodeId p : filter.parent()) d.Add(p);
    out.cc = d.value();
  }
  {  // BC from node 0: forward levels, then the backward sweep.
    Digest d;
    std::vector<uint32_t> depth(n, kBcUnvisited);
    std::vector<double> sigma(n, 0.0), delta(n, 0.0);
    depth[0] = 0;
    sigma[0] = 1.0;
    std::vector<std::vector<NodeId>> levels;
    {
      BcForwardFilter filter(depth, sigma);
      std::vector<NodeId> frontier{0};
      while (!frontier.empty()) {
        next.clear();
        warps.clear();
        engine.ProcessFrontier(frontier, filter, &next, &warps, tp);
        AddRound(d, next, warps);
        levels.push_back(frontier);
        frontier.swap(next);
      }
    }
    BcBackwardFilter filter(depth, sigma, delta);
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
      next.clear();
      warps.clear();
      engine.ProcessFrontier(*it, filter, &next, &warps, tp);
      AddRound(d, next, warps);
    }
    for (double x : delta) d.Add(std::bit_cast<uint64_t>(x));
    out.bc = d.value();
  }
  if (tp != nullptr) {
    Digest d;
    AddTrace(d, trace);
    out.trace = d.value();
  }
  return out;
}

struct GoldenRow {
  Config config;
  Digests digests;
};

constexpr GcgtLevel kLevels[] = {GcgtLevel::kIntuitive, GcgtLevel::kTwoPhase,
                                 GcgtLevel::kTaskStealing,
                                 GcgtLevel::kWarpCentric, GcgtLevel::kFull};

std::vector<Config> Matrix() {
  std::vector<Config> m;
  for (GcgtLevel level : kLevels) {
    for (int seg : {0, 32}) {
      for (int lanes : {8, 32}) {
        for (int line : {8, 128}) {
          m.push_back({CodecId::kCgr, level, seg, lanes, line});
        }
      }
    }
  }
  for (CodecId codec : {CodecId::kStreamVByte, CodecId::kVarintGb}) {
    for (int lanes : {8, 32}) {
      for (int line : {8, 128}) {
        m.push_back({codec, GcgtLevel::kFull, 0, lanes, line});
      }
    }
  }
  return m;
}

// Computed on the engine before the decode/charge pass split; every
// refactor of WarpSim must reproduce them exactly.
// {codec, level, seg, lanes, line}, {bfs, cc, bc, trace}
const GoldenRow kGolden[] = {
    {{CodecId::kCgr, GcgtLevel::kIntuitive, 0, 8, 8},
     {0x9453bb3fbe9f5dceull, 0x69ff6b5195b33581ull,
      0xfba2da3a9c488a48ull, 0xc9df4985c5578476ull}},
    {{CodecId::kCgr, GcgtLevel::kIntuitive, 0, 8, 128},
     {0x32619622d88bc7acull, 0x22525350f0927a01ull,
      0xbbe07bba0b1e4233ull, 0xc9df4985c5578476ull}},
    {{CodecId::kCgr, GcgtLevel::kIntuitive, 0, 32, 8},
     {0xeea6e096413be346ull, 0x62c96d55daf76c09ull,
      0x296a2b8817cc895aull, 0x3f835388cefba7ebull}},
    {{CodecId::kCgr, GcgtLevel::kIntuitive, 0, 32, 128},
     {0x033d639d2ecf7b06ull, 0x5f6785e71d1252afull,
      0x690167a43bc10775ull, 0x3f835388cefba7ebull}},
    {{CodecId::kCgr, GcgtLevel::kIntuitive, 32, 8, 8},
     {0x62e8d8c850f3acc1ull, 0x5b1fd0d2aa5ce90full,
      0x0ad1dde70c1fb58cull, 0x66d9f8e39fa5457cull}},
    {{CodecId::kCgr, GcgtLevel::kIntuitive, 32, 8, 128},
     {0xa1ba12d8ccdd6d19ull, 0xa0de84289772d25dull,
      0xfafafb07dd4907d1ull, 0x66d9f8e39fa5457cull}},
    {{CodecId::kCgr, GcgtLevel::kIntuitive, 32, 32, 8},
     {0xb2f84e5cb0b06c43ull, 0x3f10430c95e9a15bull,
      0x7f14e7e2576fb2e0ull, 0xaae0db882e11cc0eull}},
    {{CodecId::kCgr, GcgtLevel::kIntuitive, 32, 32, 128},
     {0x013d8dc67f093d1eull, 0x3eb047c034636ed3ull,
      0x54cde72225b25171ull, 0xaae0db882e11cc0eull}},
    {{CodecId::kCgr, GcgtLevel::kTwoPhase, 0, 8, 8},
     {0x66b2ce450e7d6fafull, 0xb82b85019e3fd6dcull,
      0x6f7870ad19aca4dfull, 0x92965a985fe2d0edull}},
    {{CodecId::kCgr, GcgtLevel::kTwoPhase, 0, 8, 128},
     {0xe38be70187f12666ull, 0x9095f92d37daafc0ull,
      0x1924c28aa5df8916ull, 0x92965a985fe2d0edull}},
    {{CodecId::kCgr, GcgtLevel::kTwoPhase, 0, 32, 8},
     {0x23ccf2defcd26112ull, 0x9926a9a05d07a70full,
      0xdd46355f95f3b92bull, 0xaf3d1dc5067d4ffcull}},
    {{CodecId::kCgr, GcgtLevel::kTwoPhase, 0, 32, 128},
     {0xa824cd3bbea01a88ull, 0xb75472e6989bb765ull,
      0xe696ad1cb299f130ull, 0xaf3d1dc5067d4ffcull}},
    {{CodecId::kCgr, GcgtLevel::kTwoPhase, 32, 8, 8},
     {0xa88d7b1e1484975eull, 0x59cea9c379078803ull,
      0x472791df1c335d6full, 0xb34d6c99b0389d37ull}},
    {{CodecId::kCgr, GcgtLevel::kTwoPhase, 32, 8, 128},
     {0x8e4b7c62c5cc8a19ull, 0xf4bf36e6df3ecb21ull,
      0xa6f2278e16a84246ull, 0xb34d6c99b0389d37ull}},
    {{CodecId::kCgr, GcgtLevel::kTwoPhase, 32, 32, 8},
     {0x5ee41a752f1b559cull, 0x01304349ddbda2cfull,
      0x8a7c143090b9d1b7ull, 0x275e5d16ed07da75ull}},
    {{CodecId::kCgr, GcgtLevel::kTwoPhase, 32, 32, 128},
     {0x8b4d36799a151567ull, 0xdeb78023879ee25full,
      0x43ea0bb35c643df6ull, 0x275e5d16ed07da75ull}},
    {{CodecId::kCgr, GcgtLevel::kTaskStealing, 0, 8, 8},
     {0x4fb6b174f756cd07ull, 0x3558beca94880410ull,
      0x715afa3fba2d7657ull, 0xfd554ed769097dd0ull}},
    {{CodecId::kCgr, GcgtLevel::kTaskStealing, 0, 8, 128},
     {0x0af28944144cd736ull, 0xfb61535678908e30ull,
      0x2708d3612ecf822aull, 0xfd554ed769097dd0ull}},
    {{CodecId::kCgr, GcgtLevel::kTaskStealing, 0, 32, 8},
     {0xd384067efca4cb5eull, 0xa3c02241544abed3ull,
      0xc2fd9ec33a32b0afull, 0x725f5a98b4fd6c8aull}},
    {{CodecId::kCgr, GcgtLevel::kTaskStealing, 0, 32, 128},
     {0xe4a9b4d5c0ebee94ull, 0xa50194cf0c910d49ull,
      0x3fe7e8a88b4e80fcull, 0x725f5a98b4fd6c8aull}},
    {{CodecId::kCgr, GcgtLevel::kTaskStealing, 32, 8, 8},
     {0xa88d7b1e1484975eull, 0x59cea9c379078803ull,
      0x472791df1c335d6full, 0xb34d6c99b0389d37ull}},
    {{CodecId::kCgr, GcgtLevel::kTaskStealing, 32, 8, 128},
     {0x8e4b7c62c5cc8a19ull, 0xf4bf36e6df3ecb21ull,
      0xa6f2278e16a84246ull, 0xb34d6c99b0389d37ull}},
    {{CodecId::kCgr, GcgtLevel::kTaskStealing, 32, 32, 8},
     {0x5ee41a752f1b559cull, 0x01304349ddbda2cfull,
      0x8a7c143090b9d1b7ull, 0x275e5d16ed07da75ull}},
    {{CodecId::kCgr, GcgtLevel::kTaskStealing, 32, 32, 128},
     {0x8b4d36799a151567ull, 0xdeb78023879ee25full,
      0x43ea0bb35c643df6ull, 0x275e5d16ed07da75ull}},
    {{CodecId::kCgr, GcgtLevel::kWarpCentric, 0, 8, 8},
     {0x8d7da49b59e2f1cdull, 0x83035be0d80b4d27ull,
      0x7af8053d690e2fa9ull, 0xb48ad06c4f310557ull}},
    {{CodecId::kCgr, GcgtLevel::kWarpCentric, 0, 8, 128},
     {0x75de74eec9c09b03ull, 0x01fca868eed4ce1aull,
      0x9fa920538af1de5eull, 0xb48ad06c4f310557ull}},
    {{CodecId::kCgr, GcgtLevel::kWarpCentric, 0, 32, 8},
     {0x439d6de5308fe4dbull, 0x737d1465ea78b0a4ull,
      0xe86a188b95e956d5ull, 0x23e77f06c0751711ull}},
    {{CodecId::kCgr, GcgtLevel::kWarpCentric, 0, 32, 128},
     {0x759f048cb4c3e6e9ull, 0xa8ba5213394fbef8ull,
      0x7c18d6d8e0e33fa0ull, 0x23e77f06c0751711ull}},
    {{CodecId::kCgr, GcgtLevel::kWarpCentric, 32, 8, 8},
     {0xa88d7b1e1484975eull, 0x59cea9c379078803ull,
      0x472791df1c335d6full, 0xb34d6c99b0389d37ull}},
    {{CodecId::kCgr, GcgtLevel::kWarpCentric, 32, 8, 128},
     {0x8e4b7c62c5cc8a19ull, 0xf4bf36e6df3ecb21ull,
      0xa6f2278e16a84246ull, 0xb34d6c99b0389d37ull}},
    {{CodecId::kCgr, GcgtLevel::kWarpCentric, 32, 32, 8},
     {0x5ee41a752f1b559cull, 0x01304349ddbda2cfull,
      0x8a7c143090b9d1b7ull, 0x275e5d16ed07da75ull}},
    {{CodecId::kCgr, GcgtLevel::kWarpCentric, 32, 32, 128},
     {0x8b4d36799a151567ull, 0xdeb78023879ee25full,
      0x43ea0bb35c643df6ull, 0x275e5d16ed07da75ull}},
    {{CodecId::kCgr, GcgtLevel::kFull, 0, 8, 8},
     {0x8d7da49b59e2f1cdull, 0x83035be0d80b4d27ull,
      0x7af8053d690e2fa9ull, 0xb48ad06c4f310557ull}},
    {{CodecId::kCgr, GcgtLevel::kFull, 0, 8, 128},
     {0x75de74eec9c09b03ull, 0x01fca868eed4ce1aull,
      0x9fa920538af1de5eull, 0xb48ad06c4f310557ull}},
    {{CodecId::kCgr, GcgtLevel::kFull, 0, 32, 8},
     {0x439d6de5308fe4dbull, 0x737d1465ea78b0a4ull,
      0xe86a188b95e956d5ull, 0x23e77f06c0751711ull}},
    {{CodecId::kCgr, GcgtLevel::kFull, 0, 32, 128},
     {0x759f048cb4c3e6e9ull, 0xa8ba5213394fbef8ull,
      0x7c18d6d8e0e33fa0ull, 0x23e77f06c0751711ull}},
    {{CodecId::kCgr, GcgtLevel::kFull, 32, 8, 8},
     {0x944a27c396370120ull, 0x3474bbce80030409ull,
      0x2199b0f158946d6aull, 0x18d249d1598d8d23ull}},
    {{CodecId::kCgr, GcgtLevel::kFull, 32, 8, 128},
     {0x134b484178cf3c10ull, 0xfa5b4412009a63b9ull,
      0xbd30fd9cf639f798ull, 0x18d249d1598d8d23ull}},
    {{CodecId::kCgr, GcgtLevel::kFull, 32, 32, 8},
     {0x5ce03db750c8572eull, 0xf92ec04da29038adull,
      0x1513f5e133735823ull, 0x3f83c3a95f78f1bbull}},
    {{CodecId::kCgr, GcgtLevel::kFull, 32, 32, 128},
     {0x57b3a775fa5e8497ull, 0xb5ddb4e28d051311ull,
      0x3a941ab2808ff959ull, 0x3f83c3a95f78f1bbull}},
    {{CodecId::kStreamVByte, GcgtLevel::kFull, 0, 8, 8},
     {0x4d8ef1ed9be9ede1ull, 0x5e2a230c68b81dd7ull,
      0x59dc6763338b51d8ull, 0x1d10133561a78162ull}},
    {{CodecId::kStreamVByte, GcgtLevel::kFull, 0, 8, 128},
     {0x2ae01e0b43d55574ull, 0x4bca5c3025a84548ull,
      0x0d9728cd661f573full, 0x1d10133561a78162ull}},
    {{CodecId::kStreamVByte, GcgtLevel::kFull, 0, 32, 8},
     {0x534b85fe4f10feeeull, 0x2f53294a7886e4eaull,
      0xb1b9e0206a266592ull, 0x75ebfea07b9c1d88ull}},
    {{CodecId::kStreamVByte, GcgtLevel::kFull, 0, 32, 128},
     {0x1aaa96d6ee578e5aull, 0x71c2fd871e0b8db7ull,
      0xa33fbfa05c1ea52dull, 0x75ebfea07b9c1d88ull}},
    {{CodecId::kVarintGb, GcgtLevel::kFull, 0, 8, 8},
     {0xa9898e3aa3561f4eull, 0xc788efab4a071f24ull,
      0x0f1442f84b8c5b04ull, 0x1d10133561a78162ull}},
    {{CodecId::kVarintGb, GcgtLevel::kFull, 0, 8, 128},
     {0x0ae4fc1b45bf02c2ull, 0xb9bdf461f44deef7ull,
      0x985b227b3d6547f7ull, 0x1d10133561a78162ull}},
    {{CodecId::kVarintGb, GcgtLevel::kFull, 0, 32, 8},
     {0xa8c2065989827f11ull, 0x0be22cffc3a5d10dull,
      0x98002e3c11be4f42ull, 0x75ebfea07b9c1d88ull}},
    {{CodecId::kVarintGb, GcgtLevel::kFull, 0, 32, 128},
     {0xc1ec2d49df53e8b0ull, 0x5c4ee53bf98f0f2cull,
      0xc4ce428946faaa85ull, 0x75ebfea07b9c1d88ull}},
};

std::string Describe(const Config& c) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "codec=%s level=%s seg=%d lanes=%d line=%d",
                CodecName(c.codec), GcgtLevelName(c.level), c.seg, c.lanes,
                c.line);
  return buf;
}

std::string RowSource(const Config& c, const Digests& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {{CodecId::%s, GcgtLevel::%s, %d, %d, %d},\n"
                "     {0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull,\n"
                "      0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull}},\n",
                c.codec == CodecId::kCgr           ? "kCgr"
                : c.codec == CodecId::kStreamVByte ? "kStreamVByte"
                                                   : "kVarintGb",
                c.level == GcgtLevel::kIntuitive      ? "kIntuitive"
                : c.level == GcgtLevel::kTwoPhase     ? "kTwoPhase"
                : c.level == GcgtLevel::kTaskStealing ? "kTaskStealing"
                : c.level == GcgtLevel::kWarpCentric  ? "kWarpCentric"
                                                      : "kFull",
                c.seg, c.lanes, c.line, d.bfs, d.cc, d.bc, d.trace);
  return buf;
}

bool SameConfig(const Config& a, const Config& b) {
  return a.codec == b.codec && a.level == b.level && a.seg == b.seg &&
         a.lanes == b.lanes && a.line == b.line;
}

TEST(GoldenWarpStats, EveryConfigModeAndFilterMatchesGolden) {
  const Graph g = GoldenGraph();
  std::string replacement;
  int mismatches = 0;
  for (const Config& c : Matrix()) {
    CgrOptions copt;
    copt.codec = c.codec;
    copt.segment_len_bytes = c.seg;
    auto cgr = CgrGraph::Encode(g, copt);
    ASSERT_TRUE(cgr.ok()) << cgr.status().ToString();

    const Digests traced = RunConfig(cgr.value(), c, Mode::kTrace);
    replacement += RowSource(c, traced);
    const GoldenRow* golden = nullptr;
    for (const GoldenRow& row : kGolden) {
      if (SameConfig(row.config, c)) golden = &row;
    }
    if (golden == nullptr) {
      ADD_FAILURE() << "no golden row for " << Describe(c);
      ++mismatches;
      continue;
    }
    const Digests& want = golden->digests;
    EXPECT_EQ(traced.trace, want.trace) << "trace tables, " << Describe(c);
    for (Mode mode : {Mode::kSerial, Mode::kThreads4, Mode::kTrace}) {
      const Digests got =
          mode == Mode::kTrace ? traced : RunConfig(cgr.value(), c, mode);
      const char* name = mode == Mode::kSerial     ? "serial"
                         : mode == Mode::kThreads4 ? "4 threads"
                                                   : "trace";
      const bool ok =
          got.bfs == want.bfs && got.cc == want.cc && got.bc == want.bc;
      EXPECT_EQ(got.bfs, want.bfs) << "BFS, " << name << ", " << Describe(c);
      EXPECT_EQ(got.cc, want.cc) << "CC, " << name << ", " << Describe(c);
      EXPECT_EQ(got.bc, want.bc) << "BC, " << name << ", " << Describe(c);
      if (!ok) ++mismatches;
    }
    if (traced.trace != want.trace) ++mismatches;
  }
  if (mismatches > 0) {
    std::printf("Computed kGolden rows:\n%s", replacement.c_str());
  }
}

}  // namespace
}  // namespace gcgt
