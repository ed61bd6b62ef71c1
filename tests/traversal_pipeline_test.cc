// Unit tests for the expand–filter–contract pipeline layer and the
// chunk-scoped claim protocol:
//  - TraversalPipeline round/contraction semantics (CC sort-unique, BC
//    level capture, device budget accounting, post-round kernels);
//  - parallel-vs-serial bit-identity of the claim-buffer filter path,
//    including the deferred fallback used by filters that do not override
//    the claim hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "cgr/cgr_graph.h"
#include "core/bc_filters.h"
#include "core/bfs.h"
#include "core/cc.h"
#include "core/cc_filter.h"
#include "core/frontier_filter.h"
#include "core/traversal_pipeline.h"
#include "graph/generators.h"
#include "util/thread_pool.h"

namespace gcgt {
namespace {

Graph TestGraph(NodeId n = 1200, uint64_t seed = 99) {
  WebGraphParams params;
  params.num_nodes = n;
  params.avg_degree = 8;
  params.seed = seed;
  return GenerateWebGraph(params);
}

CgrGraph Encode(const Graph& g, uint32_t segment_len_bytes = 32) {
  CgrOptions options;
  options.segment_len_bytes = segment_len_bytes;
  auto cgr = CgrGraph::Encode(g, options);
  EXPECT_TRUE(cgr.ok()) << cgr.status().ToString();
  return std::move(cgr.value());
}

GcgtOptions SmallWarpOptions(int num_threads) {
  GcgtOptions o;
  o.lanes = 8;  // small warps -> many chunks
  o.num_threads = num_threads;
  return o;
}

// ---------------------------------------------------------------------------
// TraversalPipeline semantics.
// ---------------------------------------------------------------------------

TEST(TraversalPipeline, RunsBfsToFixpointAndMatchesDriver) {
  Graph g = TestGraph();
  CgrGraph cgr = Encode(g);
  GcgtOptions opt;

  TraversalPipeline pipeline(cgr, opt);
  ASSERT_TRUE(pipeline.ReserveDevice(3 * 4ull * g.num_nodes(), "test").ok());
  BfsFilter filter(g.num_nodes());
  filter.SetSource(0);
  auto rounds_r = pipeline.Run({0}, filter, ContractionPolicy::kNone);
  ASSERT_TRUE(rounds_r.ok());
  int rounds = rounds_r.value();

  auto driver = GcgtBfs(cgr, 0, opt);
  ASSERT_TRUE(driver.ok());
  EXPECT_EQ(filter.depth(), driver.value().depth);
  EXPECT_EQ(pipeline.Metrics().warp, driver.value().metrics.warp);
  EXPECT_EQ(pipeline.Metrics().model_ms, driver.value().metrics.model_ms);
  EXPECT_EQ(pipeline.Metrics().kernels, rounds);  // one kernel per round
  // Rounds = number of BFS levels actually expanded.
  uint32_t max_depth = 0;
  for (uint32_t d : driver.value().depth) {
    if (d != BfsFilter::kUnvisited) max_depth = std::max(max_depth, d);
  }
  EXPECT_EQ(rounds, static_cast<int>(max_depth) + 1);
}

TEST(TraversalPipeline, ReserveDeviceEnforcesBudget) {
  Graph g = TestGraph(300);
  CgrGraph cgr = Encode(g);
  GcgtOptions opt;
  opt.device.memory_bytes = 1;  // nothing fits
  TraversalPipeline pipeline(cgr, opt);
  Status s = pipeline.ReserveDevice(123, "unit");
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_NE(s.ToString().find("unit"), std::string::npos);
}

/// Filter that accepts every edge and re-appends u (like CC's re-scan set),
/// counting how often each frontier node was expanded per round. A node
/// duplicated in a round's frontier would double its expansion count.
class RecordingRescanFilter : public FrontierFilter {
 public:
  RecordingRescanFilter(NodeId n, int max_rounds)
      : n_(n), max_rounds_(max_rounds) {}

  bool Filter(NodeId u, NodeId /*v*/) override {
    if (rounds_.empty() || !in_round_) {
      rounds_.emplace_back(n_, 0);
      in_round_ = true;
    }
    ++rounds_.back()[u];
    return static_cast<int>(rounds_.size()) < max_rounds_;
  }
  NodeId AppendTarget(NodeId u, NodeId /*v*/) override { return u; }

  void EndRound() { in_round_ = false; }

  /// rounds()[r][u] = edges expanded from u in round r.
  const std::vector<std::vector<uint32_t>>& rounds() const { return rounds_; }

 private:
  NodeId n_;
  int max_rounds_;
  bool in_round_ = false;
  std::vector<std::vector<uint32_t>> rounds_;
};

TEST(TraversalPipeline, SortUniqueContractionDeduplicatesRescanSet) {
  Graph g = TestGraph(400);
  CgrGraph cgr = Encode(g);
  GcgtOptions opt;
  TraversalPipeline pipeline(cgr, opt);

  // Start from every node; the filter re-appends u once per expanded edge,
  // so without contraction round 2 would see each node degree-many times.
  std::vector<NodeId> all(g.num_nodes());
  std::iota(all.begin(), all.end(), 0);
  RecordingRescanFilter filter(g.num_nodes(), /*max_rounds=*/2);
  auto rounds_r =
      pipeline.Run(all, filter, ContractionPolicy::kSortUnique,
                   /*trace=*/nullptr, [&] {
                     filter.EndRound();
                     return std::vector<simt::WarpStats>{};
                   });
  ASSERT_TRUE(rounds_r.ok());
  int rounds = rounds_r.value();
  ASSERT_EQ(rounds, 2);
  ASSERT_EQ(filter.rounds().size(), 2u);
  // Round 1 accepted u once per expanded edge, so without sort-unique
  // contraction round 2's frontier would hold u out_degree(u) times and
  // its expansion counts would be squared. With it, round 2 expands every
  // node with edges exactly out_degree-many times again.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(filter.rounds()[0][u], g.out_degree(u)) << "node " << u;
    EXPECT_EQ(filter.rounds()[1][u],
              g.out_degree(u) > 0 ? g.out_degree(u) : 0u)
        << "node " << u;
  }
}

TEST(TraversalPipeline, CaptureLevelsRecordsForwardFrontiers) {
  Graph g = TestGraph(600);
  CgrGraph cgr = Encode(g);
  GcgtOptions opt;
  TraversalPipeline pipeline(cgr, opt);
  BfsFilter filter(g.num_nodes());
  filter.SetSource(3);
  auto rounds_r = pipeline.Run({3}, filter, ContractionPolicy::kCaptureLevels);
  ASSERT_TRUE(rounds_r.ok());
  int rounds = rounds_r.value();

  const auto& levels = pipeline.levels();
  ASSERT_EQ(static_cast<int>(levels.size()), rounds);
  EXPECT_EQ(levels[0], std::vector<NodeId>{3});
  // Level k holds exactly the nodes at BFS depth k.
  for (size_t k = 0; k < levels.size(); ++k) {
    for (NodeId v : levels[k]) {
      EXPECT_EQ(filter.depth()[v], k) << "node " << v;
    }
  }
  size_t total = 0;
  for (const auto& level : levels) total += level.size();
  size_t reached = 0;
  for (uint32_t d : filter.depth()) reached += d != BfsFilter::kUnvisited;
  EXPECT_EQ(total, reached);
}

TEST(TraversalPipeline, CcCommitAndPointerJumpSemantics) {
  // Two components: a 5-clique and a path. After GcgtCc every parent chain
  // must be fully flattened (pointer jumping ran after the last commit).
  EdgeList edges;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  for (NodeId u = 6; u < 11; ++u) edges.emplace_back(u, u + 1);
  Graph g = Graph::FromEdges(12, edges, /*symmetrize=*/true);
  CgrGraph cgr = Encode(g, /*segment_len_bytes=*/0);
  auto result = GcgtCc(cgr, GcgtOptions{});
  ASSERT_TRUE(result.ok());
  const auto& comp = result.value().component;
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(comp[v], 0u);
  EXPECT_EQ(comp[5], 5u);  // isolated
  for (NodeId v = 6; v < 12; ++v) EXPECT_EQ(comp[v], 6u);
  EXPECT_GE(result.value().rounds, 2);  // fixpoint needs a confirming round
}

// ---------------------------------------------------------------------------
// Claim protocol: deferred fallback filters stay bit-identical under the
// parallel engine even though they only implement the serial contract.
// ---------------------------------------------------------------------------

/// Accepts edges to even nodes not yet taken this query; issues one modeled
/// atomic per acceptance. Deliberately does NOT override the claim hooks.
class DeferredEvenFilter : public FrontierFilter {
 public:
  explicit DeferredEvenFilter(NodeId n) : taken_(n, 0) {}

  bool Filter(NodeId /*u*/, NodeId v) override {
    if (v % 2 != 0 || taken_[v]) return false;
    taken_[v] = 1;
    ++atomics_;
    return true;
  }
  int TakeAtomics() override {
    int a = atomics_;
    atomics_ = 0;
    return a;
  }
  const std::vector<uint8_t>& taken() const { return taken_; }

 private:
  std::vector<uint8_t> taken_;
  int atomics_ = 0;
};

TEST(ClaimProtocol, DeferredFallbackMatchesSerialEngine) {
  Graph g = TestGraph(900, 7);
  for (uint32_t seg : {0u, 32u}) {
    CgrGraph cgr = Encode(g, seg);
    CgrTraversalEngine serial(cgr, SmallWarpOptions(1));
    CgrTraversalEngine parallel(cgr, SmallWarpOptions(4));

    std::vector<NodeId> frontier(64);
    std::iota(frontier.begin(), frontier.end(), 0);
    DeferredEvenFilter f_serial(g.num_nodes()), f_parallel(g.num_nodes());
    std::vector<NodeId> out_s, out_p;
    std::vector<simt::WarpStats> warps_s, warps_p;
    serial.ProcessFrontier(frontier, f_serial, &out_s, &warps_s);
    parallel.ProcessFrontier(frontier, f_parallel, &out_p, &warps_p);

    EXPECT_EQ(out_s, out_p);
    EXPECT_EQ(f_serial.taken(), f_parallel.taken());
    ASSERT_EQ(warps_s.size(), warps_p.size());
    for (size_t w = 0; w < warps_s.size(); ++w) {
      EXPECT_EQ(warps_s[w], warps_p[w]) << "warp " << w << " seg " << seg;
    }
  }
}

}  // namespace
}  // namespace gcgt
