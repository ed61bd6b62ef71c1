// Node-reordering tests (paper Fig. 13): validity of the permutations,
// structure preservation, and locality/compression improvements of the
// locality-aware methods on clustered graphs.
#include "reorder/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "baseline/cpu_bfs.h"
#include "cgr/cgr_graph.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace gcgt {
namespace {

class ReorderMethodTest : public ::testing::TestWithParam<ReorderMethod> {};

TEST_P(ReorderMethodTest, ProducesValidPermutation) {
  Graph g = GenerateSocialGraph({.num_nodes = 1200, .seed = 71});
  auto perm = ComputeOrdering(g, GetParam());
  EXPECT_TRUE(ValidatePermutation(perm, g.num_nodes()).ok());
  auto inv = InvertPermutation(perm);
  for (NodeId u = 0; u < g.num_nodes(); ++u) EXPECT_EQ(inv[perm[u]], u);
}

TEST_P(ReorderMethodTest, PreservesGraphStructure) {
  Graph g = GenerateErdosRenyi(600, 4000, 72);
  Graph h = ApplyReordering(g, GetParam());
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  // BFS reachability counts are invariant under relabeling.
  auto perm = ComputeOrdering(g, GetParam());
  auto dg = SerialBfs(g, 0);
  auto dh = SerialBfs(h, perm[0]);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(dg[u], dh[perm[u]]) << "node " << u;
  }
}

TEST_P(ReorderMethodTest, HandlesEmptyAndTinyGraphs) {
  Graph empty = Graph::FromEdges(0, {});
  EXPECT_TRUE(ComputeOrdering(empty, GetParam()).empty());
  Graph one = Graph::FromEdges(1, {});
  EXPECT_EQ(ComputeOrdering(one, GetParam()), std::vector<NodeId>{0});
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ReorderMethodTest,
    ::testing::Values(ReorderMethod::kOriginal, ReorderMethod::kDegSort,
                      ReorderMethod::kBfsOrder, ReorderMethod::kGorder,
                      ReorderMethod::kLlp),
    [](const auto& info) { return ReorderMethodName(info.param); });

TEST(Reorder, DegSortPutsHighInDegreeFirst) {
  Graph g = Graph::FromEdges(5, {{0, 4}, {1, 4}, {2, 4}, {3, 2}, {0, 2}});
  auto perm = ComputeOrdering(g, ReorderMethod::kDegSort);
  EXPECT_EQ(perm[4], 0u);  // in-degree 3
  EXPECT_EQ(perm[2], 1u);  // in-degree 2
}

TEST(Reorder, BfsOrderIsContiguousFromRoot) {
  Graph g = MakePath(10);
  auto perm = ComputeOrdering(g, ReorderMethod::kBfsOrder);
  EXPECT_TRUE(ValidatePermutation(perm, 10).ok());
  // On a path, BFS order from an endpoint-ish root keeps neighbors adjacent:
  // every edge's label distance is small.
  for (NodeId u = 0; u + 1 < 10; ++u) {
    int64_t d = static_cast<int64_t>(perm[u]) - static_cast<int64_t>(perm[u + 1]);
    EXPECT_LE(std::abs(d), 2);
  }
}

TEST(Reorder, LocalityMethodsImproveShuffledClusteredGraph) {
  // A clustered graph with shuffled labels: LLP and Gorder must recover
  // locality (lower locality score = smaller gaps).
  BrainGraphParams p;
  p.num_nodes = 1200;
  p.avg_degree = 40;
  p.seed = 73;
  Graph clustered = GenerateBrainGraph(p);
  Rng rng(74);
  std::vector<NodeId> shuffle(clustered.num_nodes());
  std::iota(shuffle.begin(), shuffle.end(), 0);
  rng.Shuffle(shuffle);
  Graph g = clustered.Relabeled(shuffle);

  double original = ComputeGraphStats(g).locality_score;
  double llp =
      ComputeGraphStats(ApplyReordering(g, ReorderMethod::kLlp)).locality_score;
  double gorder = ComputeGraphStats(ApplyReordering(g, ReorderMethod::kGorder))
                      .locality_score;
  EXPECT_LT(llp, original);
  EXPECT_LT(gorder, original);
}

TEST(Reorder, LlpImprovesCgrCompression) {
  BrainGraphParams p;
  p.num_nodes = 1500;
  p.avg_degree = 50;
  p.seed = 75;
  Graph clustered = GenerateBrainGraph(p);
  Rng rng(76);
  std::vector<NodeId> shuffle(clustered.num_nodes());
  std::iota(shuffle.begin(), shuffle.end(), 0);
  rng.Shuffle(shuffle);
  Graph g = clustered.Relabeled(shuffle);

  auto original = CgrGraph::Encode(g, CgrOptions{});
  auto reordered =
      CgrGraph::Encode(ApplyReordering(g, ReorderMethod::kLlp), CgrOptions{});
  ASSERT_TRUE(original.ok() && reordered.ok());
  EXPECT_LT(reordered.value().BitsPerEdge(), original.value().BitsPerEdge());
}

TEST(Reorder, ValidatePermutationCatchesErrors) {
  EXPECT_FALSE(ValidatePermutation({0, 1}, 3).ok());        // wrong size
  EXPECT_FALSE(ValidatePermutation({0, 1, 1}, 3).ok());     // repeated
  EXPECT_FALSE(ValidatePermutation({0, 1, 5}, 3).ok());     // out of range
  EXPECT_TRUE(ValidatePermutation({2, 0, 1}, 3).ok());
}

// ---------------------------------------------------------------------------
// LLP layer schedule: the layers run concurrently, the permutation is the
// sequential one.
// ---------------------------------------------------------------------------

constexpr double kGammas[] = {1.0, 1.0 / 4, 1.0 / 16, 0.0};

/// Sweeps a layer ran, read off the rng stream: every sweep is one Shuffle
/// of an n-element vector.
int SweepsBetween(Rng before, Rng after, NodeId n) {
  std::vector<NodeId> scratch(n);
  const uint64_t next = after.Next();
  for (int sweeps = 0; sweeps <= 4; ++sweeps) {
    if (Rng(before).Next() == next) return sweeps;
    before.Shuffle(scratch);
  }
  return -1;
}

/// The LLP permutation with the four layers run one after another on one
/// Rng; `sweeps`, if given, receives each layer's sweep count.
std::vector<NodeId> ReferenceLlp(const Graph& g, uint64_t seed,
                                 std::vector<int>* sweeps = nullptr) {
  const NodeId n = g.num_nodes();
  Graph reverse = g.Reversed();
  Rng rng(seed);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<NodeId> label_rank(n);
  for (double gamma : kGammas) {
    const Rng before = rng;
    std::vector<NodeId> label =
        internal::PropagateLabels(g, reverse, gamma, 4, rng);
    if (sweeps != nullptr) sweeps->push_back(SweepsBetween(before, rng, n));
    std::fill(label_rank.begin(), label_rank.end(), kInvalidNode);
    NodeId next_rank = 0;
    for (NodeId node : order) {
      if (label_rank[label[node]] == kInvalidNode) {
        label_rank[label[node]] = next_rank++;
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return label_rank[label[a]] < label_rank[label[b]];
    });
  }
  std::vector<NodeId> perm(n);
  for (NodeId rank = 0; rank < n; ++rank) perm[order[rank]] = rank;
  return perm;
}

uint64_t PermutationDigest(const std::vector<NodeId>& perm) {
  uint64_t h = 0x12345;
  for (NodeId x : perm) h = Mix64(h ^ x);
  return h;
}

std::vector<Graph> LlpTestGraphs() {
  TwitterGraphParams twitter;
  twitter.num_nodes = 2000;
  twitter.seed = 13;
  std::vector<Graph> graphs;
  graphs.push_back(GenerateWebGraph({.num_nodes = 2000, .seed = 11}));
  graphs.push_back(GenerateSocialGraph({.num_nodes = 2000, .seed = 12}));
  graphs.push_back(GenerateTwitterGraph(twitter));
  graphs.push_back(GenerateErdosRenyi(2000, 9000, 14));
  return graphs;
}

TEST(LlpSchedule, MatchesSequentialLayerReference) {
  for (const Graph& g : LlpTestGraphs()) {
    for (uint64_t seed : {42, 7}) {
      EXPECT_EQ(ComputeOrdering(g, ReorderMethod::kLlp, seed),
                ReferenceLlp(g, seed))
          << "n " << g.num_nodes() << " seed " << seed;
    }
  }
}

TEST(LlpSchedule, PoolSizeDoesNotChangePermutation) {
  for (const Graph& g : LlpTestGraphs()) {
    Graph reverse = g.Reversed();
    const std::vector<NodeId> expected = ReferenceLlp(g, 42);
    for (size_t threads : {1, 2, 3, 4, 7}) {
      EXPECT_EQ(internal::LlpOrder(g, reverse, 42, SharedThreadPool(threads)),
                expected)
          << "n " << g.num_nodes() << " threads " << threads;
    }
  }
}

TEST(LlpSchedule, EarlyConvergedLayerReplaysRngStream) {
  // Sparse ER graphs. On the first, layers 0-2 each stop after 3 sweeps,
  // so every layer after the first is rerun from the true stream; on the
  // second only layer 2 stops early, so only layer 3 is rerun. On both the
  // permutation differs if the reruns are skipped.
  for (const Graph& g :
       {GenerateErdosRenyi(50, 25, 14), GenerateErdosRenyi(300, 150, 16)}) {
    std::vector<int> sweeps;
    const std::vector<NodeId> expected = ReferenceLlp(g, 42, &sweeps);
    ASSERT_EQ(sweeps.size(), 4u);
    EXPECT_TRUE(std::any_of(sweeps.begin(), sweeps.end() - 1,
                            [](int s) { return s >= 1 && s < 4; }))
        << "no layer before the last converged early";
    Graph reverse = g.Reversed();
    for (size_t threads : {1, 4}) {
      EXPECT_EQ(internal::LlpOrder(g, reverse, 42, SharedThreadPool(threads)),
                expected)
          << "n " << g.num_nodes() << " threads " << threads;
    }
  }
}

TEST(LlpSchedule, PermutationDigestIsPinned) {
  // Recorded when the layers still ran one after another. A change here
  // changes every LLP-prepared artifact and its compression rate.
  EXPECT_EQ(PermutationDigest(ComputeOrdering(
                GenerateWebGraph({.num_nodes = 2000, .seed = 11}),
                ReorderMethod::kLlp, 42)),
            0x96ce42188be56cbfULL);
}

}  // namespace
}  // namespace gcgt
