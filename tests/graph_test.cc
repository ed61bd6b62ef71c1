// Graph substrate tests: CSR construction (paper Fig. 1), generators, I/O,
// statistics.
#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"

namespace gcgt {
namespace {

TEST(Graph, PaperFigure1Csr) {
  Graph g = MakePaperFigure1Graph();
  // Row offsets and column indices exactly as Fig. 1(c).
  EXPECT_EQ(g.offsets(),
            (std::vector<EdgeId>{0, 3, 6, 7, 7, 7, 9, 10, 10}));
  EXPECT_EQ(g.neighbors(),
            (std::vector<NodeId>{1, 3, 4, 2, 4, 5, 5, 6, 7, 7}));
}

TEST(Graph, DedupesAndSorts) {
  Graph g = Graph::FromEdges(4, {{1, 3}, {1, 0}, {1, 3}, {1, 2}, {1, 0}});
  EXPECT_EQ(g.out_degree(1), 3u);
  auto nbrs = g.Neighbors(1);
  EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()),
            (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, SymmetrizeAddsReverseEdges) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {2, 2}}, /*symmetrize=*/true);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 2));  // self loop not duplicated
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, ReversedSwapsDirections) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {3, 0}});
  Graph r = g.Reversed();
  EXPECT_TRUE(r.HasEdge(1, 0));
  EXPECT_TRUE(r.HasEdge(2, 0));
  EXPECT_TRUE(r.HasEdge(0, 3));
  EXPECT_EQ(r.num_edges(), g.num_edges());
}

TEST(Graph, RelabeledPreservesStructure) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<NodeId> perm = {3, 2, 1, 0};  // reverse ids
  Graph h = g.Relabeled(perm);
  EXPECT_TRUE(h.HasEdge(3, 2));
  EXPECT_TRUE(h.HasEdge(2, 1));
  EXPECT_TRUE(h.HasEdge(1, 0));
  EXPECT_EQ(h.num_edges(), 3u);
}

TEST(Graph, ToEdgesRoundTrip) {
  Graph g = GenerateErdosRenyi(100, 500, 4);
  Graph h = Graph::FromEdges(g.num_nodes(), g.ToEdges());
  EXPECT_EQ(g.offsets(), h.offsets());
  EXPECT_EQ(g.neighbors(), h.neighbors());
}

TEST(Graph, EmptyGraph) {
  Graph g = Graph::FromEdges(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Generators, WebGraphHasLocalityAndIntervals) {
  WebGraphParams p;
  p.num_nodes = 4000;
  Graph g = GenerateWebGraph(p);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.num_nodes, 4000u);
  EXPECT_GT(s.avg_degree, 4.0);
  EXPECT_GT(s.interval_coverage, 0.10);  // interval-rich
  EXPECT_LT(s.locality_score, 8.0);      // strong locality
}

TEST(Generators, SocialGraphHasPoorLocality) {
  SocialGraphParams p;
  p.num_nodes = 4000;
  Graph g = GenerateSocialGraph(p);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_LT(s.interval_coverage, 0.10);
  EXPECT_GT(s.locality_score, 4.5);
}

TEST(Generators, TwitterGraphHasExtremeHubs) {
  TwitterGraphParams p;
  p.num_nodes = 5000;
  Graph g = GenerateTwitterGraph(p);
  GraphStats s = ComputeGraphStats(g);
  // A super-hub holds a large multiple of the average degree.
  EXPECT_GT(static_cast<double>(s.max_degree), 40.0 * s.avg_degree);
}

TEST(Generators, BrainGraphIsDenseAndSymmetric) {
  BrainGraphParams p;
  p.num_nodes = 1000;
  p.avg_degree = 80;
  Graph g = GenerateBrainGraph(p);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_GT(s.avg_degree, 40.0);
  for (NodeId u = 0; u < 200; ++u) {
    for (NodeId v : g.Neighbors(u)) {
      ASSERT_TRUE(g.HasEdge(v, u)) << u << "->" << v;
    }
  }
}

TEST(Generators, RmatIsSkewed) {
  Graph g = GenerateRmat(4096, 40000, 6);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_GT(static_cast<double>(s.max_degree), 8.0 * s.avg_degree);
}

TEST(Generators, DeterministicForSameSeed) {
  WebGraphParams p;
  p.num_nodes = 500;
  Graph a = GenerateWebGraph(p);
  Graph b = GenerateWebGraph(p);
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.neighbors(), b.neighbors());
}

TEST(Generators, ToyGraphShapes) {
  Graph path = MakePath(5);
  EXPECT_EQ(path.num_edges(), 8u);  // undirected: 2*(n-1)
  Graph cycle = MakeCycle(6);
  EXPECT_EQ(cycle.num_edges(), 6u);
  Graph star = MakeStar(7);
  EXPECT_EQ(star.out_degree(0), 7u);
  Graph complete = MakeComplete(5);
  EXPECT_EQ(complete.num_edges(), 20u);
}

TEST(GraphStats, DegreeHistogram) {
  Graph star = MakeStar(63, /*undirected=*/false);
  auto hist = DegreeHistogram(star);
  // 63 leaves with degree 0 land in bucket 0; the hub (63) in bucket 5.
  EXPECT_EQ(hist[0], 63u);
  ASSERT_GE(hist.size(), 6u);
  EXPECT_EQ(hist[5], 1u);
}

TEST(GraphIo, EdgeListRoundTrip) {
  Graph g = GenerateErdosRenyi(200, 1500, 8);
  std::string path = ::testing::TempDir() + "/edges.txt";
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  auto back = ReadEdgeListFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().offsets(), g.offsets());
  EXPECT_EQ(back.value().neighbors(), g.neighbors());
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryCsrRoundTrip) {
  Graph g = GenerateRmat(512, 4000, 9);
  std::string path = ::testing::TempDir() + "/graph.bin";
  ASSERT_TRUE(WriteBinaryCsr(g, path).ok());
  auto back = ReadBinaryCsr(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().offsets(), g.offsets());
  EXPECT_EQ(back.value().neighbors(), g.neighbors());
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryCsrRoundTripEdgeShapes) {
  // Single node, empty graph, and interleaved empty adjacency rows — the
  // shapes a length-prefixed format gets wrong first.
  std::vector<Graph> graphs;
  graphs.push_back(Graph::FromEdges(1, {}));
  graphs.push_back(Graph::FromEdges(0, {}));
  graphs.push_back(Graph::FromEdges(5, {{0, 4}, {2, 2}, {4, 0}}));
  for (const Graph& g : graphs) {
    std::string path = ::testing::TempDir() + "/shape.bin";
    ASSERT_TRUE(WriteBinaryCsr(g, path).ok());
    auto back = ReadBinaryCsr(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().offsets(), g.offsets());
    EXPECT_EQ(back.value().neighbors(), g.neighbors());
    std::remove(path.c_str());
  }
}

TEST(GraphIo, WriteFileAtomicNeverExposesPartialFiles) {
  std::string path = ::testing::TempDir() + "/atomic.bin";
  // Seed the target with known content.
  ASSERT_TRUE(WriteFileAtomic(path, [](std::FILE* f) {
                std::fputs("original", f);
                return Status::OK();
              }).ok());
  // A failing writer must leave the previous content untouched.
  EXPECT_FALSE(WriteFileAtomic(path, [](std::FILE* f) {
                 std::fputs("partial", f);
                 return Status::Internal("simulated failure");
               }).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "original");
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileFails) {
  EXPECT_FALSE(ReadEdgeListFile("/nonexistent/file.txt").ok());
  EXPECT_FALSE(ReadBinaryCsr("/nonexistent/file.bin").ok());
}

TEST(GraphIo, CorruptBinaryRejected) {
  std::string path = ::testing::TempDir() + "/bad.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  uint32_t garbage = 0xdeadbeef;
  std::fwrite(&garbage, sizeof(garbage), 1, f);
  std::fclose(f);
  auto r = ReadBinaryCsr(path);
  EXPECT_TRUE(r.status().IsCorruption());
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryHeaderLargerThanFileRejected) {
  // 16-byte files whose header claims more than the file holds: the reader
  // must return Corruption before sizing a buffer from the header.
  struct Header {
    uint32_t num_nodes;
    uint64_t num_edges;
  };
  for (Header h : {Header{1, uint64_t{1} << 62}, Header{0xFFFFFFF0u, 0}}) {
    std::string path = ::testing::TempDir() + "/big_header.bin";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    uint32_t magic = 0x47435231;  // "GCR1"
    std::fwrite(&magic, sizeof(magic), 1, f);
    std::fwrite(&h.num_nodes, sizeof(h.num_nodes), 1, f);
    std::fwrite(&h.num_edges, sizeof(h.num_edges), 1, f);
    std::fclose(f);
    auto r = ReadBinaryCsr(path);
    EXPECT_TRUE(r.status().IsCorruption())
        << "nodes " << h.num_nodes << " edges " << h.num_edges << ": "
        << r.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(GraphIo, WritersReportFailedWrites) {
  // /dev/full accepts the open and buffered writes and fails the flush.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Graph g = MakePaperFigure1Graph();
  EXPECT_FALSE(WriteEdgeListFile(g, "/dev/full").ok());
  EXPECT_FALSE(WriteBinaryCsr(g, "/dev/full").ok());
}

}  // namespace
}  // namespace gcgt
