// GcgtSession: the prepare-once / query-many contract.
//  - session reuse: queries on one session are bit-identical to fresh
//    single-query engines,
//  - zero engine constructions per query (engine identity across a batch),
//  - RunBatch determinism across host thread counts (incl. BC doubles),
//  - backend cross-checks: BFS/CC/BC agree across kCgrSimt, kCsrBaseline
//    and kCpuReference on generated graphs,
//  - Prepare() equals the hand-rolled VNC -> reorder -> encode pipeline,
//  - an invalid warp geometry is an InvalidArgument at Prepare/Run, never a
//    crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "api/gcgt_session.h"
#include "baseline/cpu_bfs.h"
#include "baseline/cpu_reference.h"
#include "graph/generators.h"

namespace gcgt {
namespace {

Graph MakeGraph(const std::string& name) {
  if (name == "web") {
    WebGraphParams p;
    p.num_nodes = 1500;
    p.seed = 91;
    return GenerateWebGraph(p);
  }
  if (name == "twitter") {
    TwitterGraphParams p;
    p.num_nodes = 1200;
    p.seed = 92;
    return GenerateTwitterGraph(p);
  }
  return GenerateErdosRenyi(900, 5400, 93);
}

// Partitions agree (representatives may differ between algorithms).
void ExpectSamePartition(const std::vector<NodeId>& a,
                         const std::vector<NodeId>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::map<NodeId, NodeId> a2b, b2a;
  for (size_t i = 0; i < a.size(); ++i) {
    auto [it, _] = a2b.emplace(a[i], b[i]);
    ASSERT_EQ(it->second, b[i]) << "node " << i << " splits a component";
    auto [jt, __] = b2a.emplace(b[i], a[i]);
    ASSERT_EQ(jt->second, a[i]) << "node " << i << " merges components";
  }
}

TEST(GcgtSession, ReuseBitIdenticalToFreshEngines) {
  Graph g = MakeGraph("web");
  auto session = GcgtSession::Prepare(g, PrepareOptions{});
  ASSERT_TRUE(session.ok());
  const CgrGraph& cgr = session.value().cgr();
  const GcgtOptions opt = session.value().options().gcgt;

  // Interleave query types so every driver runs on a reused pipeline.
  const NodeId s1 = 0, s2 = 17;
  auto bfs1 = session.value().Run(BfsQuery{s1});
  auto cc = session.value().Run(CcQuery{});
  auto bfs2 = session.value().Run(BfsQuery{s2});
  auto bc = session.value().Run(BcQuery{{s1}});
  ASSERT_TRUE(bfs1.ok() && cc.ok() && bfs2.ok() && bc.ok());

  auto fresh_bfs1 = GcgtBfs(cgr, s1, opt);
  auto fresh_bfs2 = GcgtBfs(cgr, s2, opt);
  auto fresh_cc = GcgtCc(cgr, opt);
  auto fresh_bc = GcgtBc(cgr, s1, opt);
  ASSERT_TRUE(fresh_bfs1.ok() && fresh_bfs2.ok() && fresh_cc.ok() &&
              fresh_bc.ok());

  EXPECT_EQ(bfs1.value().bfs().depth, fresh_bfs1.value().depth);
  EXPECT_EQ(bfs2.value().bfs().depth, fresh_bfs2.value().depth);
  EXPECT_EQ(cc.value().cc().component, fresh_cc.value().component);
  EXPECT_EQ(cc.value().cc().rounds, fresh_cc.value().rounds);
  EXPECT_EQ(bc.value().bc().dependency, fresh_bc.value().dependency);
  EXPECT_EQ(bc.value().bc().sigma, fresh_bc.value().sigma);
  EXPECT_EQ(bc.value().bc().depth, fresh_bc.value().depth);

  // Metrics too: the reused pipeline must model exactly the same kernels.
  EXPECT_EQ(bfs2.value().metrics().model_ms, fresh_bfs2.value().metrics.model_ms);
  EXPECT_EQ(bfs2.value().metrics().kernels, fresh_bfs2.value().metrics.kernels);
  EXPECT_EQ(bfs2.value().metrics().warp.steps,
            fresh_bfs2.value().metrics.warp.steps);
  EXPECT_EQ(bc.value().metrics().model_ms, fresh_bc.value().metrics.model_ms);
  EXPECT_EQ(cc.value().metrics().warp.mem_txns,
            fresh_cc.value().metrics.warp.mem_txns);
}

TEST(GcgtSession, ZeroEngineConstructionsAcrossBatch) {
  Graph g = MakeGraph("er");
  auto session = GcgtSession::Prepare(g, PrepareOptions{});
  ASSERT_TRUE(session.ok());
  const CgrTraversalEngine* engine_before = &session.value().engine();

  std::vector<Query> batch = {BfsQuery{0}, CcQuery{}, BfsQuery{5},
                              BcQuery{{0, 3}}, CcQuery{}};
  const uint64_t constructed = CgrTraversalEngine::ConstructedCount();
  auto results = session.value().RunBatch(batch);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), batch.size());

  // The batch constructed no engine, and the session still serves the same
  // instance it prepared.
  EXPECT_EQ(CgrTraversalEngine::ConstructedCount(), constructed);
  EXPECT_EQ(&session.value().engine(), engine_before);
}

TEST(GcgtSession, RunBatchDeterministicAcrossThreadCounts) {
  Graph g = MakeGraph("twitter");
  std::vector<Query> batch = {BfsQuery{0}, CcQuery{}, BcQuery{{0, 7, 42}},
                              BfsQuery{11}};

  std::vector<std::vector<QueryResult>> runs;
  for (int threads : {1, 2, 4}) {
    PrepareOptions opt;
    opt.gcgt.num_threads = threads;
    auto session = GcgtSession::Prepare(g, opt);
    ASSERT_TRUE(session.ok());
    auto results = session.value().RunBatch(batch);
    ASSERT_TRUE(results.ok());
    runs.push_back(std::move(results.value()));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r][0].bfs().depth, runs[0][0].bfs().depth);
    EXPECT_EQ(runs[r][1].cc().component, runs[0][1].cc().component);
    // Bit-identical doubles: the claim protocol pins accumulation order.
    EXPECT_EQ(runs[r][2].bc().dependency, runs[0][2].bc().dependency);
    EXPECT_EQ(runs[r][2].bc().sigma, runs[0][2].bc().sigma);
    EXPECT_EQ(runs[r][3].bfs().depth, runs[0][3].bfs().depth);
    for (size_t q = 0; q < batch.size(); ++q) {
      EXPECT_EQ(runs[r][q].metrics().model_ms, runs[0][q].metrics().model_ms)
          << "query " << q;
    }
  }
}

class SessionBackendTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SessionBackendTest, CrossCheckBfsCcBc) {
  Graph g = MakeGraph(GetParam());
  auto session = GcgtSession::Prepare(g, PrepareOptions{});
  ASSERT_TRUE(session.ok());

  const Backend backends[] = {Backend::kCgrSimt, Backend::kCsrBaseline,
                              Backend::kCpuReference};
  const NodeId source = 3;

  std::vector<QueryResult> bfs, cc, bc;
  for (Backend b : backends) {
    auto r1 = session.value().Run(BfsQuery{source}, {.backend = b});
    auto r2 = session.value().Run(CcQuery{}, {.backend = b});
    auto r3 = session.value().Run(BcQuery{{source}}, {.backend = b});
    ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok()) << BackendName(b);
    bfs.push_back(std::move(r1.value()));
    cc.push_back(std::move(r2.value()));
    bc.push_back(std::move(r3.value()));
  }

  for (size_t i = 1; i < std::size(backends); ++i) {
    EXPECT_EQ(bfs[i].bfs().depth, bfs[0].bfs().depth)
        << BackendName(backends[i]);
    ExpectSamePartition(cc[i].cc().component, cc[0].cc().component);
    ASSERT_EQ(bc[i].bc().depth, bc[0].bc().depth);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_NEAR(bc[i].bc().sigma[v], bc[0].bc().sigma[v],
                  1e-6 * (1 + std::abs(bc[0].bc().sigma[v])))
          << BackendName(backends[i]) << " node " << v;
      ASSERT_NEAR(bc[i].bc().dependency[v], bc[0].bc().dependency[v],
                  1e-6 * (1 + std::abs(bc[0].bc().dependency[v])))
          << BackendName(backends[i]) << " node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, SessionBackendTest,
                         ::testing::Values("web", "twitter", "er"));

TEST(GcgtSession, MultiSourceBcAccumulatesOneDependencyVector) {
  Graph g = MakeGraph("er");
  auto session = GcgtSession::Prepare(g, PrepareOptions{});
  ASSERT_TRUE(session.ok());

  auto batch = session.value().Run(BcQuery{{2, 9}});
  auto a = session.value().Run(BcQuery{{2}});
  auto b = session.value().Run(BcQuery{{9}});
  ASSERT_TRUE(batch.ok() && a.ok() && b.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(batch.value().bc().dependency[v],
              a.value().bc().dependency[v] + b.value().bc().dependency[v])
        << "node " << v;
  }
  // Metrics aggregate both sources into one query (the batch converts the
  // summed cycle count once, so allow conversion rounding).
  EXPECT_NEAR(batch.value().metrics().model_ms,
              a.value().metrics().model_ms + b.value().metrics().model_ms,
              1e-12);
  EXPECT_EQ(batch.value().metrics().kernels,
            a.value().metrics().kernels + b.value().metrics().kernels);
}

TEST(GcgtSession, PrepareMatchesHandRolledPipeline) {
  Graph raw = MakeGraph("web");
  PrepareOptions opt;
  opt.apply_vnc = true;
  opt.reorder = ReorderMethod::kLlp;
  auto session = GcgtSession::Prepare(raw, opt);
  ASSERT_TRUE(session.ok());

  VncResult vnc = VirtualNodeCompress(raw, opt.vnc);
  Graph ordered = ApplyReordering(vnc.graph, opt.reorder, opt.reorder_seed);
  auto cgr = CgrGraph::Encode(ordered, opt.cgr);
  ASSERT_TRUE(cgr.ok());

  EXPECT_TRUE(std::equal(
      session.value().cgr().bits().begin(), session.value().cgr().bits().end(),
      cgr.value().bits().begin(), cgr.value().bits().end()));
  EXPECT_EQ(session.value().cgr().total_bits(), cgr.value().total_bits());
  EXPECT_EQ(session.value().vnc_virtual_nodes(), vnc.num_virtual_nodes());
  EXPECT_EQ(session.value().graph().num_edges(), ordered.num_edges());
}

TEST(GcgtSession, AttachServesBorrowedEncodingAndDecodesBaselineGraph) {
  Graph g = MakeGraph("er");
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  GcgtOptions opt;
  GcgtSession session = GcgtSession::Attach(cgr.value(), opt);

  auto from_session = session.Run(BfsQuery{4});
  auto from_free = GcgtBfs(cgr.value(), 4, opt);
  ASSERT_TRUE(from_session.ok() && from_free.ok());
  EXPECT_EQ(from_session.value().bfs().depth, from_free.value().depth);
  EXPECT_EQ(from_session.value().metrics().model_ms,
            from_free.value().metrics.model_ms);

  // The lossless decode feeds the baseline backends the original graph.
  EXPECT_EQ(session.graph().num_edges(), g.num_edges());
  auto cpu = session.Run(BfsQuery{4}, {.backend = Backend::kCpuReference});
  ASSERT_TRUE(cpu.ok());
  EXPECT_EQ(cpu.value().bfs().depth, from_free.value().depth);
}

TEST(GcgtSession, ReorderedSessionAnswersInCallerIdSpace) {
  Graph g = MakeGraph("web");
  auto plain = GcgtSession::Prepare(g, PrepareOptions{});
  PrepareOptions llp;
  llp.reorder = ReorderMethod::kLlp;
  auto reordered = GcgtSession::Prepare(g, llp);
  ASSERT_TRUE(plain.ok() && reordered.ok());
  EXPECT_EQ(reordered.value().num_query_nodes(), g.num_nodes());

  // Distances are relabeling-invariant: the reordered session must answer
  // exactly like the unreordered one, in the caller's ids.
  const NodeId source = 5;
  auto a = plain.value().Run(BfsQuery{source});
  auto b = reordered.value().Run(BfsQuery{source});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().bfs().depth, b.value().bfs().depth);

  // ... on every backend.
  auto b_cpu = reordered.value().Run(BfsQuery{source},
                                     {.backend = Backend::kCpuReference});
  ASSERT_TRUE(b_cpu.ok());
  EXPECT_EQ(b_cpu.value().bfs().depth, a.value().bfs().depth);

  // CC: same partition; labels canonicalized to the smallest caller id.
  auto cc_a = plain.value().Run(CcQuery{});
  auto cc_b = reordered.value().Run(CcQuery{});
  ASSERT_TRUE(cc_a.ok() && cc_b.ok());
  ExpectSamePartition(cc_a.value().cc().component, cc_b.value().cc().component);
  EXPECT_EQ(cc_b.value().cc().component, SerialCc(g));

  auto bc_a = plain.value().Run(BcQuery{{source}});
  auto bc_b = reordered.value().Run(BcQuery{{source}});
  ASSERT_TRUE(bc_a.ok() && bc_b.ok());
  EXPECT_EQ(bc_a.value().bc().depth, bc_b.value().bc().depth);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NEAR(bc_a.value().bc().dependency[v],
                bc_b.value().bc().dependency[v],
                1e-6 * (1 + std::abs(bc_a.value().bc().dependency[v])))
        << "node " << v;
  }
}

TEST(GcgtSession, VncSessionResultsCoverExactlyTheRealNodes) {
  Graph g = MakeGraph("web");
  PrepareOptions opt;
  opt.apply_vnc = true;
  opt.reorder = ReorderMethod::kLlp;
  auto session = GcgtSession::Prepare(g, opt);
  ASSERT_TRUE(session.ok());
  ASSERT_GT(session.value().vnc_virtual_nodes(), 0u);
  EXPECT_EQ(session.value().num_query_nodes(), g.num_nodes());

  const NodeId source = 5;
  auto bfs = session.value().Run(BfsQuery{source});
  ASSERT_TRUE(bfs.ok());
  ASSERT_EQ(bfs.value().bfs().depth.size(), g.num_nodes());
  // Virtual hops change distances, never reachability.
  std::vector<uint32_t> original = SerialBfs(g, source);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(bfs.value().bfs().depth[v] == BfsFilter::kUnvisited,
              original[v] == kBfsUnreached)
        << "node " << v;
  }

  // The partition over real nodes is VNC-invariant, and the canonical
  // min-id labels match the union-find oracle on the ORIGINAL graph.
  auto cc = session.value().Run(CcQuery{});
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ(cc.value().cc().component, SerialCc(g));
}

TEST(GcgtSession, AttachCloneSharesArtifactsAndServesIdenticalResults) {
  Graph g = MakeGraph("web");
  PrepareOptions opt;
  opt.reorder = ReorderMethod::kLlp;  // clone must inherit the id translation
  auto session = GcgtSession::Prepare(g, opt);
  ASSERT_TRUE(session.ok());
  session.value().graph();  // force the decode so clones share it

  const uint64_t encodes = CgrGraph::EncodedCount();
  const uint64_t engines = CgrTraversalEngine::ConstructedCount();
  GcgtSession clone = session.value().AttachClone(/*num_threads_override=*/1);
  // A clone costs one engine and zero encodes; artifacts are shared by
  // reference, down to the decoded uncompressed view.
  EXPECT_EQ(CgrGraph::EncodedCount(), encodes);
  EXPECT_EQ(CgrTraversalEngine::ConstructedCount(), engines + 1);
  EXPECT_EQ(&clone.cgr(), &session.value().cgr());
  EXPECT_EQ(&clone.graph(), &session.value().graph());
  EXPECT_EQ(clone.artifact_fingerprint(),
            session.value().artifact_fingerprint());
  EXPECT_EQ(clone.num_query_nodes(), session.value().num_query_nodes());

  for (const Query& q :
       {Query{BfsQuery{7}}, Query{CcQuery{}}, Query{BcQuery{{2, 7}}}}) {
    auto a = session.value().Run(q);
    auto b = clone.Run(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().metrics().model_ms, b.value().metrics().model_ms);
    if (a.value().kind() == QueryKind::kBfs) {
      EXPECT_EQ(a.value().bfs().depth, b.value().bfs().depth);
    } else if (a.value().kind() == QueryKind::kCc) {
      EXPECT_EQ(a.value().cc().component, b.value().cc().component);
    } else {
      EXPECT_EQ(a.value().bc().dependency, b.value().bc().dependency);
    }
  }
}

TEST(GcgtSession, ArtifactFingerprintPinsGraphAndOptions) {
  Graph g = MakeGraph("er");
  Graph g2 = MakeGraph("web");
  PrepareOptions opt;
  EXPECT_EQ(ComputeArtifactFingerprint(g, opt),
            ComputeArtifactFingerprint(g, opt));

  PrepareOptions other = opt;
  other.gcgt.level = GcgtLevel::kTwoPhase;
  EXPECT_NE(ComputeArtifactFingerprint(g, other),
            ComputeArtifactFingerprint(g, opt));
  EXPECT_NE(ComputeArtifactFingerprint(g2, opt),
            ComputeArtifactFingerprint(g, opt));

  // num_threads is NOT part of the identity: results are bit-identical
  // across host thread counts, so cached results may be shared across them.
  PrepareOptions threads = opt;
  threads.gcgt.num_threads = 7;
  EXPECT_EQ(ComputeArtifactFingerprint(g, threads),
            ComputeArtifactFingerprint(g, opt));

  auto session = GcgtSession::Prepare(g, opt);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().artifact_fingerprint(),
            ComputeArtifactFingerprint(g, opt));
}

TEST(GcgtSession, InvalidQueriesRejected) {
  Graph g = MakeGraph("er");
  auto session = GcgtSession::Prepare(g, PrepareOptions{});
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session.value()
                  .Run(BfsQuery{g.num_nodes() + 5})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session.value().Run(BcQuery{{}}).status().IsInvalidArgument());
  EXPECT_TRUE(session.value()
                  .Run(BcQuery{{g.num_nodes()}})
                  .status()
                  .IsInvalidArgument());
  for (Backend b : {Backend::kCsrBaseline, Backend::kCpuReference}) {
    EXPECT_TRUE(session.value()
                    .Run(BfsQuery{g.num_nodes() + 5}, {.backend = b})
                    .status()
                    .IsInvalidArgument());
  }
}

/// Warp geometries GcgtOptions::Validate rejects: line sizes that are zero,
/// below 8 B or not a power of two, and lane counts outside [1, 32].
std::vector<GcgtOptions> InvalidGeometries() {
  std::vector<GcgtOptions> out;
  for (int line : {0, 4, 96}) {
    GcgtOptions o;
    o.cost.cache_line_bytes = line;
    out.push_back(o);
  }
  for (int lanes : {0, -1, 33}) {
    GcgtOptions o;
    o.lanes = lanes;
    out.push_back(o);
  }
  return out;
}

TEST(GcgtSession, PrepareRejectsInvalidWarpGeometry) {
  Graph g = MakeGraph("er");
  for (const GcgtOptions& bad : InvalidGeometries()) {
    PrepareOptions opt;
    opt.gcgt = bad;
    EXPECT_TRUE(GcgtSession::Prepare(g, opt).status().IsInvalidArgument())
        << "lanes=" << bad.lanes << " line=" << bad.cost.cache_line_bytes;
  }
  // The accepted extremes serve answers equal to the CPU reference.
  for (auto [lanes, line] : {std::pair{1, 8}, std::pair{32, 8},
                             std::pair{1, 256}}) {
    PrepareOptions opt;
    opt.gcgt.lanes = lanes;
    opt.gcgt.cost.cache_line_bytes = line;
    auto session = GcgtSession::Prepare(g, opt);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto gcgt = session.value().Run(BfsQuery{4});
    auto cpu =
        session.value().Run(BfsQuery{4}, {.backend = Backend::kCpuReference});
    ASSERT_TRUE(gcgt.ok() && cpu.ok()) << "lanes=" << lanes << " line=" << line;
    EXPECT_EQ(gcgt.value().bfs().depth, cpu.value().bfs().depth);
  }
}

TEST(GcgtSession, RunRejectsAttachedSessionWithInvalidWarpGeometry) {
  Graph g = MakeGraph("er");
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  for (const GcgtOptions& bad : InvalidGeometries()) {
    GcgtSession session = GcgtSession::Attach(cgr.value(), bad);
    for (Backend b : {Backend::kCgrSimt, Backend::kCsrBaseline,
                      Backend::kCsrGunrock, Backend::kCpuReference}) {
      EXPECT_TRUE(
          session.Run(BfsQuery{0}, {.backend = b}).status().IsInvalidArgument())
          << BackendName(b) << " lanes=" << bad.lanes
          << " line=" << bad.cost.cache_line_bytes;
    }
    EXPECT_TRUE(session.Run(JaccardQuery{0, 1}).status().IsInvalidArgument());
    // The engine entry points check the geometry on their own as well.
    EXPECT_TRUE(GcgtBfs(cgr.value(), 0, bad).status().IsInvalidArgument());
    EXPECT_TRUE(GcgtCc(cgr.value(), bad).status().IsInvalidArgument());
    CsrEngineOptions csr;
    csr.lanes = bad.lanes;
    csr.cost = bad.cost;
    EXPECT_TRUE(CsrBfs(g, 0, csr).status().IsInvalidArgument());
    EXPECT_TRUE(CsrCc(g, csr).status().IsInvalidArgument());
    EXPECT_TRUE(CsrBc(g, 0, csr).status().IsInvalidArgument());
  }
}

TEST(GcgtSession, OutOfMemoryBudgetSurfacesPerBackend) {
  Graph g = MakeGraph("er");
  PrepareOptions opt;
  opt.gcgt.device.memory_bytes = 1024;  // nothing fits
  auto session = GcgtSession::Prepare(g, opt);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session.value().Run(BfsQuery{0}).status().IsOutOfMemory());
  EXPECT_TRUE(session.value()
                  .Run(CcQuery{}, {.backend = Backend::kCsrBaseline})
                  .status()
                  .IsOutOfMemory());
  // The CPU reference has no device: it always answers.
  EXPECT_TRUE(
      session.value().Run(BfsQuery{0}, {.backend = Backend::kCpuReference}).ok());
}

}  // namespace
}  // namespace gcgt
