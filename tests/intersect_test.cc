// Decode-free set-intersection subsystem tests (src/intersect).
//
// Layers, bottom up:
//  - RunCursor: drains and skips every codec layout (CGR segmented /
//    unsegmented / no-intervals, StreamVByte, VarintGB) identically to the
//    decoded adjacency.
//  - IntersectEngine: randomized differential tests of all three kernel
//    paths against std::set_intersection, decode-free vs full-decode A/B,
//    k-core vs an independent peel oracle.
//  - GcgtSession: cross-backend bit-identity of all five query families
//    (including a VNC + reordered session) and argument validation.
//  - GcgtService: cached hits bit-identical to fresh runs (metrics
//    included), canonical {min,max} pair keys, and a chaos suite (honors
//    GCGT_CHAOS_SEED / GCGT_CHAOS_RATE like the robustness suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "api/gcgt_session.h"
#include "cgr/cgr_decoder.h"
#include "cgr/cgr_graph.h"
#include "graph/generators.h"
#include "intersect/compressed_cursor.h"
#include "intersect/intersect_engine.h"
#include "service/gcgt_service.h"
#include "util/fault_injector.h"
#include "util/random.h"

namespace gcgt {
namespace {

using intersect::CursorCharges;
using intersect::IntersectEngine;
using intersect::RunCursor;

struct CodecConfig {
  const char* name;
  CgrOptions options;
};

std::vector<CodecConfig> AllCodecConfigs() {
  std::vector<CodecConfig> configs;
  CgrOptions segmented;  // defaults: kCgr, intervals, 32-byte segments
  configs.push_back({"cgr_segmented", segmented});
  CgrOptions unsegmented = segmented;
  unsegmented.segment_len_bytes = 0;
  configs.push_back({"cgr_unsegmented", unsegmented});
  CgrOptions no_intervals = segmented;
  no_intervals.min_interval_len = CgrOptions::kNoIntervals;
  configs.push_back({"cgr_no_intervals", no_intervals});
  CgrOptions svb;
  svb.codec = CodecId::kStreamVByte;
  configs.push_back({"streamvbyte", svb});
  CgrOptions vgb;
  vgb.codec = CodecId::kVarintGb;
  configs.push_back({"varintgb", vgb});
  return configs;
}

std::vector<NodeId> Drain(RunCursor* c) {
  std::vector<NodeId> out;
  while (!c->done()) {
    for (NodeId w = c->lo();; ++w) {
      out.push_back(w);
      if (w == c->hi()) break;
    }
    c->Advance();
  }
  return out;
}

// ---------------------------------------------------------------- cursors

TEST(RunCursor, DrainsEveryCodecLayoutToTheDecodedAdjacency) {
  for (uint64_t seed : {7u, 21u}) {
    Graph g = GenerateErdosRenyi(200, 2400, seed);
    for (const CodecConfig& cfg : AllCodecConfigs()) {
      auto cgr = CgrGraph::Encode(g, cfg.options);
      ASSERT_TRUE(cgr.ok()) << cfg.name;
      simt::WarpContext ctx;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        CursorCharges ch{&ctx};
        RunCursor c = RunCursor::Compressed(cgr.value(), u, &ch);
        EXPECT_EQ(Drain(&c), DecodeAdjacency(cgr.value(), u))
            << cfg.name << " node " << u;
      }
      (void)ctx.TakeStats();
    }
  }
}

TEST(RunCursor, SkipToAtLeastPreservesEverythingAtOrAboveTheTarget) {
  Graph g = GenerateWebGraph({});  // interval-heavy: exercises run skipping
  Rng rng(13);
  for (const CodecConfig& cfg : AllCodecConfigs()) {
    auto cgr = CgrGraph::Encode(g, cfg.options);
    ASSERT_TRUE(cgr.ok()) << cfg.name;
    simt::WarpContext ctx;
    for (int trial = 0; trial < 200; ++trial) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
      const std::vector<NodeId> adj = DecodeAdjacency(cgr.value(), u);
      const NodeId target = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
      CursorCharges ch{&ctx};
      RunCursor c = RunCursor::Compressed(cgr.value(), u, &ch);
      c.SkipToAtLeast(target);
      EXPECT_TRUE(c.done() || c.lo() >= target);
      // The drain must be exactly the >= target suffix of the adjacency:
      // nothing skipped, and no below-target prefix of a straddling run.
      std::vector<NodeId> want;
      for (NodeId w : adj) {
        if (w >= target) want.push_back(w);
      }
      EXPECT_EQ(Drain(&c), want)
          << cfg.name << " u=" << u << " target=" << target;
    }
    (void)ctx.TakeStats();
  }
}

// ---------------------------------------------------------------- engine

TEST(IntersectEngine, PairIntersectionsMatchStdSetIntersection) {
  Rng rng(99);
  for (uint64_t seed : {3u, 4u}) {
    Graph g = GenerateErdosRenyi(300, 6000, seed);
    for (const CodecConfig& cfg : AllCodecConfigs()) {
      auto cgr = CgrGraph::Encode(g, cfg.options);
      ASSERT_TRUE(cgr.ok()) << cfg.name;
      for (bool full_decode : {false, true}) {
        GcgtOptions opt;
        opt.intersect_full_decode = full_decode;
        IntersectEngine eng(cgr.value(), opt);
        for (int trial = 0; trial < 60; ++trial) {
          const NodeId u = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
          const NodeId v = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
          auto r = eng.CommonNeighbors(u, v, CancelToken{});
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          const std::vector<NodeId> nu = DecodeAdjacency(cgr.value(), u);
          const std::vector<NodeId> nv = DecodeAdjacency(cgr.value(), v);
          std::vector<NodeId> want;
          std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                                std::back_inserter(want));
          EXPECT_EQ(r.value().common, want)
              << cfg.name << " full_decode=" << full_decode << " u=" << u
              << " v=" << v;
        }
      }
    }
  }
}

TEST(IntersectEngine, DecodeFreeUndercutsFullDecodeOnModeledCycles) {
  // The tentpole claim, asserted at engine level on an interval-rich graph:
  // merging runs straight off the compressed stream beats decode-then-merge.
  Graph g = GenerateWebGraph({});
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());

  GcgtOptions decode_free;
  IntersectEngine a(cgr.value(), decode_free);
  auto fast = a.TriangleCount(CancelToken{});
  ASSERT_TRUE(fast.ok());

  GcgtOptions full = decode_free;
  full.intersect_full_decode = true;
  IntersectEngine b(cgr.value(), full);
  auto slow = b.TriangleCount(CancelToken{});
  ASSERT_TRUE(slow.ok());

  EXPECT_EQ(fast.value().triangles, slow.value().triangles);
  EXPECT_EQ(fast.value().per_vertex, slow.value().per_vertex);
  EXPECT_LT(fast.value().metrics.model_ms, slow.value().metrics.model_ms);

  // A second query on the same engine reproduces results AND metrics
  // bit-for-bit: no per-query state leaks across queries.
  auto again = a.TriangleCount(CancelToken{});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().per_vertex, fast.value().per_vertex);
  EXPECT_EQ(again.value().metrics.model_ms, fast.value().metrics.model_ms);
  EXPECT_EQ(again.value().metrics.warp, fast.value().metrics.warp);
}

TEST(IntersectEngine, KCoreMatchesAnIndependentPeelOracle) {
  for (uint64_t seed : {11u, 12u}) {
    Graph g = GenerateErdosRenyi(400, 4000, seed);
    auto cgr = CgrGraph::Encode(g, CgrOptions{});
    ASSERT_TRUE(cgr.ok());
    GcgtOptions opt;
    IntersectEngine eng(cgr.value(), opt);
    for (uint32_t k : {0u, 1u, 2u, 3u, 5u, 8u}) {
      auto r = eng.KCore(k, CancelToken{});
      ASSERT_TRUE(r.ok()) << r.status().ToString();

      // Independent oracle: remove ONE under-degree vertex at a time (a
      // different peel schedule than the engine's synchronous rounds); the
      // k-core fixpoint is unique, so membership must agree anyway.
      std::vector<int64_t> deg(g.num_nodes());
      std::vector<uint8_t> alive(g.num_nodes(), 1);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        deg[v] = static_cast<int64_t>(g.Neighbors(v).size());
      }
      bool changed = true;
      while (changed) {
        changed = false;
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          if (alive[v] && deg[v] < static_cast<int64_t>(k)) {
            alive[v] = 0;
            changed = true;
            for (NodeId x : g.Neighbors(v)) {
              if (alive[x]) --deg[x];
            }
          }
        }
      }
      EXPECT_EQ(r.value().in_core, alive) << "k=" << k;
      EXPECT_EQ(r.value().core_size,
                static_cast<NodeId>(std::count(alive.begin(), alive.end(),
                                               uint8_t{1})))
          << "k=" << k;
      EXPECT_EQ(intersect::CpuKCore(g, k).in_core, alive) << "k=" << k;
    }
  }
}

TEST(CgrGraph, EncodedDegreeMatchesDecodedDegreeOnEveryCodec) {
  Graph g = GenerateErdosRenyi(250, 3000, 5);
  for (const CodecConfig& cfg : AllCodecConfigs()) {
    auto cgr = CgrGraph::Encode(g, cfg.options);
    ASSERT_TRUE(cgr.ok()) << cfg.name;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(cgr.value().EncodedDegree(u),
                DecodeAdjacency(cgr.value(), u).size())
          << cfg.name << " node " << u;
    }
  }
}

// ---------------------------------------------------------------- session

std::vector<Query> IntersectWorkload() {
  return {TriangleCountQuery{},      CommonNeighborQuery{3, 17},
          JaccardQuery{5, 23},       JaccardQuery{8, 8},
          SimilarityTopKQuery{4, 5}, KCoreQuery{3},
          CommonNeighborQuery{0, 0}, KCoreQuery{1}};
}

void ExpectSameIntersectResult(const QueryResult& got, const QueryResult& want,
                               const std::string& label) {
  ASSERT_EQ(got.kind(), want.kind()) << label;
  switch (want.kind()) {
    case QueryKind::kTriangle:
      EXPECT_EQ(got.triangle().triangles, want.triangle().triangles) << label;
      EXPECT_EQ(got.triangle().per_vertex, want.triangle().per_vertex)
          << label;
      break;
    case QueryKind::kCommonNeighbor:
      EXPECT_EQ(got.common_neighbors().common, want.common_neighbors().common)
          << label;
      EXPECT_EQ(got.common_neighbors().count, want.common_neighbors().count)
          << label;
      break;
    case QueryKind::kJaccard:
      EXPECT_EQ(got.jaccard().common, want.jaccard().common) << label;
      EXPECT_EQ(got.jaccard().degree_u, want.jaccard().degree_u) << label;
      EXPECT_EQ(got.jaccard().degree_v, want.jaccard().degree_v) << label;
      // Bit-identical doubles, not approximate.
      EXPECT_EQ(got.jaccard().jaccard, want.jaccard().jaccard) << label;
      break;
    case QueryKind::kSimilarityTopK:
      EXPECT_EQ(got.similarity_topk().items, want.similarity_topk().items)
          << label;
      break;
    case QueryKind::kKCore:
      EXPECT_EQ(got.kcore().in_core, want.kcore().in_core) << label;
      EXPECT_EQ(got.kcore().core_size, want.kcore().core_size) << label;
      break;
    default:
      FAIL() << "not an intersect kind " << label;
  }
}

TEST(IntersectSession, AllBackendsBitIdenticalToCpuReference) {
  for (const CodecConfig& cfg : AllCodecConfigs()) {
    Graph g = GenerateSocialGraph({});
    PrepareOptions prep;
    prep.cgr = cfg.options;
    auto session = GcgtSession::Prepare(g, prep);
    ASSERT_TRUE(session.ok()) << cfg.name;
    for (const Query& q : IntersectWorkload()) {
      auto want = session.value().Run(q, {.backend = Backend::kCpuReference});
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (Backend backend : {Backend::kCgrSimt, Backend::kCsrBaseline,
                              Backend::kCsrGunrock}) {
        auto got = session.value().Run(q, {.backend = backend});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectSameIntersectResult(
            got.value(), want.value(),
            std::string(cfg.name) + "/" + BackendName(backend));
      }
    }
  }
}

TEST(IntersectSession, VncAndReorderingPreserveCrossBackendIdentity) {
  Graph g = GenerateSocialGraph({});
  PrepareOptions prep;
  prep.apply_vnc = true;
  prep.reorder = ReorderMethod::kDegSort;
  auto session = GcgtSession::Prepare(g, prep);
  ASSERT_TRUE(session.ok());
  const NodeId callers = session.value().num_query_nodes();
  ASSERT_EQ(callers, g.num_nodes());
  for (const Query& q : IntersectWorkload()) {
    auto want = session.value().Run(q, {.backend = Backend::kCpuReference});
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (Backend backend : {Backend::kCgrSimt, Backend::kCsrBaseline,
                            Backend::kCsrGunrock}) {
      auto got = session.value().Run(q, {.backend = backend});
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameIntersectResult(got.value(), want.value(),
                                BackendName(backend));
    }
    // Remapped results speak the caller's id space: no virtual nodes.
    if (want.value().kind() == QueryKind::kCommonNeighbor) {
      for (NodeId w : want.value().common_neighbors().common) {
        EXPECT_LT(w, callers);
      }
    }
    if (want.value().kind() == QueryKind::kSimilarityTopK) {
      for (const auto& item : want.value().similarity_topk().items) {
        EXPECT_LT(item.node, callers);
      }
    }
    if (want.value().kind() == QueryKind::kTriangle) {
      EXPECT_EQ(want.value().triangle().per_vertex.size(), callers);
    }
    if (want.value().kind() == QueryKind::kKCore) {
      EXPECT_EQ(want.value().kcore().in_core.size(), callers);
    }
  }
}

TEST(IntersectSession, ValidatesArgumentsAndHandlesDegenerateQueries) {
  Graph g = MakePath(10);
  auto session = GcgtSession::Prepare(g, {});
  ASSERT_TRUE(session.ok());

  auto bad_pair = session.value().Run(CommonNeighborQuery{0, 10});
  EXPECT_TRUE(!bad_pair.ok() && bad_pair.status().IsInvalidArgument());
  auto bad_jc = session.value().Run(JaccardQuery{10, 0});
  EXPECT_TRUE(!bad_jc.ok() && bad_jc.status().IsInvalidArgument());
  auto bad_topk = session.value().Run(SimilarityTopKQuery{10, 3});
  EXPECT_TRUE(!bad_topk.ok() && bad_topk.status().IsInvalidArgument());

  auto k0 = session.value().Run(SimilarityTopKQuery{0, 0});
  ASSERT_TRUE(k0.ok());
  EXPECT_TRUE(k0.value().similarity_topk().items.empty());

  // k = 0 core keeps everything; a huge k peels everything.
  auto all = session.value().Run(KCoreQuery{0});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().kcore().core_size, g.num_nodes());
  auto none = session.value().Run(KCoreQuery{1000});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().kcore().core_size, 0u);

  // A path has no triangles.
  auto tri = session.value().Run(TriangleCountQuery{});
  ASSERT_TRUE(tri.ok());
  EXPECT_EQ(tri.value().triangle().triangles, 0u);
}

// ---------------------------------------------------------------- service

TEST(IntersectService, CachedHitsAreBitIdenticalAndPairKeysCanonical) {
  Graph g = GenerateSocialGraph({});
  ServiceOptions opt;
  opt.num_workers = 2;
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  auto fresh = service.Submit({id.value(), TriangleCountQuery{}}).get();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto hit = service.Submit({id.value(), TriangleCountQuery{}}).get();
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().triangle().per_vertex,
            fresh.value().triangle().per_vertex);
  EXPECT_EQ(hit.value().metrics().model_ms, fresh.value().metrics().model_ms);
  EXPECT_EQ(hit.value().metrics().warp.intersect_txns,
            fresh.value().metrics().warp.intersect_txns);

  // {u,v} and {v,u} share one cache entry (canonical {min,max} key).
  const uint64_t hits_before = service.Stats().cache.hits;
  auto uv = service.Submit({id.value(), JaccardQuery{7, 31}}).get();
  ASSERT_TRUE(uv.ok());
  auto vu = service.Submit({id.value(), JaccardQuery{31, 7}}).get();
  ASSERT_TRUE(vu.ok());
  EXPECT_EQ(uv.value().jaccard().jaccard, vu.value().jaccard().jaccard);
  EXPECT_EQ(uv.value().jaccard().common, vu.value().jaccard().common);
  EXPECT_GT(service.Stats().cache.hits, hits_before);
  service.Shutdown();
}

struct InjectionScope {
  InjectionScope(uint64_t seed, double rate) {
    FaultInjector::Global().Enable(seed, rate, ~uint32_t{0});
  }
  ~InjectionScope() { FaultInjector::Global().Disable(); }
};

TEST(IntersectService, ChaosEveryFutureFulfilledSuccessesBitIdentical) {
  uint64_t seed = 42;
  double rate = 0.05;
  if (const char* s = std::getenv("GCGT_CHAOS_SEED")) seed = std::stoull(s);
  if (const char* r = std::getenv("GCGT_CHAOS_RATE")) rate = std::stod(r);

  Graph g = GenerateSocialGraph({});
  std::vector<ServiceQuery> workload;
  for (int rep = 0; rep < 4; ++rep) {
    for (const Query& q : IntersectWorkload()) workload.push_back({0, q});
  }
  // Oracle before chaos is armed (same global injection points otherwise).
  auto oracle_session = GcgtSession::Prepare(g);
  ASSERT_TRUE(oracle_session.ok());
  std::vector<Result<QueryResult>> oracle;
  for (const ServiceQuery& q : workload) {
    oracle.push_back(oracle_session.value().Run(q.query));
  }

  ServiceOptions opt;
  opt.num_workers = 4;
  opt.max_attempts = 3;
  opt.breaker.failure_threshold = 0;  // every query must reach a worker
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());
  for (ServiceQuery& q : workload) q.graph = id.value();

  uint64_t succeeded = 0, failed = 0;
  {
    InjectionScope chaos(seed, rate);
    auto futures = service.SubmitBatch(workload);
    for (size_t i = 0; i < futures.size(); ++i) {
      Result<QueryResult> got = futures[i].get();  // fulfilled, always
      ASSERT_TRUE(oracle[i].ok());
      if (got.ok()) {
        ++succeeded;
        ExpectSameIntersectResult(got.value(), oracle[i].value(),
                                  "query " + std::to_string(i));
      } else {
        ++failed;
        EXPECT_TRUE(got.status().IsInternal() || got.status().IsUnavailable())
            << got.status().ToString();
      }
    }
    service.Shutdown();
  }
  EXPECT_EQ(succeeded + failed, workload.size());
  EXPECT_GT(succeeded, 0u) << "rate " << rate << " drowned every query";
}

}  // namespace
}  // namespace gcgt
