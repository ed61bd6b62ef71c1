// GcgtService: the concurrent-serving contract.
//  - correctness is concurrency: results under many workers with caching on
//    are bit-identical to serial uncached GcgtSession runs on the same
//    prepared artifact (BFS depths, canonical CC labels, BC doubles,
//    modeled metrics),
//  - one encode per artifact fingerprint; engine constructions bounded by
//    the worker pool (encode/engine reuse accounting),
//  - cache on/off equivalence, deterministic hit accounting on one worker,
//  - backpressure: all accepted queries complete; graceful shutdown drains,
//  - admission control and error paths (unknown graph, shut-down service,
//    registrations with an invalid warp geometry).
#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cgr/cgr_graph.h"
#include "core/cgr_traversal.h"
#include "graph/generators.h"
#include "ooc/cgr_container.h"
#include "service/gcgt_service.h"

namespace gcgt {
namespace {

Graph MakeGraph(const std::string& name) {
  if (name == "web") {
    WebGraphParams p;
    p.num_nodes = 1100;
    p.seed = 71;
    return GenerateWebGraph(p);
  }
  if (name == "twitter") {
    TwitterGraphParams p;
    p.num_nodes = 1000;
    p.seed = 72;
    return GenerateTwitterGraph(p);
  }
  return GenerateErdosRenyi(800, 4800, 73);
}

/// The mixed workload of every test: BFS over a small source pool (repeats
/// make the cache meaningful), CC, and multi-source BC.
std::vector<ServiceQuery> MixedWorkload(uint64_t graph_id, Backend backend,
                                        int repeats) {
  std::vector<ServiceQuery> workload;
  const std::vector<NodeId> sources = {0, 3, 17, 42, 99, 3, 0, 17};
  for (int r = 0; r < repeats; ++r) {
    for (NodeId s : sources) {
      workload.push_back({graph_id, BfsQuery{s}, backend});
    }
    workload.push_back({graph_id, CcQuery{}, backend});
    workload.push_back({graph_id, BcQuery{{5, 23}}, backend});
  }
  return workload;
}

/// Serial uncached oracle: one single-caller session over the same artifact.
std::vector<Result<QueryResult>> OracleResults(
    const Graph& g, const PrepareOptions& opt,
    const std::vector<ServiceQuery>& workload) {
  auto session = GcgtSession::Prepare(g, opt);
  EXPECT_TRUE(session.ok());
  std::vector<Result<QueryResult>> out;
  out.reserve(workload.size());
  for (const ServiceQuery& q : workload) {
    out.push_back(
        session.value().Run(q.query, RunOptions{.backend = q.backend}));
  }
  return out;
}

void ExpectBitIdentical(const QueryResult& got, const QueryResult& want,
                        size_t index) {
  ASSERT_EQ(got.kind(), want.kind()) << "query " << index;
  switch (want.kind()) {
    case QueryKind::kBfs:
      EXPECT_EQ(got.bfs().depth, want.bfs().depth) << "query " << index;
      break;
    case QueryKind::kCc:
      EXPECT_EQ(got.cc().component, want.cc().component) << "query " << index;
      EXPECT_EQ(got.cc().rounds, want.cc().rounds) << "query " << index;
      break;
    case QueryKind::kBc:
      // operator== on the double vectors: bit-identical, not approximate.
      EXPECT_EQ(got.bc().dependency, want.bc().dependency) << "query " << index;
      EXPECT_EQ(got.bc().sigma, want.bc().sigma) << "query " << index;
      EXPECT_EQ(got.bc().depth, want.bc().depth) << "query " << index;
      break;
    case QueryKind::kTriangle:
      EXPECT_EQ(got.triangle().triangles, want.triangle().triangles)
          << "query " << index;
      EXPECT_EQ(got.triangle().per_vertex, want.triangle().per_vertex)
          << "query " << index;
      break;
    case QueryKind::kCommonNeighbor:
      EXPECT_EQ(got.common_neighbors().common, want.common_neighbors().common)
          << "query " << index;
      break;
    case QueryKind::kJaccard:
      EXPECT_EQ(got.jaccard().common, want.jaccard().common)
          << "query " << index;
      EXPECT_EQ(got.jaccard().jaccard, want.jaccard().jaccard)
          << "query " << index;
      break;
    case QueryKind::kSimilarityTopK:
      EXPECT_EQ(got.similarity_topk().items, want.similarity_topk().items)
          << "query " << index;
      break;
    case QueryKind::kKCore:
      EXPECT_EQ(got.kcore().in_core, want.kcore().in_core)
          << "query " << index;
      EXPECT_EQ(got.kcore().core_size, want.kcore().core_size)
          << "query " << index;
      break;
  }
  EXPECT_EQ(got.metrics().model_ms, want.metrics().model_ms)
      << "query " << index;
  EXPECT_EQ(got.metrics().kernels, want.metrics().kernels)
      << "query " << index;
  EXPECT_EQ(got.metrics().warp.mem_txns, want.metrics().warp.mem_txns)
      << "query " << index;
}

TEST(GcgtService, EightWorkersCachedBitIdenticalToSerialUncachedOracle) {
  Graph g = MakeGraph("twitter");
  PrepareOptions prep;
  prep.reorder = ReorderMethod::kLlp;  // exercise caller-id translation too

  ServiceOptions opt;
  opt.num_workers = 8;
  GcgtService service(opt);
  auto id = service.RegisterGraph(g, prep);
  ASSERT_TRUE(id.ok());

  auto workload = MixedWorkload(id.value(), Backend::kCgrSimt, /*repeats=*/4);
  auto oracle = OracleResults(g, prep, workload);

  auto futures = service.SubmitBatch(workload);
  ASSERT_EQ(futures.size(), workload.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<QueryResult> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "query " << i;
    ASSERT_TRUE(oracle[i].ok()) << "query " << i;
    ExpectBitIdentical(got.value(), oracle[i].value(), i);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, workload.size());
  EXPECT_GT(stats.cache.hits, 0u);  // the workload repeats sources
}

TEST(GcgtService, OneEncodePerFingerprintAndBoundedEngineConstructions) {
  Graph g = MakeGraph("web");
  ServiceOptions opt;
  opt.num_workers = 3;
  GcgtService service(opt);

  const uint64_t encodes_before = CgrGraph::EncodedCount();
  auto first = service.RegisterGraph(g);
  ASSERT_TRUE(first.ok());
  const uint64_t encodes_after_first = CgrGraph::EncodedCount();
  EXPECT_EQ(encodes_after_first, encodes_before + 1);

  // Same (graph, options): a lookup, not an encode.
  auto second = service.RegisterGraph(g);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(CgrGraph::EncodedCount(), encodes_after_first);

  // Serving builds at most one engine per worker per artifact — and no
  // encodes, ever: the workload runs over the one registered encode.
  const uint64_t engines_before = CgrTraversalEngine::ConstructedCount();
  auto futures =
      service.SubmitBatch(MixedWorkload(first.value(), Backend::kCgrSimt, 6));
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  const uint64_t engines_built =
      CgrTraversalEngine::ConstructedCount() - engines_before;
  EXPECT_GE(engines_built, 1u);
  EXPECT_LE(engines_built, static_cast<uint64_t>(opt.num_workers));
  EXPECT_EQ(CgrGraph::EncodedCount(), encodes_after_first);
  EXPECT_EQ(service.Stats().worker_sessions, engines_built);
}

TEST(GcgtService, SingleWorkerCacheAccountingIsDeterministic) {
  Graph g = MakeGraph("er");
  ServiceOptions opt;
  opt.num_workers = 1;
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  // Sequential waits on one worker: the second ask of each query is exactly
  // one hit (BC caches under its canonical source set).
  auto bfs_a = service.Submit({id.value(), BfsQuery{4}}).get();
  auto bfs_b = service.Submit({id.value(), BfsQuery{4}}).get();
  auto cc_a = service.Submit({id.value(), CcQuery{}}).get();
  auto cc_b = service.Submit({id.value(), CcQuery{}}).get();
  auto bc_a = service.Submit({id.value(), BcQuery{{4}}}).get();
  auto bc_b = service.Submit({id.value(), BcQuery{{4}}}).get();
  ASSERT_TRUE(bfs_a.ok() && bfs_b.ok() && cc_a.ok() && cc_b.ok() &&
              bc_a.ok() && bc_b.ok());

  ExpectBitIdentical(bfs_b.value(), bfs_a.value(), 1);
  ExpectBitIdentical(cc_b.value(), cc_a.value(), 3);
  ExpectBitIdentical(bc_b.value(), bc_a.value(), 5);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache.hits, 3u);        // BFS + CC + BC repeats
  EXPECT_EQ(stats.cache.insertions, 3u);  // first BFS + first CC + first BC
  EXPECT_EQ(stats.completed, 6u);
}

TEST(GcgtService, BcSourceSetsCanonicalizeInTheResultCache) {
  Graph g = MakeGraph("er");
  ServiceOptions opt;
  opt.num_workers = 1;
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  // The same source SET in different orders and with duplicates: one cached
  // entry serves all of them, and every answer is bit-identical to the first
  // (the service runs the canonical sorted+deduped query).
  auto a = service.Submit({id.value(), BcQuery{{9, 2, 5}}}).get();
  auto b = service.Submit({id.value(), BcQuery{{2, 5, 9}}}).get();
  auto c = service.Submit({id.value(), BcQuery{{5, 9, 2, 5, 2}}}).get();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ExpectBitIdentical(b.value(), a.value(), 1);
  ExpectBitIdentical(c.value(), a.value(), 2);

  // A different source set is a different key, not a hit.
  auto d = service.Submit({id.value(), BcQuery{{2, 5}}}).get();
  ASSERT_TRUE(d.ok());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache.hits, 2u);        // b and c
  EXPECT_EQ(stats.cache.insertions, 2u);  // a and d
  EXPECT_EQ(stats.completed, 4u);
}

TEST(GcgtService, ResultCacheStaysWithinItsByteBudget) {
  Graph g = MakeGraph("er");
  std::vector<NodeId> sources;
  for (NodeId s = 0; s < 40; ++s) sources.push_back(s * 19);
  std::vector<ServiceQuery> oracle_queries;
  for (NodeId s : sources) oracle_queries.push_back({0, BfsQuery{s}});
  auto oracle = OracleResults(g, PrepareOptions{}, oracle_queries);
  ASSERT_TRUE(oracle[0].ok());

  // Room for about two BFS results per shard: 40 distinct sources over the
  // shards must evict.
  const size_t result_bytes = ResultCache::ResultBytes(oracle[0].value());
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes =
      ResultCache::kShards * (2 * result_bytes + result_bytes / 2);
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  for (size_t i = 0; i < sources.size(); ++i) {
    Result<QueryResult> got =
        service.Submit({id.value(), BfsQuery{sources[i]}}).get();
    ASSERT_TRUE(got.ok()) << "query " << i;
    ASSERT_TRUE(oracle[i].ok()) << "query " << i;
    ExpectBitIdentical(got.value(), oracle[i].value(), i);
    EXPECT_LE(service.Stats().cache.bytes, opt.cache_bytes) << "query " << i;
  }
  EXPECT_GT(service.Stats().cache.evictions, 0u);

  // The last insertion heads its shard's LRU, so it is still resident.
  const uint64_t hits_before = service.Stats().cache.hits;
  Result<QueryResult> again =
      service.Submit({id.value(), BfsQuery{sources.back()}}).get();
  ASSERT_TRUE(again.ok());
  ExpectBitIdentical(again.value(), oracle.back().value(), sources.size());
  EXPECT_EQ(service.Stats().cache.hits, hits_before + 1);
}

TEST(GcgtService, StressClientsTimesBackendsTimesWorkersTimesCache) {
  Graph g = MakeGraph("er");
  PrepareOptions prep;
  const int kClients = 6;

  // Oracle once per backend; the service must reproduce it bit-for-bit under
  // every (worker count, cache mode) combination.
  const Backend backends[] = {Backend::kCgrSimt, Backend::kCsrBaseline,
                              Backend::kCpuReference};
  std::vector<std::vector<Result<QueryResult>>> oracles;
  std::vector<std::vector<ServiceQuery>> workloads;
  for (Backend b : backends) {
    workloads.push_back(MixedWorkload(/*graph_id=*/0, b, /*repeats=*/2));
    oracles.push_back(OracleResults(g, prep, workloads.back()));
  }

  for (int workers : {1, 2, 8}) {
    for (bool cached : {true, false}) {
      ServiceOptions opt;
      opt.num_workers = workers;
      opt.queue_capacity = 16;  // small: exercises Push backpressure
      if (!cached) opt.cache_bytes = 0;
      GcgtService service(opt);
      auto id = service.RegisterGraph(g, prep);
      ASSERT_TRUE(id.ok());

      // kClients client threads, each pumping every backend's workload
      // through the shared queue concurrently.
      std::vector<std::thread> clients;
      std::vector<std::string> failures(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (size_t w = 0; w < workloads.size(); ++w) {
            for (size_t i = 0; i < workloads[w].size(); ++i) {
              ServiceQuery q = workloads[w][i];
              q.graph = id.value();
              Result<QueryResult> got = service.Submit(std::move(q)).get();
              if (!got.ok() || !oracles[w][i].ok()) {
                failures[c] = "query error: " + got.status().ToString();
                return;
              }
              const QueryResult& want = oracles[w][i].value();
              const QueryResult& have = got.value();
              if (have.kind() != want.kind()) {
                failures[c] = "kind mismatch";
                return;
              }
              bool same = true;
              switch (want.kind()) {
                case QueryKind::kBfs:
                  same = have.bfs().depth == want.bfs().depth;
                  break;
                case QueryKind::kCc:
                  same = have.cc().component == want.cc().component;
                  break;
                case QueryKind::kBc:
                  same = have.bc().dependency == want.bc().dependency &&
                         have.bc().sigma == want.bc().sigma;
                  break;
                case QueryKind::kTriangle:
                  same = have.triangle().triangles ==
                             want.triangle().triangles &&
                         have.triangle().per_vertex ==
                             want.triangle().per_vertex;
                  break;
                case QueryKind::kCommonNeighbor:
                  same = have.common_neighbors().common ==
                         want.common_neighbors().common;
                  break;
                case QueryKind::kJaccard:
                  same = have.jaccard().common == want.jaccard().common &&
                         have.jaccard().jaccard == want.jaccard().jaccard;
                  break;
                case QueryKind::kSimilarityTopK:
                  same = have.similarity_topk().items ==
                         want.similarity_topk().items;
                  break;
                case QueryKind::kKCore:
                  same = have.kcore().in_core == want.kcore().in_core;
                  break;
              }
              if (!same || have.metrics().model_ms != want.metrics().model_ms) {
                failures[c] = "result diverged from serial uncached oracle";
                return;
              }
            }
          }
        });
      }
      for (auto& t : clients) t.join();
      for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(failures[c], "")
            << "client " << c << " workers=" << workers << " cache=" << cached;
      }
      const ServiceStats stats = service.Stats();
      EXPECT_EQ(stats.completed, stats.submitted);
      if (!cached) {
        EXPECT_EQ(stats.cache.hits, 0u);
      }
    }
  }
}

TEST(GcgtService, ShutdownDrainsEveryAcceptedQuery) {
  Graph g = MakeGraph("er");
  ServiceOptions opt;
  opt.num_workers = 2;
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(service.Submit({id.value(), BfsQuery{NodeId(i % 7)}}));
  }
  service.Shutdown();  // graceful: drains, never drops

  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(service.Stats().completed, futures.size());

  // Post-shutdown admissions fail fast, and their futures still resolve.
  auto late = service.Submit({id.value(), BfsQuery{0}});
  EXPECT_TRUE(late.get().status().IsUnavailable());
  auto shed = service.TrySubmit({id.value(), BfsQuery{0}});
  EXPECT_TRUE(shed.status().IsUnavailable());
}

TEST(GcgtService, AdmissionControlShedsOrServesEveryQuery) {
  Graph g = MakeGraph("er");
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.queue_capacity = 2;
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  int accepted = 0, shed = 0;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 200; ++i) {
    auto f = service.TrySubmit({id.value(), BfsQuery{NodeId(i % 11)}});
    if (f.ok()) {
      futures.push_back(std::move(f.value()));
      ++accepted;
    } else {
      ASSERT_TRUE(f.status().IsUnavailable());
      ++shed;
    }
  }
  EXPECT_EQ(accepted + shed, 200);
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());  // accepted => served
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(accepted));
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(shed));
}

TEST(GcgtService, UnknownGraphAndQueryErrorsFlowThroughFutures) {
  Graph g = MakeGraph("er");
  GcgtService service;
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  EXPECT_EQ(service.Submit({/*graph=*/0xdeadbeef, BfsQuery{0}})
                .get()
                .status()
                .code(),
            Status::Code::kNotFound);
  EXPECT_TRUE(service.Submit({id.value(), BfsQuery{g.num_nodes() + 1}})
                  .get()
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(service.Submit({id.value(), BcQuery{{}}})
                  .get()
                  .status()
                  .IsInvalidArgument());
  EXPECT_NE(service.FindGraph(id.value()), nullptr);
  EXPECT_EQ(service.FindGraph(0xdeadbeef), nullptr);
}

TEST(GcgtService, RegisterGraphRejectsInvalidWarpGeometry) {
  Graph g = MakeGraph("er");
  ServiceOptions sopt;
  sopt.num_workers = 2;
  GcgtService service(sopt);
  PrepareOptions bad;
  bad.gcgt.cost.cache_line_bytes = 0;  // a zero line size divides by zero
  EXPECT_TRUE(service.RegisterGraph(g, bad).status().IsInvalidArgument());

  // The rejection leaves the service serving: a valid artifact registered
  // afterwards answers exactly like a serial session on the same options.
  PrepareOptions good;
  auto id = service.RegisterGraph(g, good);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto workload = MixedWorkload(id.value(), Backend::kCgrSimt, /*repeats=*/1);
  auto oracle = OracleResults(g, good, workload);
  auto futures = service.SubmitBatch(workload);
  ASSERT_EQ(futures.size(), workload.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<QueryResult> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "query " << i << ": " << got.status().ToString();
    ASSERT_TRUE(oracle[i].ok()) << "query " << i;
    ExpectBitIdentical(got.value(), oracle[i].value(), i);
  }
}

TEST(GcgtService, RegisterContainerRejectsInvalidWarpGeometry) {
  Graph g = MakeGraph("web");
  PrepareOptions popt;
  popt.ooc_partitions = 4;
  auto master = GcgtSession::Prepare(g, popt);
  ASSERT_TRUE(master.ok());
  const std::string path = ::testing::TempDir() + "/bad_geometry.gcoc";
  ASSERT_TRUE(ooc::WriteCgrContainer(master.value().cgr(),
                                     master.value().artifact_fingerprint(),
                                     path)
                  .ok());

  GcgtService service;
  GcgtOptions bad_line;
  bad_line.cost.cache_line_bytes = 96;
  GcgtOptions bad_lanes;
  bad_lanes.lanes = 0;
  for (const GcgtOptions& bad : {bad_line, bad_lanes}) {
    EXPECT_TRUE(service.RegisterContainer(path, bad).status().IsInvalidArgument())
        << "lanes=" << bad.lanes << " line=" << bad.cost.cache_line_bytes;
  }
  auto id = service.RegisterContainer(path, GcgtOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(service.Submit({id.value(), BfsQuery{3}}).get().ok());
  service.Shutdown();
  std::remove(path.c_str());
}

TEST(GcgtService, DistinctArtifactsServeSideBySide) {
  Graph a = MakeGraph("er");
  Graph b = MakeGraph("web");
  GcgtService service;
  auto id_a = service.RegisterGraph(a);
  PrepareOptions vnc;
  vnc.apply_vnc = true;
  auto id_b = service.RegisterGraph(b, vnc);
  ASSERT_TRUE(id_a.ok() && id_b.ok());
  EXPECT_NE(id_a.value(), id_b.value());

  // Same graph, different options => a different artifact.
  auto id_a2 = service.RegisterGraph(a, vnc);
  ASSERT_TRUE(id_a2.ok());
  EXPECT_NE(id_a2.value(), id_a.value());

  auto fa = service.Submit({id_a.value(), CcQuery{}});
  auto fb = service.Submit({id_b.value(), CcQuery{}});
  auto ra = fa.get();
  auto rb = fb.get();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.value().cc().component.size(), a.num_nodes());
  EXPECT_EQ(rb.value().cc().component.size(), b.num_nodes());
}

}  // namespace
}  // namespace gcgt
