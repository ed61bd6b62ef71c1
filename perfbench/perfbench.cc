// gcgt_perfbench: the repository benchmark.
//
// One process runs one workload. It generates the workload's graph (a fixed
// dataset) and, from --seed, its query list; sets the graph up through the
// program's public path; computes the CPU-reference answers untimed; then
// drives the queries through GcgtService for --seconds and checks every
// answer against those oracle answers.
//
//   gcgt_perfbench --workload web-bfs-miss --seed 1 --seconds 10 --trace 0
//                  --work-dir .bench_build/perfbench-work
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 is the traced run: it calls each layer's public functions on
// their own inside spans (VNC, reordering, encode, prepare, container write
// and open, a decode sweep, a serial GcgtSession::Run replay of the query
// list) and serves the same load again with a span per request, then prints
// the per-layer metrics and checks that the workload still stresses the
// layers it claims to. Spans are written to <work-dir>/<workload>-<seed>.
// spans.json when the run ends.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value,
//    unit}}}
// A wrong answer counts as failed and makes the process exit 1.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/gcgt_session.h"
#include "cgr/cgr_decoder.h"
#include "cgr/cgr_graph.h"
#include "graph/generators.h"
#include "ooc/cgr_container.h"
#include "reorder/reorder.h"
#include "service/gcgt_service.h"
#include "service/result_cache.h"
#include "span_recorder.h"
#include "util/random.h"
#include "vnc/virtual_node.h"

namespace gcgt::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads. Every constant here is frozen: a later change that alters one
// changes the benchmark, not the program.
// ---------------------------------------------------------------------------

// uk-2007-like web graph: interval-rich, template-shared host links.
constexpr NodeId kWebNodes = 30000;
constexpr double kWebDegree = 30;
// twitter-like follower graph: a few super-hubs, shuffled labels.
constexpr NodeId kSocialNodes = 15000;
constexpr double kSocialDegree = 20;

constexpr int kSetupRepetitions = 9;   // setup_s is their median
constexpr int kOocPartitions = 16;
constexpr int kOocBudgetDivisor = 4;   // resident budget = payload / 4
constexpr size_t kClosedLoopKeys = 8000;  // distinct BFS sources per run
constexpr int kOracleThreads = 4;

// social-hot-mix: pool sizes, Zipf skew, query mix, deadlines.
constexpr size_t kBfsPool = 1024;
constexpr size_t kPairPool = 2048;
constexpr size_t kTopKPool = 512;
constexpr double kZipfAlpha = 1.1;
constexpr double kShareBfs = 0.40;
constexpr double kShareJaccard = 0.25;
constexpr double kShareCommon = 0.25;  // the rest are top-k queries
constexpr uint32_t kTopK = 10;
constexpr int kClientIds = 4;
constexpr auto kInteractiveDeadline = std::chrono::seconds(1);
// The trace runs this long, untimed, before the measured --seconds: the
// result cache starts cold, and the first second's burst of misses would
// otherwise set the tail latency.
constexpr int kWarmupSeconds = 2;
// Threads that wait on the open loop's futures (with the generator, the
// four load threads a workload may use).
constexpr int kOpenLoopWaiters = 3;
constexpr auto kSpinBeforeDue = std::chrono::microseconds(300);

// Traced run: queries replayed serially through one GcgtSession.
constexpr size_t kReplayClosed = 120;
constexpr size_t kReplayOpen = 400;
constexpr int kDecodeSweeps = 3;

struct WorkloadSpec {
  const char* name;
  bool social;      // twitter-like graph (else the uk-2007-like web graph)
  bool paged;       // served from an mmap'd container under a budget
  bool open_loop;   // seeded Poisson trace (else closed-loop clients)
  int workers;
  int clients;      // closed loop only
  double rate_qps;  // open loop only: frozen arrival rate
  double latency_limit_ms;
};

// social-hot-mix's 400 q/s is about two thirds of what 3 workers serve while
// the result cache is cold (~5 ms of work per query).
constexpr WorkloadSpec kWorkloads[] = {
    {"web-bfs-miss", false, false, false, 3, 4, 0, 40},
    {"social-hot-mix", true, false, true, 3, 0, 400, 25},
    {"web-ooc-paged", false, true, false, 3, 4, 0, 40},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

PrepareOptions MakePrepareOptions(const WorkloadSpec& w) {
  PrepareOptions o;
  o.apply_vnc = true;
  o.reorder = ReorderMethod::kLlp;
  if (w.paged) o.ooc_partitions = kOocPartitions;
  return o;
}

ServiceOptions MakeServiceOptions(const WorkloadSpec& w) {
  ServiceOptions o;
  o.num_workers = w.workers;
  if (w.open_loop) {
    // EDF is on by default; add CoDel shedding and hedging.
    o.qos.shed_target = std::chrono::milliseconds(100);
    o.qos.shed_interval = std::chrono::milliseconds(200);
    o.qos.enable_hedging = true;
    o.qos.hedge_delay = std::chrono::milliseconds(50);
  }
  return o;
}

// The graph is the workload's dataset and is the same on every run; --seed
// draws the queries and the arrival trace. Seed-to-seed changes of the graph
// itself would move the work per query by several percent and hide changes
// of the program behind them.
Graph GenerateGraph(const WorkloadSpec& w) {
  constexpr uint64_t graph_seed = 2007;
  if (w.social) {
    TwitterGraphParams p;
    p.num_nodes = kSocialNodes;
    p.avg_degree = kSocialDegree;
    p.num_hubs = 12;
    p.seed = graph_seed;
    return GenerateTwitterGraph(p);
  }
  WebGraphParams p;
  p.num_nodes = kWebNodes;
  p.avg_degree = kWebDegree;
  p.mean_host_size = 64;
  p.template_fraction = 0.60;
  p.seed = graph_seed;
  return GenerateWebGraph(p);
}

// ---------------------------------------------------------------------------
// Query lists.
// ---------------------------------------------------------------------------

struct Arrival {
  uint32_t key = 0;      // index into Workload::keys
  int64_t due_ns = 0;    // open loop: offset from the start of the trace
  uint64_t client = 0;
  bool measured = true;  // false during the open loop's warm-up
};

struct Workload {
  std::vector<Query> keys;        // distinct queries
  std::vector<Arrival> arrivals;  // the query list, in send order
  std::vector<uint64_t> oracle;   // answer digest per key
};

// Closed loop: distinct, never-repeated BFS sources, a seeded draw from the
// query-node space. The clients stop early if the list runs out.
Workload MakeClosedLoopWorkload(NodeId query_nodes, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x736f75726365ULL));
  std::vector<NodeId> order(query_nodes);
  for (NodeId u = 0; u < query_nodes; ++u) order[u] = u;
  rng.Shuffle(order);
  Workload wl;
  const size_t n = std::min<size_t>(kClosedLoopKeys, order.size());
  for (size_t i = 0; i < n; ++i) {
    wl.keys.push_back(BfsQuery{order[i]});
    wl.arrivals.push_back({static_cast<uint32_t>(i), 0, 0, true});
  }
  return wl;
}

// Open loop: a Poisson trace at the frozen rate (uniform arrival times,
// sorted: a Poisson process conditioned on its count) over the warm-up and
// the measured window, mixing Zipf-hot BFS (batch) with Zipf-hot Jaccard and
// common-neighbour pairs at distance 2 and top-k similarity (interactive,
// deadlined).
Workload MakeOpenLoopWorkload(const Graph& g, const WorkloadSpec& w,
                              int seconds, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x747261636eULL));
  std::vector<NodeId> active;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.out_degree(u) > 0) active.push_back(u);
  }
  rng.Shuffle(active);

  Workload wl;
  size_t next_active = 0;
  auto take = [&] { return active[next_active++ % active.size()]; };
  // A pair (u, v) with v two hops from u and v != u.
  auto distance2_pair = [&]() -> std::pair<NodeId, NodeId> {
    for (;;) {
      const NodeId u = active[rng.Uniform(active.size())];
      auto nu = g.Neighbors(u);
      const NodeId mid = nu[rng.Uniform(nu.size())];
      auto nm = g.Neighbors(mid);
      if (nm.empty()) continue;
      const NodeId v = nm[rng.Uniform(nm.size())];
      if (v != u) return {u, v};
    }
  };

  const uint32_t bfs_base = 0;
  for (size_t i = 0; i < kBfsPool; ++i) wl.keys.push_back(BfsQuery{take()});
  const uint32_t jaccard_base = static_cast<uint32_t>(wl.keys.size());
  for (size_t i = 0; i < kPairPool; ++i) {
    auto [u, v] = distance2_pair();
    wl.keys.push_back(JaccardQuery{u, v});
  }
  const uint32_t common_base = static_cast<uint32_t>(wl.keys.size());
  for (size_t i = 0; i < kPairPool; ++i) {
    auto [u, v] = distance2_pair();
    wl.keys.push_back(CommonNeighborQuery{u, v});
  }
  const uint32_t topk_base = static_cast<uint32_t>(wl.keys.size());
  for (size_t i = 0; i < kTopKPool; ++i) {
    wl.keys.push_back(SimilarityTopKQuery{take(), kTopK});
  }

  // Warm-up and measured window are drawn apart, so the measured window
  // holds exactly rate * seconds arrivals.
  const int64_t warmup_ns = kWarmupSeconds * 1'000'000'000LL;
  std::vector<int64_t> due;
  auto draw = [&](int64_t begin_ns, int window_s) {
    const size_t n = static_cast<size_t>(std::llround(w.rate_qps * window_s));
    const size_t first = due.size();
    for (size_t i = 0; i < n; ++i) {
      due.push_back(begin_ns +
                    static_cast<int64_t>(rng.NextDouble() * window_s * 1e9));
    }
    std::sort(due.begin() + first, due.end());
  };
  draw(0, kWarmupSeconds);
  draw(warmup_ns, seconds);
  for (size_t i = 0; i < due.size(); ++i) {
    const double r = rng.NextDouble();
    uint32_t key;
    auto zipf = [&](size_t pool) {
      return static_cast<uint32_t>(rng.Zipf(pool, kZipfAlpha) - 1);
    };
    if (r < kShareBfs) {
      key = bfs_base + zipf(kBfsPool);
    } else if (r < kShareBfs + kShareJaccard) {
      key = jaccard_base + zipf(kPairPool);
    } else if (r < kShareBfs + kShareJaccard + kShareCommon) {
      key = common_base + zipf(kPairPool);
    } else {
      key = topk_base + zipf(kTopKPool);
    }
    wl.arrivals.push_back(
        {key, due[i], rng.Uniform(kClientIds), due[i] >= warmup_ns});
  }
  return wl;
}

// ---------------------------------------------------------------------------
// Answers.
// ---------------------------------------------------------------------------

/// Digest of a query's answer (never its metrics).
uint64_t AnswerDigest(const QueryResult& r) {
  uint64_t h = Mix64(static_cast<uint64_t>(r.kind()) + 1);
  auto mix = [&h](uint64_t x) { h = Mix64(h ^ x); };
  switch (r.kind()) {
    case QueryKind::kBfs:
      mix(r.bfs().depth.size());
      for (uint32_t d : r.bfs().depth) mix(d);
      break;
    case QueryKind::kCommonNeighbor:
      mix(r.common_neighbors().count);
      for (NodeId v : r.common_neighbors().common) mix(v);
      break;
    case QueryKind::kJaccard:
      mix(r.jaccard().common);
      mix(std::bit_cast<uint64_t>(r.jaccard().jaccard));
      mix(r.jaccard().degree_u);
      mix(r.jaccard().degree_v);
      break;
    case QueryKind::kSimilarityTopK:
      for (const auto& item : r.similarity_topk().items) {
        mix(item.node);
        mix(item.common);
        mix(std::bit_cast<uint64_t>(item.jaccard));
      }
      break;
    default:
      mix(~0ULL);
      break;
  }
  return h;
}

/// The query as GcgtService executes it: pair queries are rewritten to
/// canonical {min, max} order at admission, and the answer is that query's
/// (so a Jaccard answer's degree_u is the degree of min(u, v)).
Query Executed(Query q) {
  CanonicalizePairQuery(q);
  return q;
}

/// CPU-reference answers for every key the query list uses, computed on
/// kOracleThreads sessions made by `make_session`. False on any error.
bool ComputeOracle(Workload& wl,
                   const std::function<GcgtSession()>& make_session) {
  std::vector<uint8_t> used(wl.keys.size(), 0);
  for (const Arrival& a : wl.arrivals) used[a.key] = 1;
  wl.oracle.assign(wl.keys.size(), 0);
  std::vector<GcgtSession> sessions;
  for (int t = 0; t < kOracleThreads; ++t) sessions.push_back(make_session());
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kOracleThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = t; k < wl.keys.size(); k += kOracleThreads) {
        if (!used[k]) continue;
        auto r = sessions[t].Run(Executed(wl.keys[k]),
                                 {.backend = Backend::kCpuReference});
        if (!r.ok()) {
          std::fprintf(stderr, "oracle failed on key %zu: %s\n", k,
                       r.status().ToString().c_str());
          ok = false;
          return;
        }
        wl.oracle[k] = AnswerDigest(r.value());
      }
    });
  }
  for (auto& th : threads) th.join();
  return ok;
}

// ---------------------------------------------------------------------------
// Set-up: raw generated graph -> servable artifact.
// ---------------------------------------------------------------------------

struct Served {
  std::unique_ptr<GcgtService> service;
  uint64_t artifact = 0;
  uint64_t budget_bytes = 0;  // resident budget (0 = in-core)
  std::shared_ptr<const PreparedGraph> prepared;
};

/// The program's public set-up path. web/social: RegisterGraph with VNC and
/// LLP. paged: Prepare with partitions, WriteCgrContainer, RegisterContainer
/// (mmap) under a quarter-of-payload budget. Returns the seconds it took.
Result<double> SetUp(const WorkloadSpec& w, const Graph& g,
                     const std::string& container_path, SpanRecorder& rec,
                     int64_t parent, Served& out) {
  out.service = std::make_unique<GcgtService>(MakeServiceOptions(w));
  const PrepareOptions popt = MakePrepareOptions(w);
  const int64_t t0 = NowNs();
  if (!w.paged) {
    const int64_t s = rec.Begin("service.register_graph", parent);
    auto id = out.service->RegisterGraph(g, popt);
    rec.End(s);
    if (!id.ok()) return id.status();
    out.artifact = id.value();
  } else {
    int64_t s = rec.Begin("api.prepare", parent);
    auto session = GcgtSession::Prepare(g, popt);
    rec.End(s);
    if (!session.ok()) return session.status();
    s = rec.Begin("ooc.write", parent);
    Status wst = ooc::WriteCgrContainer(session.value().cgr(),
                                        session.value().artifact_fingerprint(),
                                        container_path);
    rec.End(s);
    if (!wst.ok()) return wst;
    out.budget_bytes = std::max<uint64_t>(
        session.value().cgr().bits().size() / kOocBudgetDivisor, 1);
    GcgtOptions gopt = popt.gcgt;
    gopt.ooc_resident_bytes = out.budget_bytes;
    s = rec.Begin("service.register_container", parent);
    auto id = out.service->RegisterContainer(
        container_path, gopt, ooc::CgrContainer::ReadMode::kMmap);
    rec.End(s);
    if (!id.ok()) return id.status();
    out.artifact = id.value();
  }
  const double seconds = (NowNs() - t0) * 1e-9;
  out.prepared = out.service->FindGraph(out.artifact);
  if (out.prepared == nullptr) return Status::Internal("artifact not found");
  return seconds;
}

/// Oracle sessions: the CPU reference on the served artifact, or, for the
/// paged workload, on an in-core session over the same container file.
Result<std::function<GcgtSession()>> OracleSessions(
    const WorkloadSpec& w, const Served& served,
    const std::string& container_path,
    std::unique_ptr<GcgtSession>& in_core) {
  if (!w.paged) {
    auto prepared = served.prepared;
    return std::function<GcgtSession()>(
        [prepared] { return prepared->NewWorkerSession(1); });
  }
  auto container = ooc::CgrContainer::Open(
      container_path, ooc::CgrContainer::ReadMode::kBuffered);
  if (!container.ok()) return container.status();
  auto cgr = container.value().ToCgrGraph();
  if (!cgr.ok()) return cgr.status();
  in_core = std::make_unique<GcgtSession>(GcgtSession::Adopt(
      std::make_unique<const CgrGraph>(std::move(cgr).value())));
  in_core->graph();  // decode once, before the clones share it
  GcgtSession* master = in_core.get();
  return std::function<GcgtSession()>(
      [master] { return master->AttachClone(1); });
}

// ---------------------------------------------------------------------------
// Load phase.
// ---------------------------------------------------------------------------

enum class Outcome : uint8_t { kPending, kOk, kWrong, kRefused, kFailed };

struct Record {
  uint32_t key = 0;
  int64_t due_ns = 0;       // when the query was due (closed loop: sent)
  int64_t sent_ns = 0;      // Submit entered
  int64_t admitted_ns = 0;  // Submit returned
  int64_t ready_ns = 0;     // future ready
  Outcome outcome = Outcome::kPending;
  bool measured = true;
  double model_ms = 0;

  double latency_ms() const { return (ready_ns - due_ns) * 1e-6; }
};

struct LoadResult {
  std::vector<Record> records;  // in send order, warm-up included
  int64_t start_ns = 0;  // start of the measured window
  int64_t end_ns = 0;    // last measured completion
  ServiceStats stats;
};

void Grade(Record& r, const Result<QueryResult>& res, uint64_t expected) {
  if (!res.ok()) {
    r.outcome = res.status().code() == Status::Code::kUnavailable
                    ? Outcome::kRefused
                    : Outcome::kFailed;
    return;
  }
  if (AnswerDigest(res.value()) != expected) {
    r.outcome = Outcome::kWrong;
    return;
  }
  r.outcome = Outcome::kOk;
  r.model_ms = res.value().metrics().model_ms;
}

ServiceQuery MakeServiceQuery(const Workload& wl, const Arrival& a,
                              uint64_t artifact, int64_t due_ns) {
  ServiceQuery q;
  q.graph = artifact;
  q.query = wl.keys[a.key];
  // BFS is batch work; the pair and top-k queries are interactive.
  const bool interactive = !std::holds_alternative<BfsQuery>(q.query);
  q.priority =
      interactive ? QueryPriority::kInteractive : QueryPriority::kBatch;
  q.client_id = a.client;
  if (interactive) {
    q.cancel = CancelToken::WithDeadline(TimePoint(due_ns) +
                                         kInteractiveDeadline);
  }
  return q;
}

// `clients` threads each submit, wait, check, repeat, until --seconds pass
// or the source list runs out.
LoadResult RunClosedLoop(GcgtService& svc, uint64_t artifact,
                         const Workload& wl, const WorkloadSpec& w,
                         int seconds, SpanRecorder& rec) {
  LoadResult out;
  std::atomic<size_t> next{0};
  std::vector<std::vector<Record>> per_client(w.clients);
  out.start_ns = NowNs();
  const int64_t deadline = out.start_ns + static_cast<int64_t>(seconds) *
                                              1'000'000'000LL;
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        if (NowNs() >= deadline) return;
        const size_t i = next.fetch_add(1);
        if (i >= wl.arrivals.size()) return;
        const Arrival& a = wl.arrivals[i];
        Record r;
        r.key = a.key;
        r.due_ns = r.sent_ns = NowNs();
        const int64_t req = rec.Begin("request", SpanRecorder::kNoSpan, i + 1,
                                      r.sent_ns);
        const int64_t sub = rec.Begin("service.submit", req, i + 1,
                                      r.sent_ns);
        auto fut = svc.Submit(MakeServiceQuery(wl, a, artifact, r.due_ns));
        r.admitted_ns = NowNs();
        rec.End(sub, r.admitted_ns);
        Result<QueryResult> res = fut.get();
        r.ready_ns = NowNs();
        rec.End(req, r.ready_ns);
        Grade(r, res, wl.oracle[a.key]);
        per_client[c].push_back(r);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& v : per_client) {
    out.records.insert(out.records.end(), v.begin(), v.end());
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const Record& a, const Record& b) {
              return a.sent_ns < b.sent_ns;
            });
  out.end_ns = out.start_ns;
  for (const Record& r : out.records) {
    out.end_ns = std::max(out.end_ns, r.ready_ns);
  }
  out.stats = svc.Stats();
  return out;
}

// One generator thread sends each query when it is due, whatever is still
// in flight. kOpenLoopWaiters threads take the futures in send order, each
// blocking on one at a time, and check the answers. A completion is seen late
// only while every waiter is blocked on an earlier query, which is when every
// worker is busy too.
LoadResult RunOpenLoop(GcgtService& svc, uint64_t artifact, const Workload& wl,
                       SpanRecorder& rec) {
  struct Pending {
    size_t index = 0;
    std::future<Result<QueryResult>> fut;
    int64_t span = SpanRecorder::kNoSpan;
  };
  LoadResult out;
  out.records.resize(wl.arrivals.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> inbox;    // guarded by mu
  bool generator_done = false;  // guarded by mu

  const int64_t trace_start = NowNs();
  out.start_ns = trace_start + kWarmupSeconds * 1'000'000'000LL;
  std::thread generator([&] {
    for (size_t i = 0; i < wl.arrivals.size(); ++i) {
      const Arrival& a = wl.arrivals[i];
      Record& r = out.records[i];
      r.key = a.key;
      r.measured = a.measured;
      r.due_ns = trace_start + a.due_ns;
      // Sleep to just before the due time, then spin: a sleep alone
      // overshoots by tens of microseconds, and the overshoot would count
      // as latency.
      std::this_thread::sleep_until(TimePoint(r.due_ns) - kSpinBeforeDue);
      while (NowNs() < r.due_ns) {
      }
      r.sent_ns = NowNs();
      const int64_t req =
          rec.Begin("request", SpanRecorder::kNoSpan, i + 1, r.due_ns);
      const int64_t sub = rec.Begin("service.submit", req, i + 1, r.sent_ns);
      auto fut = svc.Submit(MakeServiceQuery(wl, a, artifact, r.due_ns));
      r.admitted_ns = NowNs();
      rec.End(sub, r.admitted_ns);
      {
        std::lock_guard<std::mutex> lock(mu);
        inbox.push_back({i, std::move(fut), req});
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      generator_done = true;
    }
    cv.notify_all();
  });
  std::vector<std::thread> waiters;
  for (int t = 0; t < kOpenLoopWaiters; ++t) {
    waiters.emplace_back([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !inbox.empty() || generator_done; });
          if (inbox.empty()) return;
          p = std::move(inbox.front());
          inbox.pop_front();
        }
        Result<QueryResult> res = p.fut.get();
        Record& r = out.records[p.index];
        r.ready_ns = NowNs();
        rec.End(p.span, r.ready_ns);
        Grade(r, res, wl.oracle[r.key]);
      }
    });
  }
  generator.join();
  for (auto& th : waiters) th.join();
  out.end_ns = out.start_ns;
  for (const Record& r : out.records) {
    if (r.measured) out.end_ns = std::max(out.end_ns, r.ready_ns);
  }
  out.stats = svc.Stats();
  return out;
}

// ---------------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Over the measured window; wrong answers during the warm-up are counted
// apart, since every wrong answer fails the run.
struct Counts {
  size_t attempted = 0, ok = 0, wrong = 0, refused = 0, failed = 0,
         within_limit = 0, wrong_in_warmup = 0;
};

Counts CountOutcomes(const LoadResult& load, double limit_ms) {
  Counts c;
  for (const Record& r : load.records) {
    if (!r.measured) {
      c.wrong_in_warmup += r.outcome == Outcome::kWrong;
      continue;
    }
    ++c.attempted;
    switch (r.outcome) {
      case Outcome::kOk:
        ++c.ok;
        if (r.latency_ms() <= limit_ms) ++c.within_limit;
        break;
      case Outcome::kWrong: ++c.wrong; break;
      case Outcome::kRefused: ++c.refused; break;
      default: ++c.failed; break;
    }
  }
  return c;
}

std::vector<double> OkLatenciesMs(const LoadResult& load) {
  std::vector<double> v;
  for (const Record& r : load.records) {
    if (r.measured && r.outcome == Outcome::kOk) v.push_back(r.latency_ms());
  }
  return v;
}

// ---------------------------------------------------------------------------
// Traced run: the layers on their own.
// ---------------------------------------------------------------------------

struct LayerTimes {
  double vnc_s = 0, reorder_s = 0, encode_s = 0, prepare_s = 0, write_s = 0,
         open_s = 0, edge_reduction = 0;
};

Result<LayerTimes> TimeLayers(const WorkloadSpec& w, const Graph& g,
                              const std::string& path, SpanRecorder& rec,
                              int64_t parent) {
  const PrepareOptions popt = MakePrepareOptions(w);
  LayerTimes t;
  int64_t s = rec.Begin("vnc.compress", parent);
  VncResult vnc = VirtualNodeCompress(g, popt.vnc);
  rec.End(s);
  t.vnc_s = rec.Seconds(s);
  t.edge_reduction = vnc.EdgeReduction();

  s = rec.Begin("reorder.llp", parent);
  Graph reordered = ApplyReordering(vnc.graph, popt.reorder, popt.reorder_seed);
  rec.End(s);
  t.reorder_s = rec.Seconds(s);

  s = rec.Begin("cgr.encode", parent);
  auto cgr = popt.ooc_partitions > 0
                 ? CgrGraph::EncodePartitioned(reordered, popt.cgr,
                                               popt.ooc_partitions,
                                               popt.gcgt.num_threads)
                 : CgrGraph::Encode(reordered, popt.cgr);
  rec.End(s);
  if (!cgr.ok()) return cgr.status();
  t.encode_s = rec.Seconds(s);

  s = rec.Begin("api.prepare", parent);
  auto session = GcgtSession::Prepare(g, popt);
  rec.End(s);
  if (!session.ok()) return session.status();
  t.prepare_s = rec.Seconds(s);

  s = rec.Begin("ooc.write", parent);
  Status wst = ooc::WriteCgrContainer(session.value().cgr(),
                                      session.value().artifact_fingerprint(),
                                      path);
  rec.End(s);
  if (!wst.ok()) return wst;
  t.write_s = rec.Seconds(s);

  s = rec.Begin("ooc.open", parent);
  auto container = ooc::CgrContainer::Open(path);
  rec.End(s);
  if (!container.ok()) return container.status();
  t.open_s = rec.Seconds(s);
  return t;
}

/// ns per decoded edge of a DecodeAdjacency sweep over every node (median of
/// kDecodeSweeps sweeps).
double DecodeNsPerEdge(const CgrGraph& cgr, SpanRecorder& rec,
                       int64_t parent) {
  std::vector<double> per_edge;
  for (int i = 0; i < kDecodeSweeps; ++i) {
    const int64_t s = rec.Begin("cgr.decode_sweep", parent);
    uint64_t edges = 0;
    for (NodeId u = 0; u < cgr.num_nodes(); ++u) {
      std::vector<NodeId> adj = DecodeAdjacency(cgr, u);
      edges += adj.size();
    }
    rec.End(s);
    per_edge.push_back(
        Ratio(rec.Seconds(s) * 1e9, static_cast<double>(edges)));
  }
  return Median(per_edge);
}

struct ReplayStats {
  size_t queries = 0;
  double wall_ns = 0;           // traced pass
  double untraced_wall_ns = 0;  // same queries, no spans
  std::vector<double> run_ms_bfs, run_ms_pair, run_ms_topk;
  double intersect_wall_ns = 0;
  uint64_t rounds = 0;
  simt::WarpStats warp;
  uint64_t resident_peak = 0;
  std::unordered_map<uint32_t, double> run_ms_by_key;
  size_t wrong = 0;
};

/// Replays the first `n` measured queries of the list serially through one
/// GcgtSession::Run. Each query runs twice, with and without its span, in
/// alternating order, so that the difference is the tracing overhead.
Result<ReplayStats> Replay(GcgtSession& session, const Workload& wl, size_t n,
                           SpanRecorder& rec, int64_t parent) {
  ReplayStats st;
  size_t first = 0;
  while (first < wl.arrivals.size() && !wl.arrivals[first].measured) ++first;
  const size_t end = std::min(first + n, wl.arrivals.size());
  for (size_t i = first; i < std::min(first + 3, end); ++i) {
    (void)session.Run(Executed(wl.keys[wl.arrivals[i].key]));  // warm up
  }
  for (size_t i = first; i < end; ++i) {
    const uint32_t key = wl.arrivals[i].key;
    const Query q = Executed(wl.keys[key]);
    int64_t untraced_ns = 0;
    auto run_untraced = [&] {
      const int64_t t0 = NowNs();
      auto r = session.Run(q);
      untraced_ns = NowNs() - t0;
      return r.ok();
    };
    if (i % 2 == 1 && !run_untraced()) return Status::Internal("replay");
    const int64_t s = rec.Begin("api.run", parent, i + 1);
    auto r = session.Run(q);
    rec.End(s);
    if (i % 2 == 0 && !run_untraced()) return Status::Internal("replay");
    if (!r.ok()) return r.status();
    const double ns = rec.Seconds(s) * 1e9;
    st.wall_ns += ns;
    st.untraced_wall_ns += static_cast<double>(untraced_ns);
    ++st.queries;
    if (AnswerDigest(r.value()) != wl.oracle[key]) ++st.wrong;
    const TraversalMetrics& m = r.value().metrics();
    st.rounds += static_cast<uint64_t>(m.kernels);
    st.warp += m.warp;
    st.resident_peak = std::max(st.resident_peak, m.resident_bytes_peak);
    if (m.warp.intersect_txns > 0) st.intersect_wall_ns += ns;
    const double ms = ns * 1e-6;
    st.run_ms_by_key.emplace(key, ms);
    if (std::holds_alternative<BfsQuery>(q)) {
      st.run_ms_bfs.push_back(ms);
    } else if (std::holds_alternative<SimilarityTopKQuery>(q)) {
      st.run_ms_topk.push_back(ms);
    } else {
      st.run_ms_pair.push_back(ms);
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

std::vector<Metric> EndToEndMetrics(const LoadResult& load, const Counts& c,
                                    std::vector<double> latency_ms,
                                    const std::vector<double>& setup_s,
                                    const CgrGraph& cgr, const Graph& graph) {
  double model_ms = 0;
  for (const Record& r : load.records) {
    if (r.measured && r.outcome == Outcome::kOk) model_ms += r.model_ms;
  }
  const double phase_s = (load.end_ns - load.start_ns) * 1e-9;
  return {
      {"setup_s", Median(setup_s), "s"},
      {"goodput_qps", Ratio(c.ok, phase_s), "1/s"},
      {"query_p50_ms", Quantile(latency_ms, 0.50), "ms"},
      {"query_p99_ms", Quantile(latency_ms, 0.99), "ms"},
      {"slo_met_frac", Ratio(c.within_limit, c.attempted), "ratio"},
      {"success_frac", Ratio(c.ok, c.attempted), "ratio"},
      {"model_ms_per_query", Ratio(model_ms, c.ok), "ms"},
      {"bits_per_edge",
       Ratio(static_cast<double>(cgr.total_bits()), graph.num_edges()),
       "bits"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// What the traced run measures before the load phase.
struct TracedLayers {
  LayerTimes layers;
  double decode_ns_per_edge = 0;
  ReplayStats replay;
};

std::vector<Metric> PerLayerMetrics(const TracedLayers& t,
                                    const LoadResult& load, const Counts& c,
                                    const Workload& wl, size_t samples,
                                    const CgrGraph& cgr,
                                    uint64_t budget_bytes) {
  // Service wait: latency minus the same query's serial run time, over
  // cache misses (a key's first occurrence) whose key was replayed.
  const ReplayStats& replay = t.replay;
  std::vector<double> wait_ms, submit_us, late_ms;
  std::vector<uint8_t> seen(wl.keys.size(), 0);
  for (const Record& r : load.records) {
    const bool miss = !seen[r.key];
    seen[r.key] = 1;
    if (!r.measured) continue;
    submit_us.push_back((r.admitted_ns - r.sent_ns) * 1e-3);
    late_ms.push_back((r.sent_ns - r.due_ns) * 1e-6);
    auto it = replay.run_ms_by_key.find(r.key);
    if (miss && r.outcome == Outcome::kOk &&
        it != replay.run_ms_by_key.end()) {
      wait_ms.push_back(r.latency_ms() - it->second);
    }
  }
  const ServiceStats& st = load.stats;
  const double q = static_cast<double>(std::max<size_t>(replay.queries, 1));
  const simt::WarpStats& ws = replay.warp;
  const double att = static_cast<double>(c.attempted);
  return {
      {"vnc.compress_s", t.layers.vnc_s, "s"},
      {"reorder.llp_s", t.layers.reorder_s, "s"},
      {"cgr.encode_s", t.layers.encode_s, "s"},
      {"api.prepare_s", t.layers.prepare_s, "s"},
      {"ooc.write_s", t.layers.write_s, "s"},
      {"ooc.open_s", t.layers.open_s, "s"},
      {"vnc.edge_reduction", t.layers.edge_reduction, "ratio"},
      {"cgr.bits_per_prepared_edge", cgr.BitsPerEdge(), "bits"},
      {"cgr.decode_ns_per_edge", t.decode_ns_per_edge, "ns"},
      {"api.run_ms.bfs", Median(replay.run_ms_bfs), "ms"},
      {"api.run_ms.pair", Median(replay.run_ms_pair), "ms"},
      {"api.run_ms.topk", Median(replay.run_ms_topk), "ms"},
      {"simt.host_ns_per_step",
       Ratio(replay.wall_ns, static_cast<double>(ws.steps)), "ns"},
      {"intersect.host_ns_per_txn",
       Ratio(replay.intersect_wall_ns, static_cast<double>(ws.intersect_txns)),
       "ns"},
      {"core.rounds", replay.rounds / q, "count"},
      {"simt.steps", ws.steps / q, "count"},
      {"simt.decode_steps", ws.decode_steps / q, "count"},
      {"simt.append_steps", ws.append_steps / q, "count"},
      {"simt.mem_txns", ws.mem_txns / q, "count"},
      {"simt.atomics", ws.atomics / q, "count"},
      {"simt.decode_words", ws.decode_words / q, "count"},
      {"simt.lane_util",
       Ratio(static_cast<double>(ws.active_lane_steps),
             static_cast<double>(ws.active_lane_steps + ws.idle_lane_steps)),
       "ratio"},
      {"intersect.txns", ws.intersect_txns / q, "count"},
      {"ooc.partition_faults", ws.partition_faults / q, "count"},
      {"ooc.partition_spills", ws.partition_spills / q, "count"},
      {"ooc.fault_txns", ws.fault_txns / q, "count"},
      {"ooc.spill_txns", ws.spill_txns / q, "count"},
      {"ooc.resident_peak_over_budget",
       Ratio(static_cast<double>(replay.resident_peak),
             static_cast<double>(budget_bytes)),
       "ratio"},
      {"service.wait_ms_p50", Quantile(wait_ms, 0.50), "ms"},
      {"service.wait_ms_p99", Quantile(wait_ms, 0.99), "ms"},
      {"service.submit_us_p99", Quantile(submit_us, 0.99), "us"},
      {"service.cache_hit_rate",
       Ratio(static_cast<double>(st.cache.hits),
             static_cast<double>(st.cache.hits + st.cache.misses)),
       "ratio"},
      {"service.cache_evictions", static_cast<double>(st.cache.evictions),
       "count"},
      {"service.shed_frac",
       Ratio(static_cast<double>(st.shed_overload + st.shed_rate_limited), att),
       "ratio"},
      {"service.expired_frac",
       Ratio(static_cast<double>(st.expired_in_queue), att), "ratio"},
      {"service.hedged", static_cast<double>(st.hedged), "count"},
      {"service.hedge_win_rate",
       Ratio(static_cast<double>(st.hedge_wins),
             static_cast<double>(st.hedged)),
       "ratio"},
      {"service.retries", static_cast<double>(st.retries), "count"},
      {"slo_miss_frac", Ratio(att - c.within_limit, att), "ratio"},
      {"failed_frac", Ratio(att - c.ok, att), "ratio"},
      {"loadgen.samples", static_cast<double>(samples), "count"},
      {"loadgen.late_ms_p99", Quantile(late_ms, 0.99), "ms"},
      {"trace.overhead_frac",
       Ratio(replay.wall_ns - replay.untraced_wall_ns,
             replay.untraced_wall_ns),
       "ratio"},
  };
}

/// The traced run fails when a workload stops stressing what it claims to.
std::vector<std::string> BrokenPredictions(const WorkloadSpec& w,
                                           const std::vector<Metric>& m) {
  auto value = [&](const char* name) {
    for (const Metric& x : m) {
      if (x.name == name) return x.value;
    }
    return 0.0;
  };
  const std::string name = w.name;
  std::vector<std::string> broken;
  if (name == "web-bfs-miss") {
    if (value("service.cache_hit_rate") != 0) broken.push_back("cache hits");
    if (value("intersect.txns") != 0) broken.push_back("intersect work");
    if (value("ooc.partition_faults") != 0) broken.push_back("paging");
  } else if (name == "social-hot-mix") {
    if (value("service.cache_hit_rate") < 0.5) broken.push_back("hit rate");
    if (value("intersect.txns") <= 0) broken.push_back("no intersect work");
  } else if (name == "web-ooc-paged") {
    if (value("ooc.partition_faults") <= 0) broken.push_back("no faults");
  }
  return broken;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atoi(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--work-dir") a.work_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gcgt_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const std::string tag = std::string(w.name) + "-" + std::to_string(args.seed);
  const std::string container_path = args.work_dir + "/" + tag + ".gcoc";
  const std::string layer_path = args.work_dir + "/" + tag + ".layers.gcoc";
  struct Cleanup {
    std::vector<std::string> paths;
    ~Cleanup() {
      for (const auto& p : paths) std::filesystem::remove(p);
    }
  } cleanup{{container_path, layer_path}};

  SpanRecorder rec(args.trace);
  const Graph graph = GenerateGraph(w);

  // Set-up. The untraced run repeats it on fresh services and reports the
  // median; the traced run also times each layer's call on its own.
  TracedLayers traced;
  Served served;
  std::vector<double> setup_s;
  if (args.trace) {
    const int64_t root = rec.Begin("setup");
    auto lt = TimeLayers(w, graph, layer_path, rec, root);
    if (!lt.ok()) return Fail("layer set-up", lt.status());
    traced.layers = lt.value();
    auto s = SetUp(w, graph, container_path, rec, root, served);
    rec.End(root);
    if (!s.ok()) return Fail("set-up", s.status());
  } else {
    for (int i = 0; i < kSetupRepetitions; ++i) {
      served = Served{};
      auto s =
          SetUp(w, graph, container_path, rec, SpanRecorder::kNoSpan, served);
      if (!s.ok()) return Fail("set-up", s.status());
      setup_s.push_back(s.value());
    }
  }
  const CgrGraph& cgr = served.prepared->cgr();

  Workload wl = w.open_loop
                    ? MakeOpenLoopWorkload(graph, w, args.seconds, args.seed)
                    : MakeClosedLoopWorkload(served.prepared->num_query_nodes(),
                                             args.seed);
  {
    std::unique_ptr<GcgtSession> in_core;
    const int64_t s = rec.Begin("oracle");
    auto make = OracleSessions(w, served, container_path, in_core);
    if (!make.ok()) return Fail("oracle sessions", make.status());
    if (!ComputeOracle(wl, make.value())) {
      return Fail("oracle", Status::Internal("reference run failed"));
    }
    rec.End(s);
  }

  // Traced run: decode sweep and serial replay before the load phase.
  if (args.trace) {
    traced.decode_ns_per_edge =
        DecodeNsPerEdge(cgr, rec, SpanRecorder::kNoSpan);
    GcgtSession session = served.prepared->NewWorkerSession(1);
    const int64_t s = rec.Begin("replay");
    auto r = Replay(session, wl, w.open_loop ? kReplayOpen : kReplayClosed,
                    rec, s);
    rec.End(s);
    if (!r.ok()) return Fail("replay", r.status());
    traced.replay = std::move(r).value();
  }

  LoadResult load =
      w.open_loop ? RunOpenLoop(*served.service, served.artifact, wl, rec)
                  : RunClosedLoop(*served.service, served.artifact, wl, w,
                                  args.seconds, rec);
  served.service->Shutdown();

  const Counts c = CountOutcomes(load, w.latency_limit_ms);
  const size_t failed = c.attempted - c.ok;
  const size_t wrong = c.wrong + c.wrong_in_warmup + traced.replay.wrong;
  std::vector<double> lat = OkLatenciesMs(load);
  if (lat.size() < 1000) {
    std::fprintf(stderr,
                 "perfbench: warning: %zu samples leave fewer than 10 beyond "
                 "p99\n",
                 lat.size());
  }
  const double phase_s = (load.end_ns - load.start_ns) * 1e-9;
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu attempted, %zu ok, %zu wrong, "
               "%zu refused, %zu failed in %.3f s\n",
               w.name, static_cast<unsigned long long>(args.seed), c.attempted,
               c.ok, c.wrong, c.refused, c.failed, phase_s);

  std::vector<Metric> metrics;
  bool correct = wrong == 0;
  if (!args.trace) {
    metrics = EndToEndMetrics(load, c, std::move(lat), setup_s, cgr, graph);
  } else {
    metrics = PerLayerMetrics(traced, load, c, wl, lat.size(), cgr,
                              served.budget_bytes);
    const std::vector<std::string> broken = BrokenPredictions(w, metrics);
    for (const std::string& b : broken) {
      std::fprintf(stderr, "perfbench: prediction check failed: %s\n",
                   b.c_str());
    }
    correct = correct && broken.empty();
    const std::string spans_path = args.work_dir + "/" + tag + ".spans.json";
    if (!rec.WriteJson(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    }
  }
  if (wrong > 0) {
    std::fprintf(stderr, "perfbench: %zu answers differ from the oracle\n",
                 wrong);
  }
  PrintResult(correct, c.attempted,
              failed + c.wrong_in_warmup + traced.replay.wrong, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gcgt::perfbench

int main(int argc, char** argv) { return gcgt::perfbench::Main(argc, argv); }
