// The overload-control contract of the serving tier.
//  - AdmissionQueue: strict classes + EDF within a class (deterministic for
//    a fixed clock/arrival/pop trace), lazy expiry sweeping (doomed entries
//    never surface as work), CoDel-style sojourn shedding from the back of
//    the lowest class, FIFO mode restores legacy semantics, close drains,
//  - TokenBucket: burst-then-sustained admission as a pure function of the
//    call trace,
//  - CancelToken::WithLinkedSource: an attempt token observes its own abort
//    flag AND the client's,
//  - the service under overload: interactive work survives a best-effort
//    flood, queue-expired deadlines and shed decisions are counted exactly
//    once, per-client fair admission bounds a flooder without touching a
//    light client, hedged successes are bit-identical to the oracle, the
//    watchdog reports a worker stuck past its deadline into the breaker,
//  - chaos with the full QoS stack armed: every accepted future fulfilled,
//    successes bit-identical to the no-fault oracle.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/gcgt_session.h"
#include "graph/generators.h"
#include "service/gcgt_service.h"
#include "util/admission_queue.h"
#include "util/cancel_token.h"
#include "util/fault_injector.h"
#include "util/token_bucket.h"

namespace gcgt {
namespace {

using std::chrono::hours;
using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using Clock = CancelToken::Clock;

Graph TestGraph() { return GenerateErdosRenyi(800, 4800, 73); }

/// RAII guard: no test leaks an armed global injector into its neighbors.
struct InjectionScope {
  InjectionScope(uint64_t seed, double rate, uint32_t mask = kAllFaultPoints) {
    FaultInjector::Global().Enable(seed, rate, mask);
  }
  ~InjectionScope() { FaultInjector::Global().Disable(); }
};

constexpr uint32_t MaskOf(FaultPoint p) { return 1u << static_cast<int>(p); }

void ExpectSameResult(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.kind(), want.kind());
  switch (want.kind()) {
    case QueryKind::kBfs:
      EXPECT_EQ(got.bfs().depth, want.bfs().depth);
      break;
    case QueryKind::kCc:
      EXPECT_EQ(got.cc().component, want.cc().component);
      EXPECT_EQ(got.cc().rounds, want.cc().rounds);
      break;
    case QueryKind::kBc:
      EXPECT_EQ(got.bc().dependency, want.bc().dependency);
      EXPECT_EQ(got.bc().sigma, want.bc().sigma);
      EXPECT_EQ(got.bc().depth, want.bc().depth);
      break;
    case QueryKind::kTriangle:
      EXPECT_EQ(got.triangle().triangles, want.triangle().triangles);
      EXPECT_EQ(got.triangle().per_vertex, want.triangle().per_vertex);
      break;
    case QueryKind::kCommonNeighbor:
      EXPECT_EQ(got.common_neighbors().common, want.common_neighbors().common);
      break;
    case QueryKind::kJaccard:
      EXPECT_EQ(got.jaccard().common, want.jaccard().common);
      EXPECT_EQ(got.jaccard().jaccard, want.jaccard().jaccard);
      break;
    case QueryKind::kSimilarityTopK:
      EXPECT_EQ(got.similarity_topk().items, want.similarity_topk().items);
      break;
    case QueryKind::kKCore:
      EXPECT_EQ(got.kcore().in_core, want.kcore().in_core);
      EXPECT_EQ(got.kcore().core_size, want.kcore().core_size);
      break;
  }
  EXPECT_EQ(got.metrics().model_ms, want.metrics().model_ms);
  EXPECT_EQ(got.metrics().kernels, want.metrics().kernels);
  EXPECT_EQ(got.metrics().warp.mem_txns, want.metrics().warp.mem_txns);
}

/// A queue over a hand-cranked clock: EDF ordering, sweeping and shedding
/// become pure functions of the scripted trace.
struct FakeClockQueue {
  Clock::time_point now = Clock::time_point() + hours(1);
  AdmissionQueue<int> queue;

  explicit FakeClockQueue(AdmissionQueueOptions opt)
      : queue(opt, [this] { return now; }) {}
};

// ------------------------------------------------------- admission queue

TEST(AdmissionQueue, EdfOrdersByClassThenDeadlineThenArrival) {
  FakeClockQueue q({.capacity = 16});
  const Clock::time_point t0 = q.now;
  auto push = [&](int id, QueryPriority p, Clock::time_point d =
                                               Clock::time_point::max()) {
    int item = id;
    ASSERT_TRUE(q.queue.Push(item, p, d));
  };
  push(1, QueryPriority::kBatch, t0 + milliseconds(100));
  push(2, QueryPriority::kInteractive, t0 + milliseconds(500));
  push(3, QueryPriority::kInteractive);  // no deadline: after deadlined peers
  push(4, QueryPriority::kInteractive, t0 + milliseconds(200));
  push(5, QueryPriority::kBestEffort, t0 + milliseconds(1));
  push(6, QueryPriority::kInteractive, t0 + milliseconds(200));  // arrival tie

  // Class is strict (an imminent best-effort deadline never preempts
  // interactive work), EDF within the class, arrival breaks ties.
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    auto out = q.queue.Pop();
    ASSERT_TRUE(out.item.has_value());
    EXPECT_TRUE(out.expired.empty());
    order.push_back(*out.item);
  }
  EXPECT_EQ(order, (std::vector<int>{4, 6, 2, 3, 1, 5}));
  EXPECT_EQ(q.queue.Stats().popped, 6u);
}

TEST(AdmissionQueue, SameTraceSameOrderTwice) {
  auto run = [] {
    FakeClockQueue q({.capacity = 16});
    const Clock::time_point t0 = q.now;
    const QueryPriority prio[5] = {
        QueryPriority::kBestEffort, QueryPriority::kInteractive,
        QueryPriority::kBatch, QueryPriority::kInteractive,
        QueryPriority::kBatch};
    for (int i = 0; i < 5; ++i) {
      int item = i;
      q.queue.Push(item, prio[i], t0 + milliseconds(50 * ((i * 3) % 5 + 1)));
    }
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) order.push_back(*q.queue.Pop().item);
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(AdmissionQueue, ExpiredEntriesAreSweptNeverServed) {
  FakeClockQueue q({.capacity = 16});
  const Clock::time_point t0 = q.now;
  int a = 1, b = 2, c = 3, live = 4;
  ASSERT_TRUE(q.queue.Push(a, QueryPriority::kInteractive, t0 + milliseconds(10)));
  ASSERT_TRUE(q.queue.Push(b, QueryPriority::kBatch, t0 + milliseconds(5)));
  ASSERT_TRUE(q.queue.Push(c, QueryPriority::kBestEffort, t0 + milliseconds(1)));
  ASSERT_TRUE(q.queue.Push(live, QueryPriority::kBestEffort));

  q.now = t0 + milliseconds(20);  // every deadline has now passed
  auto out = q.queue.Pop();
  // One pop: the three doomed entries are swept out and the only feasible
  // entry is the served item.
  ASSERT_TRUE(out.item.has_value());
  EXPECT_EQ(*out.item, 4);
  EXPECT_EQ(out.expired.size(), 3u);
  EXPECT_EQ(q.queue.Stats().expired, 3u);
  EXPECT_EQ(q.queue.size(), 0u);
}

TEST(AdmissionQueue, SweepOnlyPopReturnsInsteadOfBlocking) {
  FakeClockQueue q({.capacity = 16});
  const Clock::time_point t0 = q.now;
  int a = 1;
  ASSERT_TRUE(q.queue.Push(a, QueryPriority::kInteractive, t0 + milliseconds(1)));
  q.now = t0 + milliseconds(2);
  auto out = q.queue.Pop();
  // Nothing live remains, but the caller gets the sweep back immediately
  // (open=true) so those futures fail now, not at the next arrival.
  EXPECT_FALSE(out.item.has_value());
  EXPECT_TRUE(out.open);
  ASSERT_EQ(out.expired.size(), 1u);
  EXPECT_EQ(out.expired[0], 1);
}

TEST(AdmissionQueue, CodelShedsFromBackOfLowestClassAfterInterval) {
  FakeClockQueue q({.capacity = 32,
                    .shed_target = milliseconds(1),
                    .shed_interval = milliseconds(5)});
  const Clock::time_point t0 = q.now;
  for (int i = 0; i < 6; ++i) {
    int item = 10 + i;
    ASSERT_TRUE(q.queue.Push(item, QueryPriority::kBatch));
  }
  int straggler = 99;  // back of the lowest class: first to shed
  ASSERT_TRUE(q.queue.Push(straggler, QueryPriority::kBestEffort));

  q.now = t0 + milliseconds(2);  // sojourn 2ms >= 1ms target
  auto first = q.queue.Pop();
  ASSERT_TRUE(first.item.has_value());
  // Above target, but not yet for shed_interval: no shedding.
  EXPECT_TRUE(first.shed.empty());

  q.now = t0 + milliseconds(8);  // above-target for 6ms >= 5ms interval
  auto second = q.queue.Pop();
  ASSERT_TRUE(second.item.has_value());
  EXPECT_EQ(*second.item, 11);  // service order is untouched by shedding
  ASSERT_EQ(second.shed.size(), 1u);
  EXPECT_EQ(second.shed[0], 99);
  EXPECT_EQ(q.queue.Stats().shed, 1u);

  // One sub-target pop resets the controller.
  int fresh = 50;
  ASSERT_TRUE(q.queue.Push(fresh, QueryPriority::kInteractive));
  auto third = q.queue.Pop();  // sojourn 0 < target
  ASSERT_TRUE(third.item.has_value());
  EXPECT_EQ(*third.item, 50);
  EXPECT_TRUE(third.shed.empty());
  q.now += milliseconds(2);
  // Above target again, but the interval must elapse anew.
  EXPECT_TRUE(q.queue.Pop().shed.empty());
}

TEST(AdmissionQueue, FifoModeIsArrivalOrderWithNoSweepingOrShedding) {
  FakeClockQueue q({.capacity = 16,
                    .edf = false,
                    .shed_target = nanoseconds(1),
                    .shed_interval = nanoseconds(1)});
  const Clock::time_point t0 = q.now;
  int a = 1, b = 2, c = 3;
  // Priorities, deadlines — all ignored; c's deadline even expires.
  ASSERT_TRUE(q.queue.Push(a, QueryPriority::kBestEffort));
  ASSERT_TRUE(q.queue.Push(b, QueryPriority::kInteractive, t0 + hours(1)));
  ASSERT_TRUE(q.queue.Push(c, QueryPriority::kBatch, t0 + milliseconds(1)));
  q.now = t0 + milliseconds(50);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    auto out = q.queue.Pop();
    ASSERT_TRUE(out.item.has_value());
    EXPECT_TRUE(out.expired.empty());
    EXPECT_TRUE(out.shed.empty());
    order.push_back(*out.item);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(AdmissionQueue, CloseDrainsThenReportsClosed) {
  FakeClockQueue q({.capacity = 4});
  int a = 1, b = 2;
  ASSERT_TRUE(q.queue.Push(a, QueryPriority::kInteractive));
  ASSERT_TRUE(q.queue.Push(b, QueryPriority::kBatch));
  q.queue.Close();
  int late = 3;
  EXPECT_FALSE(q.queue.Push(late, QueryPriority::kInteractive));
  EXPECT_EQ(late, 3);  // a failed Push never consumes the item
  EXPECT_EQ(q.queue.TryPush(late, QueryPriority::kInteractive),
            AdmissionQueue<int>::PushResult::kClosed);
  // Accepted entries drain before the queue reports closed.
  EXPECT_EQ(*q.queue.Pop().item, 1);
  EXPECT_EQ(*q.queue.Pop().item, 2);
  auto out = q.queue.Pop();
  EXPECT_FALSE(out.item.has_value());
  EXPECT_FALSE(out.open);
}

TEST(AdmissionQueue, TryPushShedsWhenFull) {
  FakeClockQueue q({.capacity = 2});
  int a = 1, b = 2, c = 3;
  EXPECT_EQ(q.queue.TryPush(a, QueryPriority::kInteractive),
            AdmissionQueue<int>::PushResult::kOk);
  EXPECT_EQ(q.queue.TryPush(b, QueryPriority::kInteractive),
            AdmissionQueue<int>::PushResult::kOk);
  EXPECT_EQ(q.queue.TryPush(c, QueryPriority::kInteractive),
            AdmissionQueue<int>::PushResult::kFull);
  EXPECT_EQ(c, 3);  // kFull leaves the item untouched
}

// ---------------------------------------------------------- token bucket

TEST(TokenBucket, BurstThenSustainedRate) {
  const Clock::time_point t0 = Clock::time_point() + hours(1);
  TokenBucket bucket(/*tokens_per_sec=*/2.0, /*burst=*/3.0, t0);
  // The full burst is available immediately...
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_FALSE(bucket.TryAcquire(t0));
  // ...then admission tracks the refill rate: 2 tokens/s -> one every 500ms.
  EXPECT_FALSE(bucket.TryAcquire(t0 + milliseconds(499)));
  EXPECT_TRUE(bucket.TryAcquire(t0 + milliseconds(500)));
  EXPECT_FALSE(bucket.TryAcquire(t0 + milliseconds(500)));
  // Refill caps at the burst: a long idle stretch grants 3, not 2 + idle*2.
  EXPECT_EQ(bucket.tokens(t0 + hours(2)), 3.0);
}

TEST(TokenBucket, ExactRateSubmitterIsNeverShed) {
  const Clock::time_point t0 = Clock::time_point() + hours(1);
  TokenBucket bucket(/*tokens_per_sec=*/3.0, /*burst=*/1.0, t0);
  // 1/3s steps truncate to nanoseconds and accumulate floating-point refill
  // error; the slack in TryAcquire absorbs both, so a client at exactly its
  // sustained rate always admits.
  Clock::time_point now = t0;
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(now)) << "step " << i;
    now += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / 3.0));
  }
}

// ---------------------------------------------------------- linked tokens

TEST(CancelToken, WithLinkedSourceObservesBothFlags) {
  CancelSource client;
  CancelSource attempt;
  CancelToken base = client.token();
  CancelToken linked = base.WithLinkedSource(attempt);
  EXPECT_TRUE(linked.CanExpire());
  EXPECT_TRUE(linked.Check().ok());

  attempt.Cancel();  // the sibling attempt won the hedge race
  EXPECT_TRUE(linked.Check().IsCancelled());
  // The link is one-way: the client token is untouched...
  EXPECT_TRUE(base.Check().ok());

  CancelToken linked2 = base.WithLinkedSource(CancelSource{});
  client.Cancel();  // ...and the client flag still cancels every attempt
  EXPECT_TRUE(linked2.Check().IsCancelled());
}

// ------------------------------------------------- service: EDF + shedding

TEST(ServiceOverload, InteractiveClassSurvivesBestEffortFlood) {
  Graph g = TestGraph();
  ServiceOptions opt;
  opt.num_workers = 1;  // serial drain: the queue actually builds up
  opt.cache_bytes = 0;  // every query runs: cache hits would hide ordering
  // Aggressive controller: any standing queue sheds one entry per pop.
  opt.qos.shed_target = nanoseconds(1);
  opt.qos.shed_interval = nanoseconds(1);
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  // A best-effort flood arrives first, then a handful of interactive
  // queries land behind it.
  std::vector<std::future<Result<QueryResult>>> flood;
  for (int i = 0; i < 30; ++i) {
    ServiceQuery q{id.value(), BfsQuery{static_cast<NodeId>(i % 17)}};
    q.priority = QueryPriority::kBestEffort;
    flood.push_back(service.Submit(std::move(q)));
  }
  std::vector<std::future<Result<QueryResult>>> interactive;
  for (int i = 0; i < 5; ++i) {
    ServiceQuery q{id.value(), BfsQuery{static_cast<NodeId>(i)}};
    q.priority = QueryPriority::kInteractive;
    interactive.push_back(service.Submit(std::move(q)));
  }

  // Every interactive query succeeds: the class is served first and the
  // controller sheds from the lowest non-empty class only.
  for (auto& f : interactive) {
    auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  // The flood absorbed the shedding; shed futures fail Unavailable.
  uint64_t flood_ok = 0, flood_shed = 0;
  for (auto& f : flood) {
    auto r = f.get();
    if (r.ok()) {
      ++flood_ok;
    } else {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
      ++flood_shed;
    }
  }
  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.shed_overload, 0u);
  EXPECT_EQ(stats.shed_overload, flood_shed);
  EXPECT_EQ(stats.completed, 35u);
  EXPECT_EQ(flood_ok + flood_shed, 30u);
}

TEST(ServiceOverload, QueueExpiredDeadlineIsCountedExactlyOnce) {
  Graph g = TestGraph();
  ServiceOptions opt;
  opt.num_workers = 1;
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  ServiceQuery q{id.value(), BfsQuery{0}};
  q.cancel = CancelToken::WithDeadline(Clock::now() - milliseconds(1));
  auto r = service.Submit(std::move(q)).get();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();

  const ServiceStats stats = service.Stats();
  // One query, one verdict, one appearance in each relevant counter: the
  // sweep (expired_in_queue), the verdict code (deadline_exceeded) and the
  // completion ledger.
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.worker_sessions, 0u);  // a doomed entry never runs
}

TEST(ServiceOverload, InjectedShedDecisionIsUnavailableCountedOnce) {
  Graph g = TestGraph();
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.max_attempts = 3;  // sheds must not burn retry attempts
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  InjectionScope chaos(7, /*rate=*/1.0, MaskOf(FaultPoint::kShedDecision));
  for (int i = 0; i < 4; ++i) {
    auto r = service.Submit({id.value(), BfsQuery{0}}).get();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed_overload, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.retries, 0u);
}

// ------------------------------------------------- service: fair admission

TEST(ServiceOverload, TokenBucketBoundsAFlooderWithoutTouchingOthers) {
  Graph g = TestGraph();
  ServiceOptions opt;
  opt.num_workers = 2;
  // Refill is negligible over the test's lifetime: admission per client is
  // exactly the burst.
  opt.qos.fair_tokens_per_sec = 0.001;
  opt.qos.fair_burst = 4.0;
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  uint64_t flooder_ok = 0, flooder_shed = 0;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 40; ++i) {
    ServiceQuery q{id.value(), BfsQuery{static_cast<NodeId>(i % 11)}};
    q.client_id = 1;  // the flooder
    futures.push_back(service.Submit(std::move(q)));
  }
  for (auto& f : futures) {
    auto r = f.get();
    if (r.ok()) {
      ++flooder_ok;
    } else {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
      ++flooder_shed;
    }
  }
  // The flooder admits exactly its burst; the other 36 shed.
  EXPECT_EQ(flooder_ok, 4u);
  EXPECT_EQ(flooder_shed, 36u);

  // A light client's bucket is untouched by the flood.
  for (int i = 0; i < 4; ++i) {
    ServiceQuery q{id.value(), BfsQuery{static_cast<NodeId>(i)}};
    q.client_id = 2;
    auto r = service.Submit(std::move(q)).get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }

  // TrySubmit sheds the exhausted client synchronously (and counts it as a
  // rejection, like any admission-control refusal).
  ServiceQuery q{id.value(), BfsQuery{0}};
  q.client_id = 1;
  auto try_r = service.TrySubmit(std::move(q));
  ASSERT_FALSE(try_r.ok());
  EXPECT_TRUE(try_r.status().IsUnavailable());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed_rate_limited, 37u);
  EXPECT_EQ(stats.rejected, 1u);  // only the TrySubmit path rejects
  // Every Submit future fulfilled — 40 flooder + 4 light client; the
  // TrySubmit rejection never entered the ledger.
  EXPECT_EQ(stats.completed, 44u);
}

// ------------------------------------------------------- service: hedging

TEST(ServiceOverload, HedgedSuccessIsBitIdenticalToOracle) {
  Graph g = TestGraph();
  // The oracle: a fresh serial session, no cache, no faults.
  auto oracle_session = GcgtSession::Prepare(g);
  ASSERT_TRUE(oracle_session.ok());
  BcQuery slow;  // enough sources that a run comfortably outlives the delay
  for (NodeId s = 0; s < 96; ++s) slow.sources.push_back(s * 7 % 800);
  auto want = oracle_session.value().Run(slow);
  ASSERT_TRUE(want.ok());

  ServiceOptions opt;
  opt.num_workers = 2;  // the hedge needs a second worker to race on
  opt.cache_bytes = 0;  // a cache hit would serve the hedge without a run
  opt.qos.enable_hedging = true;
  opt.qos.hedge_delay = microseconds(200);  // fixed, far below the runtime
  opt.qos.watchdog_interval = microseconds(100);
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  for (int rep = 0; rep < 8; ++rep) {
    auto r = service.Submit({id.value(), slow}).get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // First completion won; whichever attempt it was, the result is the
    // oracle's bit for bit.
    ExpectSameResult(r.value(), want.value());
  }
  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.hedged, 0u);
  EXPECT_LE(stats.hedge_wins, stats.hedged);
  // Losing attempts are aborted via their linked flag, not the client's:
  // no query is ever REPORTED cancelled.
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.completed, 8u);
}

// ------------------------------------------------------ service: watchdog

TEST(ServiceOverload, WatchdogReportsAStuckWorkerIntoBreaker) {
  Graph g = TestGraph();
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes = 0;
  // The stuck scenario: the only attempt fails (injected), and the retry
  // backoff parks the worker for 60ms — far past the query's 10ms deadline.
  // A healthy engine would have polled its token; a parked worker cannot.
  opt.max_attempts = 2;
  opt.retry_backoff_base = milliseconds(60);
  opt.breaker.failure_threshold = 1;
  opt.qos.watchdog_interval = milliseconds(1);
  opt.qos.stuck_grace = milliseconds(2);
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  InjectionScope chaos(3, /*rate=*/1.0, MaskOf(FaultPoint::kWorkerServe));
  ServiceQuery q{id.value(), BfsQuery{0}};
  q.cancel = CancelToken::WithDeadline(Clock::now() + milliseconds(10));
  auto r = service.Submit(std::move(q)).get();
  ASSERT_FALSE(r.ok());
  // The final attempt's own verdict stands (Internal: the injected
  // exception) — the watchdog observes, it never preempts.
  EXPECT_TRUE(r.status().IsInternal()) << r.status().ToString();

  const ServiceStats stats = service.Stats();
  EXPECT_GE(stats.watchdog_stuck, 1u);
  // One stuck report per query, no matter how many ticks saw it parked.
  EXPECT_LE(stats.watchdog_stuck, 1u);
  // Stuck detections are breaker failures.
  EXPECT_EQ(service.BreakerState(id.value()), CircuitBreakerState::kOpen);
}

// --------------------------------------------------------- service: chaos

TEST(ServiceOverload, ChaosWithFullQosStackFulfillsEveryFuture) {
  // The robustness chaos test covers the legacy path; this one arms every
  // fault point — including hedge_dispatch, shed_decision and watchdog_tick
  // — with the whole QoS stack live: EDF, aggressive CoDel shedding,
  // hedging and the watchdog. Overridable like the robustness chaos run:
  // GCGT_CHAOS_SEED / GCGT_CHAOS_RATE.
  uint64_t seed = 42;
  double rate = 0.05;
  if (const char* s = std::getenv("GCGT_CHAOS_SEED")) seed = std::stoull(s);
  if (const char* r = std::getenv("GCGT_CHAOS_RATE")) rate = std::stod(r);

  Graph g = TestGraph();
  std::vector<ServiceQuery> workload;
  for (int rep = 0; rep < 6; ++rep) {
    for (NodeId s : {0, 3, 17, 42, 99}) {
      workload.push_back({0, BfsQuery{s}});
    }
    workload.push_back({0, CcQuery{}});
    workload.push_back({0, BcQuery{{5, 23}}});
  }
  // The oracle runs BEFORE chaos is armed (its session would hit the same
  // global injection points).
  auto oracle_session = GcgtSession::Prepare(g);
  ASSERT_TRUE(oracle_session.ok());
  std::vector<Result<QueryResult>> oracle;
  for (const ServiceQuery& q : workload) {
    oracle.push_back(oracle_session.value().Run(q.query));
  }

  ServiceOptions opt;
  opt.num_workers = 4;
  opt.max_attempts = 3;
  opt.retry_backoff_base = milliseconds(1);
  opt.breaker.failure_threshold = 0;  // quarantine has its own tests
  opt.qos.shed_target = microseconds(500);
  opt.qos.shed_interval = microseconds(500);
  opt.qos.enable_hedging = true;
  opt.qos.hedge_delay = milliseconds(2);
  opt.qos.watchdog_interval = microseconds(500);
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());
  const QueryPriority cycle[3] = {QueryPriority::kInteractive,
                                  QueryPriority::kBatch,
                                  QueryPriority::kBestEffort};
  for (size_t i = 0; i < workload.size(); ++i) {
    workload[i].graph = id.value();
    workload[i].priority = cycle[i % 3];
    workload[i].client_id = i % 4;
  }

  uint64_t succeeded = 0, failed = 0;
  {
    InjectionScope chaos(seed, rate);
    auto futures = service.SubmitBatch(workload);
    for (size_t i = 0; i < futures.size(); ++i) {
      Result<QueryResult> got = futures[i].get();  // fulfilled, always
      ASSERT_TRUE(oracle[i].ok());
      if (got.ok()) {
        ++succeeded;
        ExpectSameResult(got.value(), oracle[i].value());
      } else {
        ++failed;
        // Chaos + overload control manufacture only these verdicts (no
        // deadlines in the workload, so never DeadlineExceeded).
        EXPECT_TRUE(got.status().IsInternal() ||
                    got.status().IsUnavailable())
            << got.status().ToString();
      }
    }
    service.Shutdown();
  }
  const ServiceStats stats = service.Stats();
  // The exactly-once ledger balances even with hedges in flight: every
  // accepted future fulfilled once, every verdict in exactly one bucket.
  EXPECT_EQ(stats.completed, workload.size());
  EXPECT_EQ(succeeded + failed, workload.size());
  EXPECT_GE(stats.hedge_wins + succeeded, succeeded);  // wins ⊆ successes
  EXPECT_GT(succeeded, 0u) << "rate " << rate << " drowned every query";
  EXPECT_GT(FaultInjector::Global().Stats().total_injected(), 0u);
}

TEST(ServiceOverload, ShutdownWithQosStackFulfillsEverything) {
  Graph g = TestGraph();
  ServiceOptions opt;
  opt.num_workers = 2;
  opt.qos.enable_hedging = true;
  opt.qos.hedge_delay = microseconds(100);
  opt.qos.watchdog_interval = microseconds(100);
  opt.qos.shed_target = microseconds(100);
  opt.qos.shed_interval = microseconds(100);
  GcgtService service(opt);
  auto id = service.RegisterGraph(g);
  ASSERT_TRUE(id.ok());

  std::vector<std::future<Result<QueryResult>>> futures;
  std::mutex futures_mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        ServiceQuery q{id.value(), BfsQuery{static_cast<NodeId>(i)}};
        q.priority = static_cast<QueryPriority>(i % kNumQueryPriorities);
        q.client_id = static_cast<uint64_t>(t);
        auto f = service.Submit(std::move(q));
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(f));
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] { service.Shutdown(); });
  }
  for (auto& th : threads) th.join();
  service.Shutdown();  // idempotent

  // Accepted before or shed during the close — every future is fulfilled.
  for (auto& f : futures) {
    auto r = f.get();
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    }
  }
}

}  // namespace
}  // namespace gcgt
