// GcgtService: concurrent query serving over shared prepared graphs.
//
// The session layer (GcgtSession) is prepare-once/query-many but strictly
// single-caller. This tier multiplexes many concurrent clients over the
// prepared artifacts:
//
//   clients --Submit--> [admission queue] ----> worker pool --> results
//                            |    ^                 |   ^
//            fair admission  |    | hedges    per-worker |
//            (token buckets) |    |           sessions   |
//            EDF + shedding  |  [watchdog]        |      |
//                            |    |               |      |
//             registry of PreparedGraphs <--------+   result cache
//             (one encode per fingerprint)          (sharded LRU)
//
//  - Registry: RegisterGraph runs VNC -> reorder -> CGR encode exactly once
//    per artifact fingerprint; re-registering an identical (graph, options)
//    pair is a lookup, not an encode.
//  - Worker pool: each worker thread owns one GcgtSession clone per artifact
//    it has served (engines are per-session; the encode is shared by
//    reference), created lazily on first use and reused forever after —
//    zero engine constructions in steady state.
//  - Front end: a priority/deadline-aware AdmissionQueue (see
//    util/admission_queue.h). Submit returns a std::future and blocks while
//    the queue is full (backpressure); TrySubmit sheds instead (admission
//    control); SubmitBatch pipelines a whole batch.
//  - Result cache: BFS-from-source, CC and canonical-BC results are memoized
//    across clients, keyed by {artifact fingerprint, backend, query key};
//    hits are bit-identical to a fresh run (deterministic engines),
//    including metrics.
//  - Shutdown: Close the queue, drain every accepted job, join the workers
//    and the watchdog. Every accepted future is fulfilled; later submissions
//    fail fast with Unavailable. Idempotent and safe to call concurrently
//    with Submit and with other Shutdown calls.
//
// Overload control (the QoS layer; see README "Robustness"):
//  - Priority + EDF admission: ServiceQuery::priority picks a strict class
//    ({interactive, batch, best-effort}); within a class the queue serves
//    earliest deadline first. Entries whose deadline passes while queued are
//    lazily swept and failed DeadlineExceeded without touching a worker.
//  - Adaptive shedding: a CoDel-style controller on queue sojourn time
//    sheds lowest-priority-first (Unavailable) while queueing delay stays
//    over `qos.shed_target`; per-client token buckets
//    (`qos.fair_tokens_per_sec`, keyed by ServiceQuery::client_id) shed a
//    flooding tenant at admission before it can starve others.
//  - Hedged requests: once `qos.enable_hedging` is set and a query has been
//    in flight for `qos.hedge_delay`, the watchdog re-dispatches it to a
//    second worker if the queue has spare capacity. First completion wins
//    and fulfills the promise (exactly once); the loser's attempt token is
//    cancelled and its result discarded. Winning results remain
//    bit-identical to the oracle — both attempts run the same deterministic
//    engine on the same artifact.
//  - Watchdog: a background thread (qos.watchdog_interval) detects stuck
//    workers — running one query `qos.stuck_grace` past its deadline, i.e.
//    the engine missed its cooperative cancel polls — counts them
//    (watchdog_stuck) and reports them to the artifact's circuit breaker.
//
// Robustness (the fault-tolerance layer of PR 6) is unchanged underneath:
// deadlines/cancellation honored while queued and mid-traversal, worker
// exception containment + capped-backoff retries, per-artifact circuit
// breaker, graceful OOM degradation onto a fallback backend, and seeded
// deterministic fault injection (now also covering hedge dispatch, shed
// decisions and watchdog ticks).
//
// Correctness under concurrency: with any worker count, the cache on,
// hedging and shedding active, results are bit-identical to serial uncached
// GcgtSession runs on the same prepared artifact — BFS depths, canonical CC
// labels, BC dependency doubles, and all modeled metrics (engines are
// deterministic per artifact; see tests/service_test.cc and
// tests/overload_test.cc). That invariant survives chaos: with fault
// injection enabled, every accepted future is still fulfilled and every
// SUCCESSFUL result is still bit-identical to the no-fault oracle (see
// tests/robustness_test.cc, tests/overload_test.cc).
#ifndef GCGT_SERVICE_GCGT_SERVICE_H_
#define GCGT_SERVICE_GCGT_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/gcgt_session.h"
#include "service/circuit_breaker.h"
#include "service/prepared_graph.h"
#include "service/result_cache.h"
#include "util/admission_queue.h"
#include "util/cancel_token.h"
#include "util/status.h"
#include "util/token_bucket.h"

namespace gcgt {

/// Overload-control knobs. Defaults keep legacy behavior for everything but
/// the admission discipline: EDF ordering with lazy expiry sweeping is on
/// (it is a pure win — un-deadlined single-class workloads degenerate to
/// FIFO), while shedding, fair admission and hedging are opt-in.
struct QosOptions {
  /// EDF admission discipline (priority classes, deadline order, lazy
  /// expiry sweeping). false restores the legacy global FIFO — no
  /// reordering, no sweeping, no shedding — which is also the A/B baseline
  /// of the overload bench.
  bool edf = true;
  /// CoDel-style sojourn shedding (see AdmissionQueueOptions); 0 disables.
  std::chrono::nanoseconds shed_target{0};
  std::chrono::nanoseconds shed_interval{std::chrono::milliseconds(100)};
  /// Per-client token-bucket fair admission (0 disables): each client_id
  /// admits `fair_burst` queries instantly and `fair_tokens_per_sec`
  /// sustained; beyond that its submissions are shed Unavailable without
  /// touching other clients.
  double fair_tokens_per_sec = 0.0;
  double fair_burst = 8.0;
  /// Hedged requests (off by default: they trade duplicated work for tail
  /// latency, a policy the operator must opt into).
  bool enable_hedging = false;
  /// Hedge a query once it has been in flight this long.
  std::chrono::nanoseconds hedge_delay{0};
  /// Watchdog cadence; 0 disables the thread (and with it stuck detection
  /// and hedging).
  std::chrono::nanoseconds watchdog_interval{std::chrono::milliseconds(5)};
  /// A worker running one query this long past the query's deadline is
  /// "stuck" (its engine missed the cooperative cancel polls): counted and
  /// reported to the artifact's circuit breaker.
  std::chrono::nanoseconds stuck_grace{std::chrono::milliseconds(50)};
};

struct ServiceOptions {
  /// Worker threads draining the queue. Each worker owns its own sessions
  /// (engines), so this is the serving parallelism.
  int num_workers = 4;
  /// Bounded submission queue: Submit blocks (backpressure) and TrySubmit
  /// sheds (admission control) once this many queries are in flight.
  size_t queue_capacity = 256;
  /// Result-cache byte budget across all shards; 0 disables caching.
  size_t cache_bytes = size_t{64} << 20;

  // --- Robustness knobs -----------------------------------------------
  /// Total attempts per query (first run + retries) for TRANSIENT failures
  /// (Status::kInternal: worker exceptions, injected faults). Client errors
  /// (InvalidArgument, NotFound), resource verdicts (OutOfMemory) and
  /// caller aborts (Cancelled, DeadlineExceeded) are never retried.
  int max_attempts = 3;
  /// Exponential backoff between retries: base * 2^(attempt-1), capped.
  std::chrono::milliseconds retry_backoff_base{1};
  std::chrono::milliseconds retry_backoff_cap{50};
  /// Service-side deadline measured from admission (0 = none): each query's
  /// token is tightened to expire no later than now + default_timeout
  /// (client deadlines that are already earlier win).
  std::chrono::nanoseconds default_timeout{0};
  /// When the REQUESTED backend fails with OutOfMemory, transparently
  /// re-run on `fallback_backend` and mark the result degraded() instead of
  /// failing the query. Degraded results are never cached (their identity
  /// belongs to the fallback backend, not the requested one).
  bool enable_oom_fallback = false;
  Backend fallback_backend = Backend::kCpuReference;
  /// Per-artifact circuit breaker (failure_threshold <= 0 disables).
  CircuitBreakerOptions breaker;

  // --- Overload-control knobs -----------------------------------------
  QosOptions qos;
};

/// One query addressed to a registered artifact.
struct ServiceQuery {
  uint64_t graph = 0;  ///< fingerprint returned by RegisterGraph
  Query query;
  Backend backend = Backend::kCgrSimt;
  /// Cooperative cancellation / absolute deadline for this query; honored
  /// while queued and per traversal round once running. Default: never
  /// expires (ServiceOptions::default_timeout still applies).
  CancelToken cancel{};
  /// Admission class: strict priority ordering in the queue, and the shed
  /// order under overload (best-effort first). Default interactive, which
  /// preserves single-class (legacy) behavior.
  QueryPriority priority = QueryPriority::kInteractive;
  /// Fair-admission identity for per-client token buckets (0 is a perfectly
  /// valid shared "anonymous" client).
  uint64_t client_id = 0;
};

/// Stats counting rules (audited by tests/overload_test.cc): `completed`
/// counts every fulfilled future exactly once, and each of the verdict
/// counters below (cancelled, deadline_exceeded, expired_in_queue,
/// shed_overload, hedge_wins, degraded) is attributed exactly once, to the
/// attempt/cause that actually fulfilled the promise — a query swept from
/// the queue but rescued by a winning hedge counts as a success, not an
/// expiry. `hedged` counts dispatched hedge attempts (a hedged query that
/// loses its race adds to `hedged` but nothing else).
struct ServiceStats {
  uint64_t submitted = 0;   ///< accepted into the queue
  uint64_t rejected = 0;    ///< shed by TrySubmit admission control
  uint64_t completed = 0;   ///< futures fulfilled (results and errors)
  uint64_t worker_sessions = 0;  ///< sessions (engines) built, ever
  ResultCacheStats cache;   ///< cache.hits == queries answered from cache
  // Robustness counters:
  uint64_t retries = 0;           ///< re-attempts after transient failures
  uint64_t worker_faults = 0;     ///< exceptions contained to Internal
  uint64_t degraded = 0;          ///< OOM queries served by the fallback
  uint64_t cancelled = 0;         ///< queries ending Cancelled
  uint64_t deadline_exceeded = 0; ///< queries ending DeadlineExceeded
  uint64_t breaker_rejected = 0;  ///< failed fast on an open breaker
  uint64_t breaker_opened = 0;    ///< breaker trips across all artifacts
  // Overload-control counters:
  uint64_t expired_in_queue = 0;  ///< queue-swept: deadline passed unserved
                                  ///< (also counted in deadline_exceeded)
  uint64_t shed_overload = 0;     ///< shed by the sojourn controller (incl.
                                  ///< injected shed decisions)
  uint64_t shed_rate_limited = 0; ///< shed by per-client token buckets
  uint64_t hedged = 0;            ///< hedge attempts dispatched
  uint64_t hedge_wins = 0;        ///< queries answered by their hedge
  uint64_t watchdog_stuck = 0;    ///< stuck-worker detections
  // Out-of-core pager counters, summed over every successful result served
  // (cache hits replay the memoized metrics, so they count identically):
  uint64_t partition_faults = 0;  ///< partitions faulted in from the
                                  ///< external tier
  uint64_t partition_spills = 0;  ///< partitions spilled to fit the budget
  uint64_t resident_bytes_peak = 0;  ///< max resident set across all queries
};

class GcgtService {
 public:
  explicit GcgtService(const ServiceOptions& options = {});
  /// Drains and joins (Shutdown).
  ~GcgtService();

  GcgtService(const GcgtService&) = delete;
  GcgtService& operator=(const GcgtService&) = delete;

  /// Prepares `graph` into the registry and returns its artifact
  /// fingerprint — the id queries address. Encodes at most once per
  /// fingerprint: re-registering an identical (graph, options) pair returns
  /// the existing artifact. Safe to call concurrently with serving.
  Result<uint64_t> RegisterGraph(const Graph& graph,
                                 const PrepareOptions& options = {});

  /// Registers an out-of-core container file (ooc::WriteCgrContainer) as a
  /// servable artifact: the encoded bits are adopted verbatim — zero
  /// re-encodes, ever — and `options` configures the serving engines (set
  /// options.ooc_resident_bytes to page the partitions under a budget). The
  /// returned id combines the container header's stored fingerprint with the
  /// serving options, so one container registered under two budgets yields
  /// two artifacts that never alias in the registry or the result cache.
  /// Note: a container stores the PREPARED graph — queries on a
  /// container-backed artifact address prepared node ids (the
  /// reorder/VNC translation of the original Prepare() session is not part
  /// of the container format).
  Result<uint64_t> RegisterContainer(
      const std::string& path, const GcgtOptions& options = {},
      ooc::CgrContainer::ReadMode mode = ooc::CgrContainer::ReadMode::kMmap);

  /// The registered artifact (nullptr when unknown). Entries live for the
  /// service's lifetime.
  std::shared_ptr<const PreparedGraph> FindGraph(uint64_t fingerprint) const;

  /// Enqueues one query and returns the future of its result. Blocks while
  /// the queue is full (backpressure). The future is always fulfilled:
  /// with the query result, a query error (OutOfMemory/InvalidArgument...),
  /// NotFound for an unregistered graph, Unavailable for shed/rate-limited
  /// admissions, or Unavailable once the service is shut down.
  ///
  /// Results are BY VALUE: a cache hit copies the memoized result vectors
  /// out (microseconds at bench scale, vs the milliseconds of traversal the
  /// hit avoids). If O(V) copies ever dominate at production node counts,
  /// the evolution path is a future carrying shared_ptr<const QueryResult>
  /// straight out of the cache.
  std::future<Result<QueryResult>> Submit(ServiceQuery query);

  /// Like Submit, but sheds instead of blocking: Unavailable when the queue
  /// is full, the client is over its fair-admission rate, or the service is
  /// shut down (the future, if returned, is still always fulfilled).
  Result<std::future<Result<QueryResult>>> TrySubmit(ServiceQuery query);

  /// Submits all queries (blocking admission, in order) and returns their
  /// futures. Queries fan out across the worker pool concurrently.
  std::vector<std::future<Result<QueryResult>>> SubmitBatch(
      std::vector<ServiceQuery> queries);

  /// Graceful shutdown: stops admissions, drains every accepted query,
  /// joins the workers and the watchdog. Idempotent; called by the
  /// destructor.
  void Shutdown();

  ServiceStats Stats() const;
  const ServiceOptions& options() const { return options_; }

  /// The artifact's circuit-breaker state (kClosed for artifacts that have
  /// never failed — the breaker is created lazily on first failure-path
  /// traffic). Exposed for tests and operational introspection.
  CircuitBreakerState BreakerState(uint64_t fingerprint) const;

 private:
  using Clock = CancelToken::Clock;

  /// Why an attempt failed without producing a run verdict; decides which
  /// overload counter the query is attributed to IF this cause ends up
  /// fulfilling the promise.
  enum class FailCause { kRun, kExpiredInQueue, kShedOverload };

  /// Shared per-query state: both attempts of a hedged pair point here.
  /// The promise is fulfilled exactly once (`fulfilled` exchange); error
  /// verdicts wait for the LAST live attempt (`live_attempts`), so a failed
  /// primary can never preempt a hedge that might still succeed.
  struct JobState {
    ServiceQuery query;  // BC sources canonicalized at admission
    std::promise<Result<QueryResult>> promise;
    Clock::time_point admitted_at{};
    std::atomic<bool> fulfilled{false};
    std::atomic<int> live_attempts{1};
    std::atomic<bool> hedged{false};
    std::atomic<bool> stuck_reported{false};
    /// Per-attempt loser-abort writer ends; Fulfill cancels both so the
    /// losing attempt stops at its next cooperative poll.
    CancelSource attempt_cancel[2];
    /// Pending error verdict, applied by the last live attempt.
    std::mutex verdict_mu;
    Status error = Status::Internal("query produced no verdict");
    FailCause error_cause = FailCause::kRun;
  };

  struct Job {
    std::shared_ptr<JobState> state;
    int attempt = 0;  ///< 0 = primary, 1 = hedge
  };

  /// A worker's per-artifact serving state: the session (engine) plus the
  /// registry entry keeping the shared encode alive.
  struct WorkerSession {
    std::shared_ptr<const PreparedGraph> artifact;
    GcgtSession session;
  };

  /// What worker i is running right now (watchdog stuck detection).
  struct WorkerSlot {
    std::mutex mu;
    std::shared_ptr<JobState> state;  // null = idle
  };

  std::shared_ptr<JobState> MakeState(ServiceQuery query);
  bool FairAdmit(uint64_t client_id);
  void RegisterInflight(const std::shared_ptr<JobState>& state);

  void WorkerLoop(int worker_index);
  void Serve(int worker_index,
             std::unordered_map<uint64_t, WorkerSession>& sessions, Job job);
  /// One guarded attempt on the worker's session: fault injection, exception
  /// containment, OOM fallback. Sets `degraded` when the fallback answered.
  Result<QueryResult> Attempt(WorkerSession& ws, const ServiceQuery& query,
                              const CancelToken& run_token, bool& degraded);

  /// First-completion-wins: fulfills the promise (exactly once), cancels
  /// both attempt tokens and counts the verdict. False when the sibling
  /// attempt already won. `on_win` runs after winning the race but BEFORE
  /// set_value: all per-query accounting goes through it, so a client that
  /// wakes on the future never reads Stats() mid-update.
  bool Fulfill(JobState& state, Result<QueryResult> result,
               const std::function<void()>& on_win = nullptr);
  /// Records a failed attempt's verdict and releases its liveness; the LAST
  /// live attempt's stored verdict fulfills the promise.
  void FailAttempt(Job& job, Status status, FailCause cause);
  /// Drops one live attempt; fulfills the stored error verdict if it was
  /// the last (no-op if the promise is already fulfilled).
  void ReleaseAttempt(JobState& state);

  void WatchdogLoop();
  void ScanStuck();
  void ScanHedges();

  /// The artifact's breaker, created on first use (never null).
  std::shared_ptr<CircuitBreaker> BreakerFor(uint64_t fingerprint);

  ServiceOptions options_;
  std::unique_ptr<ResultCache> cache_;  // null when cache_bytes == 0

  mutable std::mutex registry_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const PreparedGraph>> registry_;

  mutable std::mutex breakers_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<CircuitBreaker>> breakers_;

  std::mutex buckets_mu_;
  std::unordered_map<uint64_t, TokenBucket> buckets_;

  /// Weak registry of queries admitted while hedging is enabled; the
  /// watchdog scans it for hedge candidates and prunes completed entries.
  std::mutex inflight_mu_;
  std::list<std::weak_ptr<JobState>> inflight_;

  AdmissionQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;  // one per worker
  std::once_flag shutdown_once_;

  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> worker_sessions_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> worker_faults_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> breaker_rejected_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> shed_overload_{0};
  std::atomic<uint64_t> shed_rate_limited_{0};
  std::atomic<uint64_t> hedged_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> watchdog_stuck_{0};
  std::atomic<uint64_t> partition_faults_{0};
  std::atomic<uint64_t> partition_spills_{0};
  std::atomic<uint64_t> resident_bytes_peak_{0};
};

}  // namespace gcgt

#endif  // GCGT_SERVICE_GCGT_SERVICE_H_
