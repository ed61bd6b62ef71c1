// GcgtSession: the prepare-once / query-many facade of the library.
//
// The paper's headline claim is that compressed traversal pays off when one
// prepared graph serves many traversals. A session is built once from a
// Graph + PrepareOptions — it runs the reorder → VNC → CGR-encode pipeline
// of §7.2 and owns the prepared artifacts: the encoded CgrGraph, the
// lazily-built uncompressed/reversed variants the baseline backends and
// direction-optimizing consumers need, and ONE persistent CgrTraversalEngine
// whose warp scratch is reused across queries (zero engine constructions per
// query; CgrTraversalEngine::ConstructedCount() makes that testable).
//
// Queries are typed values (BfsQuery/CcQuery/BcQuery) submitted through
// Run() or RunBatch(); a batch amortizes frontier/label buffer allocation
// across queries, and a multi-source BcQuery accumulates every source into
// one dependency vector (the betweenness-centrality sum).
//
// The `Backend` selector routes the same query types through the simulated
// GPU baselines (GPUCSR / Gunrock on uncompressed CSR) and the serial CPU
// references, so compressed-vs-uncompressed comparisons and correctness
// cross-checks are one flag, not three codebases — the Gunrock
// problem/enactor separation (Wang et al.) with an EMOGI-style storage seam
// (Min et al.).
#ifndef GCGT_API_GCGT_SESSION_H_
#define GCGT_API_GCGT_SESSION_H_

#include <atomic>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "baseline/csr_gpu_engine.h"
#include "cgr/cgr_graph.h"
#include "core/bc.h"
#include "core/bfs.h"
#include "core/cc.h"
#include "core/cgr_traversal.h"
#include "core/gcgt_options.h"
#include "core/trace.h"
#include "core/traversal_pipeline.h"
#include "graph/graph.h"
#include "intersect/intersect_engine.h"
#include "intersect/intersect_results.h"
#include "reorder/reorder.h"
#include "util/cancel_token.h"
#include "util/status.h"
#include "vnc/virtual_node.h"

namespace gcgt {

/// Execution backend a query is routed through. All backends answer the same
/// query types with the same result semantics; BFS depths and CC partitions
/// are identical across backends, BC doubles agree to accumulation-order
/// rounding.
enum class Backend {
  kCgrSimt,       ///< GCGT engine on the compressed graph (the paper's system)
  kCsrBaseline,   ///< GPUCSR: Merrill/Soman/Sriram kernels on uncompressed CSR
  kCsrGunrock,    ///< Gunrock-modeled CSR (extra filter kernel + memory factor)
  kCpuReference,  ///< serial CPU oracles (no simulated-GPU metrics)
};

const char* BackendName(Backend b);

/// Everything Prepare() needs to turn a raw Graph into a query-ready
/// session: the unified preprocessing of §7.2 (virtual-node compression,
/// then node reordering), the CGR encoder parameters, and the traversal
/// engine configuration shared by all backends.
struct PrepareOptions {
  /// Apply virtual-node compression before reordering.
  bool apply_vnc = false;
  VncOptions vnc;
  /// Node reordering applied to the (possibly VNC-transformed) graph.
  ReorderMethod reorder = ReorderMethod::kOriginal;
  uint64_t reorder_seed = 42;
  /// CGR encoder parameters (paper Table 2 defaults).
  CgrOptions cgr;
  /// Out-of-core tier: number of partitions to encode the graph into
  /// (CgrGraph::EncodePartitioned, sharded across the thread pool). 0 keeps
  /// the classic single-blob encode. The encoded bits are byte-identical
  /// either way; partitioning only adds the partition table that the
  /// PartitionPager pages by — but the count still participates in the
  /// artifact fingerprint, since it changes the container layout and the
  /// paging (hence metrics) of budgeted runs.
  int ooc_partitions = 0;
  /// Engine configuration: scheduling level, lanes, host threads, cost model
  /// and device budget. lanes/cost/device are shared with the CSR backends.
  GcgtOptions gcgt;
  /// Memory overhead factor of the kCsrGunrock backend.
  double gunrock_memory_factor = 2.6;
};

/// Deterministic fingerprint of (input graph, prepare options): two
/// Prepare() calls with an equal graph and equal result-affecting options
/// produce equal fingerprints. This is the identity of a prepared artifact —
/// the service registry dedups encodes on it and the cross-query result
/// cache keys on it. `gcgt.num_threads` is deliberately excluded: results
/// and metrics are bit-identical for every host thread count.
uint64_t ComputeArtifactFingerprint(const Graph& graph,
                                    const PrepareOptions& options);

/// Folds the result-affecting PrepareOptions fields into an existing hash —
/// the options half of ComputeArtifactFingerprint. Callers that already hold
/// a graph-identity hash (e.g. a container header's stored fingerprint) use
/// this to derive the registry key for a specific serving configuration
/// without re-hashing the graph.
uint64_t CombineOptionsFingerprint(uint64_t h, const PrepareOptions& options);

struct BfsQuery {
  NodeId source = 0;
};

struct CcQuery {};

struct BcQuery {
  /// Brandes sources; the per-source dependencies are accumulated into one
  /// vector (their sum over all nodes is betweenness centrality).
  std::vector<NodeId> sources;
};

// ---- Intersection-shaped query families (src/intersect): answered
// decode-free on the compressed graph by kCgrSimt, and by the same engine in
// CSR/CPU modes on the other backends. Like the traversal quantities, they
// are computed ON THE PREPARED GRAPH (§7.2 unified preprocessing): with VNC,
// triangle/k-core/similarity structure includes virtual-node edges, and tie
// ordering inside SimilarityTopKQuery uses prepared ids. All backends run the
// same prepared graph, so results stay bit-identical across backends.

/// Global + per-vertex triangle count.
struct TriangleCountQuery {};

/// Common neighbors of the unordered pair {u, v} (symmetric in u, v: a
/// serving tier caches the pair under the canonical {min, max} key).
struct CommonNeighborQuery {
  NodeId u = 0;
  NodeId v = 0;
};

/// Jaccard similarity of the unordered pair {u, v}.
struct JaccardQuery {
  NodeId u = 0;
  NodeId v = 0;
};

/// Top-k distance-2 neighbors of `source` by Jaccard similarity ("people you
/// may know"). With VNC, virtual nodes are never candidates.
struct SimilarityTopKQuery {
  NodeId source = 0;
  uint32_t k = 10;
};

/// k-core membership (iterative peel of vertices with degree < k).
struct KCoreQuery {
  uint32_t k = 2;
};

/// A typed query value. Order matches QueryKind.
using Query = std::variant<BfsQuery, CcQuery, BcQuery, TriangleCountQuery,
                           CommonNeighborQuery, JaccardQuery,
                           SimilarityTopKQuery, KCoreQuery>;

enum class QueryKind {
  kBfs = 0,
  kCc = 1,
  kBc = 2,
  kTriangle = 3,
  kCommonNeighbor = 4,
  kJaccard = 5,
  kSimilarityTopK = 6,
  kKCore = 7,
};

/// The result of one query: the matching driver result plus its metrics.
/// For a multi-source BcQuery, bc().dependency is the accumulated sum,
/// bc().metrics aggregates all sources, and bc().depth/sigma hold the last
/// source's labels.
///
/// Id space: query sources and result vectors use the CALLER's node ids —
/// the ids of the graph handed to Prepare(). The session translates across
/// its reordering permutation in both directions, and with VNC restricts
/// results to the original (real) nodes; cc().component labels are
/// canonicalized to the smallest caller id in each component. Traversal
/// *quantities* (BFS depths, BC sigma/delta, all metrics) are those of the
/// prepared graph the engines actually run on — with VNC that includes
/// virtual-node hops, exactly like the paper's unified preprocessing (§7.2).
class QueryResult {
 public:
  explicit QueryResult(GcgtBfsResult r) : value_(std::move(r)) {}
  explicit QueryResult(GcgtCcResult r) : value_(std::move(r)) {}
  explicit QueryResult(GcgtBcResult r) : value_(std::move(r)) {}
  explicit QueryResult(GcgtTriangleResult r) : value_(std::move(r)) {}
  explicit QueryResult(GcgtCommonNeighborResult r) : value_(std::move(r)) {}
  explicit QueryResult(GcgtJaccardResult r) : value_(std::move(r)) {}
  explicit QueryResult(GcgtSimilarityTopKResult r) : value_(std::move(r)) {}
  explicit QueryResult(GcgtKCoreResult r) : value_(std::move(r)) {}

  QueryKind kind() const { return static_cast<QueryKind>(value_.index()); }

  const GcgtBfsResult& bfs() const { return std::get<GcgtBfsResult>(value_); }
  const GcgtCcResult& cc() const { return std::get<GcgtCcResult>(value_); }
  const GcgtBcResult& bc() const { return std::get<GcgtBcResult>(value_); }
  const GcgtTriangleResult& triangle() const {
    return std::get<GcgtTriangleResult>(value_);
  }
  const GcgtCommonNeighborResult& common_neighbors() const {
    return std::get<GcgtCommonNeighborResult>(value_);
  }
  const GcgtJaccardResult& jaccard() const {
    return std::get<GcgtJaccardResult>(value_);
  }
  const GcgtSimilarityTopKResult& similarity_topk() const {
    return std::get<GcgtSimilarityTopKResult>(value_);
  }
  const GcgtKCoreResult& kcore() const {
    return std::get<GcgtKCoreResult>(value_);
  }

  const TraversalMetrics& metrics() const {
    return std::visit([](const auto& r) -> const TraversalMetrics& {
      return r.metrics;
    }, value_);
  }

  /// True when a serving tier answered this query on a FALLBACK backend
  /// after the requested backend failed (e.g. OutOfMemory on the modeled
  /// device): the result is correct for the query but was not produced by
  /// the backend asked for, and its metrics are the fallback's. Sessions
  /// never set this; GcgtService marks degraded results on the way out.
  bool degraded() const { return degraded_; }
  void MarkDegraded() { degraded_ = true; }

 private:
  friend class GcgtSession;  // result remapping into the caller's id space
  std::variant<GcgtBfsResult, GcgtCcResult, GcgtBcResult, GcgtTriangleResult,
               GcgtCommonNeighborResult, GcgtJaccardResult,
               GcgtSimilarityTopKResult, GcgtKCoreResult>
      value_;
  bool degraded_ = false;
};

struct RunOptions {
  Backend backend = Backend::kCgrSimt;
  /// Fig. 4 step-table recording; honored by kCgrSimt BFS queries only
  /// (recording forces the engine's serial path).
  StepTrace* trace = nullptr;
  /// Cooperative cancellation / deadline. kCgrSimt polls it once per
  /// traversal round (a long traversal aborts MID-flight with
  /// Status::Cancelled or Status::DeadlineExceeded); the baseline backends
  /// poll at query start and between BC sources. An aborted session stays
  /// fully usable — the next query Reset()s all per-query state.
  CancelToken cancel{};
};

class GcgtSession {
 public:
  /// Builds a session from a raw graph: VNC (optional) → reordering
  /// (optional) → CGR encoding → persistent engine. Fails with
  /// InvalidArgument on invalid CGR options or an invalid warp geometry
  /// (GcgtOptions::Validate). The input graph is not retained — the session holds only the
  /// encoded CgrGraph (baseline backends rebuild the uncompressed view
  /// lazily). Queries keep speaking the input graph's node ids — the
  /// session retains the reordering permutation and translates sources and
  /// results (see QueryResult).
  static Result<GcgtSession> Prepare(const Graph& graph,
                                     const PrepareOptions& options = {});

  /// Prepare() for callers that already computed
  /// ComputeArtifactFingerprint(graph, options) — the service registry hashes
  /// the graph to dedup encodes BEFORE preparing, and this overload keeps
  /// the O(V+E) hash from running twice. `fingerprint` is trusted verbatim.
  static Result<GcgtSession> Prepare(const Graph& graph,
                                     const PrepareOptions& options,
                                     uint64_t fingerprint);

  /// Wraps an already-encoded, externally-owned CgrGraph (which must outlive
  /// the session) — the single-query-wrapper and parameter-sweep path where
  /// the encode is shared across several engine configurations. Baseline
  /// backends decode the uncompressed graph lazily on first use. `options`
  /// is not checked here: Run() returns InvalidArgument for every query of
  /// a session whose options fail GcgtOptions::Validate (same for Adopt).
  static GcgtSession Attach(const CgrGraph& cgr,
                            const GcgtOptions& options = {});

  /// Attach with the uncompressed graph `cgr` encodes supplied up front
  /// (copied), so baseline backends skip the lazy decode — for callers that
  /// share one encode across many sessions (e.g. one per device budget).
  static GcgtSession Attach(const CgrGraph& cgr, const Graph& graph,
                            const GcgtOptions& options);

  /// Attach that takes OWNERSHIP of the encoded graph — the container-load
  /// path (ooc::CgrContainer::ToCgrGraph materializes a CgrGraph nobody else
  /// holds). The fingerprint is computed lazily like Attach's.
  static GcgtSession Adopt(std::unique_ptr<const CgrGraph> cgr,
                           const GcgtOptions& options = {});

  /// Adopt with the artifact fingerprint supplied up front (trusted
  /// verbatim) — the registry path, where the identity comes from the
  /// container header combined with the serving options and must match the
  /// registration key exactly.
  static GcgtSession Adopt(std::unique_ptr<const CgrGraph> cgr,
                           const GcgtOptions& options, uint64_t fingerprint);

  GcgtSession(GcgtSession&&) = default;
  GcgtSession& operator=(GcgtSession&&) = default;

  /// Cheap clone sharing this session's prepared artifacts: the encoded
  /// CgrGraph, the reorder permutation and any already-built uncompressed /
  /// reversed variants are shared; only the engine (+ pipeline and warp
  /// scratch) is constructed anew. This is how a serving tier multiplexes N
  /// concurrent workers over ONE encode: engines are per-session, the
  /// artifacts are immutable and shared by reference.
  ///
  /// The clone must not outlive the session it was cloned from (it borrows
  /// the encode). `num_threads_override >= 0` replaces gcgt.num_threads for
  /// the clone's engine (results are bit-identical for every value; a
  /// serving tier typically runs serial engines and parallelizes across
  /// workers instead). Thread-safe against concurrent AttachClone() calls on
  /// one source session; NOT against a concurrent Run() on it.
  GcgtSession AttachClone(int num_threads_override = -1) const;

  /// THREADING CONTRACT: a session is strictly single-caller. Run/RunBatch
  /// mutate the persistent engine's scratch, the pipeline buffers and the BC
  /// scratch, so two overlapping calls on one session race (debug builds
  /// assert). Concurrency is layered ABOVE sessions: give each thread its
  /// own AttachClone() of one prepared session (see GcgtService).
  ///
  /// Runs one query. OutOfMemory when the backend's modeled footprint
  /// exceeds the device budget; InvalidArgument on bad sources or options
  /// that fail GcgtOptions::Validate.
  Result<QueryResult> Run(const Query& query, const RunOptions& run = {});

  /// Runs the queries in order through the persistent engine, amortizing
  /// frontier/label buffer allocation across the batch. Fails on the first
  /// failing query. Single-caller, like Run().
  Result<std::vector<QueryResult>> RunBatch(std::span<const Query> queries,
                                            const RunOptions& run = {});

  /// The encoded graph every kCgrSimt query traverses.
  const CgrGraph& cgr() const { return *cgr_; }

  /// The prepared (post-VNC/reordering) uncompressed graph in PREPARED id
  /// space: what the CSR and CPU backends traverse. Decoded lazily from the
  /// (lossless) CGR encoding on first use, then cached.
  const Graph& graph() const;

  /// Number of nodes in the caller's id space — what query sources refer to
  /// and what result vectors are indexed by (the input graph's node count;
  /// virtual nodes added by VNC are excluded).
  NodeId num_query_nodes() const { return caller_nodes_; }

  /// Lazily-built reversed variant (in-edges), for direction-optimizing
  /// consumers (e.g. Ligra-style pull iterations).
  const Graph& reversed() const;

  /// The persistent engine. Its address is stable for the session's
  /// lifetime — queries never construct another one.
  const CgrTraversalEngine& engine() const { return *engine_; }

  /// Identity of the prepared artifact this session serves. Prepare()
  /// sessions: ComputeArtifactFingerprint(input graph, options). Attach()
  /// sessions: a hash of the encoded bits + engine options, computed lazily
  /// on first access (an O(encoded bytes) pass the parameter-sweep Attach
  /// callers never pay). Clones inherit the source session's fingerprint
  /// (same artifact). Single-caller, like Run().
  uint64_t artifact_fingerprint() const;

  const PrepareOptions& options() const { return options_; }

  /// VNC statistics of Prepare() (1.0 / 0 when VNC was off).
  double vnc_reduction() const { return vnc_reduction_; }
  NodeId vnc_virtual_nodes() const { return vnc_virtual_nodes_; }

 private:
  GcgtSession() = default;

  void InitEngine();
  CsrEngineOptions CsrOptions(bool gunrock) const;

  /// Caller id -> prepared id (identity when no reordering was applied).
  NodeId ToPrepared(NodeId u) const { return perm_.empty() ? u : perm_[u]; }
  bool IdentityIdSpace() const {
    return perm_.empty() && caller_nodes_ == cgr_->num_nodes();
  }
  /// Validates caller-space sources and rewrites them to prepared ids.
  Status TranslateQuery(Query& query) const;
  /// Rewrites a prepared-space result into the caller's id space.
  void RemapResult(QueryResult& result) const;

  Result<QueryResult> RunCgr(const Query& query, StepTrace* trace);
  Result<QueryResult> RunCsr(const Query& query, bool gunrock,
                             const CancelToken& cancel);
  Result<QueryResult> RunCpu(const Query& query, const CancelToken& cancel);

  /// Routes the intersection query families (kTriangle..kKCore) through the
  /// persistent per-backend IntersectEngine (constructed lazily on the first
  /// intersection query per backend; its warp scratch is then reused across
  /// queries, like the traversal engine's).
  Result<QueryResult> RunIntersect(const Query& query, Backend backend,
                                   const CancelToken& cancel);
  /// Prepared-space eligibility mask for similarity candidates: real nodes
  /// only (empty span = every node eligible, the no-VNC/no-reorder case).
  std::span<const uint8_t> RealMask() const;

  // Debug tripwire for the single-caller contract on Run/RunBatch: set while
  // a query is in flight; a second concurrent entry asserts. Movable so the
  // session stays movable (moving a session while a query runs is already a
  // contract violation, so the flag just resets).
  struct CallerCheck {
    std::atomic<bool> busy{false};
    CallerCheck() = default;
    CallerCheck(CallerCheck&&) noexcept {}
    CallerCheck& operator=(CallerCheck&&) noexcept { return *this; }
  };
  class RunScope;  // RAII acquire/release of busy (defined in the .cc)

  PrepareOptions options_;
  std::vector<NodeId> perm_;   // reorder permutation; empty = identity
  NodeId caller_nodes_ = 0;    // size of the caller's id space
  // Artifact identity (see artifact_fingerprint()): eager for Prepare (the
  // hash is needed up front for registry dedup anyway), lazy for Attach.
  mutable uint64_t fingerprint_ = 0;
  mutable bool has_fingerprint_ = false;
  std::unique_ptr<const CgrGraph> owned_cgr_;  // null for Attach sessions
  const CgrGraph* cgr_ = nullptr;              // never null once built
  // Lazy for Attach sessions; shared (immutable once built) so AttachClone
  // workers reuse one decode instead of one per engine.
  mutable std::shared_ptr<const Graph> graph_;
  mutable std::shared_ptr<const Graph> reversed_;
  std::unique_ptr<CgrTraversalEngine> engine_;
  std::unique_ptr<TraversalPipeline> pipeline_;  // borrows *engine_
  BcBatchScratch bc_scratch_;  // reused across BC sources and queries
  // Lazy persistent intersection engines, one per backend actually used
  // (kCpuReference needs none). Per-session like engine_, never shared.
  std::unique_ptr<intersect::IntersectEngine> isect_cgr_;
  std::unique_ptr<intersect::IntersectEngine> isect_csr_;
  std::unique_ptr<intersect::IntersectEngine> isect_gunrock_;
  mutable std::vector<uint8_t> real_mask_;  // lazy, see RealMask()
  double vnc_reduction_ = 1.0;
  NodeId vnc_virtual_nodes_ = 0;
  CallerCheck busy_;
};

}  // namespace gcgt

#endif  // GCGT_API_GCGT_SESSION_H_
