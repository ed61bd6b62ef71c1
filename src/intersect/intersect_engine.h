// Decode-free compressed set-intersection engine (the tentpole of the
// src/intersect subsystem).
//
// Answers the intersection-shaped query families — triangle counting,
// common-neighbor / Jaccard similarity, top-k neighbors-of-neighbors
// similarity, and k-core decomposition — directly on the COMPRESSED
// adjacency representation: both sides of every intersection are streamed as
// ascending runs (intervals = multi-element runs, residuals = unit runs
// delta-decoded on the fly; see compressed_cursor.h) and merged in one pass,
// so an intersection never materializes a decoded list. Segmented CGR
// residual layouts additionally skip whole segments whose value range lies
// below the merge frontier — the compressed-domain gallop.
//
// The same drivers run in three accounting modes:
//   - CGR decode-free (the paper-system path; default),
//   - CGR full-decode-then-merge (GcgtOptions::intersect_full_decode — the
//     A/B baseline: decode both lists to scratch, charge every codeword and
//     a scratch round-trip, then element-merge),
//   - CSR (kCsrBaseline / kCsrGunrock: already-decoded column reads; Gunrock
//     differs only by its device-memory factor).
// Results are bit-identical across all modes and to the CPU oracles below;
// only the modeled metrics move.
//
// Cost accounting mirrors the traversal engines: warp-wide work is charged
// through one WarpContext per simulated warp (triangle counting maps a warp
// to a vertex, pair queries to the pair, k-core to lanes-wide init chunks
// and per-peeled-vertex warps), decoded codewords become DecodeStep slots
// (lanes codewords per slot), intersection steps are the dedicated
// intersect_txns class (CostModel::cycles_per_intersect_op), and compressed
// byte reads go through the warp's LineSet so intra-warp L1 reuse dedups
// them.
//
// Determinism contract: all warps execute serially in a fixed order (vertex
// id ascending; pair sides in call order), and kernel makespans schedule
// per-warp cycle vectors in submission order — results AND metrics depend
// only on (graph, options, query).
#ifndef GCGT_INTERSECT_INTERSECT_ENGINE_H_
#define GCGT_INTERSECT_INTERSECT_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cgr/cgr_graph.h"
#include "core/gcgt_options.h"
#include "graph/graph.h"
#include "intersect/compressed_cursor.h"
#include "intersect/intersect_results.h"
#include "simt/machine.h"
#include "simt/warp.h"
#include "util/cancel_token.h"
#include "util/status.h"

namespace gcgt::intersect {

class IntersectEngine {
 public:
  /// Engine over the compressed graph (backend kCgrSimt). Decode-free unless
  /// options.intersect_full_decode. `graph` must outlive the engine.
  IntersectEngine(const CgrGraph& graph, const GcgtOptions& options);

  /// Engine over the uncompressed CSR (backends kCsrBaseline/kCsrGunrock).
  /// Gunrock mode reports the same modeled work but scales the device
  /// footprint by `gunrock_memory_factor` (its frontier framework's memory
  /// overhead), so it OOMs earlier — mirroring the CSR traversal baselines.
  IntersectEngine(const Graph& graph, const GcgtOptions& options, bool gunrock,
                  double gunrock_memory_factor);

  /// Global + per-vertex triangle count (one warp per vertex u; each
  /// neighbor pair v > u intersects N(u) x N(v) above v).
  Result<GcgtTriangleResult> TriangleCount(const CancelToken& cancel);

  /// Common neighbors of {u, v}, ascending (one warp).
  Result<GcgtCommonNeighborResult> CommonNeighbors(NodeId u, NodeId v,
                                                   const CancelToken& cancel);

  /// Jaccard similarity of {u, v} (one warp).
  Result<GcgtJaccardResult> Jaccard(NodeId u, NodeId v,
                                    const CancelToken& cancel);

  /// Top-k distance-2 candidates of `source` by Jaccard score (candidate
  /// kernel: warp per neighbor; scoring kernel: warp per candidate).
  /// `real_mask` (node-id-indexed, may be empty = all eligible) restricts
  /// candidates — the session passes its real-node mask so VNC virtual
  /// nodes are never recommended.
  Result<GcgtSimilarityTopKResult> SimilarityTopK(
      NodeId source, uint32_t k, std::span<const uint8_t> real_mask,
      const CancelToken& cancel);

  /// k-core membership by synchronous round-based peeling; degrees are
  /// initialized from the encoded degree headers (never a full decode).
  Result<GcgtKCoreResult> KCore(uint32_t k, const CancelToken& cancel);

 private:
  enum class Mode { kCgr, kCsr };

  NodeId NumNodes() const;
  /// Per-query prologue: cancel/fault checks, device-footprint admission
  /// (`extra_bytes` = query-specific arrays).
  Status BeginQuery(const CancelToken& cancel, uint64_t extra_bytes,
                    uint64_t* device_bytes);
  /// Converts the task's accumulated codewords into lanes-wide DecodeStep
  /// slots and its ops into intersect_txns, then closes the warp.
  simt::WarpStats FinishWarp(CursorCharges* ch);
  /// Materializes N(x), charging a full pass over the compressed stream.
  /// Returns a span into `backing` (CGR) or the CSR columns.
  std::span<const NodeId> MaterializeList(NodeId x, CursorCharges* ch,
                                          std::vector<NodeId>* backing);
  /// One intersection side over N(x), charged per the engine mode.
  /// `backing`/`scratch_base` hold the decoded copy in the full-decode
  /// path; each concurrent side needs its own.
  RunCursor SideCursor(NodeId x, CursorCharges* ch,
                       std::vector<NodeId>* backing, uint64_t scratch_base);
  /// Degree of x, charged as an encoded-header read (2 codewords + the
  /// offsets gather) in CGR mode, an offsets read in CSR mode.
  uint64_t ChargedDegree(NodeId x, CursorCharges* ch);

  Mode mode_;
  const CgrGraph* cgr_ = nullptr;  // kCgr only
  const Graph* csr_ = nullptr;     // kCsr only
  GcgtOptions options_;
  bool full_decode_ = false;
  bool gunrock_ = false;
  double gunrock_factor_ = 1.0;
  simt::WarpContext ctx_;
  simt::KernelTimeline timeline_;
  // Per-side decode scratch (full-decode baseline and MaterializeList).
  std::vector<NodeId> scratch_a_;
  std::vector<NodeId> scratch_b_;
  std::vector<NodeId> list_scratch_;
};

// ---- Serial CPU oracles (backend kCpuReference). They run on the prepared
// uncompressed graph, return zero metrics, and share the exact result
// semantics (including the single-division Jaccard formula and the top-k
// comparator), so every backend's results are bit-identical.

GcgtTriangleResult CpuTriangleCount(const Graph& g);
GcgtCommonNeighborResult CpuCommonNeighbors(const Graph& g, NodeId u,
                                            NodeId v);
GcgtJaccardResult CpuJaccard(const Graph& g, NodeId u, NodeId v);
GcgtSimilarityTopKResult CpuSimilarityTopK(const Graph& g, NodeId source,
                                           uint32_t k,
                                           std::span<const uint8_t> real_mask);
GcgtKCoreResult CpuKCore(const Graph& g, uint32_t k);

}  // namespace gcgt::intersect

#endif  // GCGT_INTERSECT_INTERSECT_ENGINE_H_
