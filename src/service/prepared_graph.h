// PreparedGraph: one immutable prepared artifact in the service registry.
//
// Holds the result of exactly ONE VNC -> reorder -> CGR-encode pipeline run
// (a master GcgtSession) and hands out cheap per-worker session clones that
// share the encode by reference: N workers = N engines (per-session warp
// scratch) over one compressed graph, the EMOGI-style "keep one prepared
// artifact hot, stream many traversals against it" shape.
//
// Thread-safety: after Build() returns, a PreparedGraph is immutable — the
// uncompressed view the baseline backends need is decoded eagerly at build
// time precisely so concurrent NewWorkerSession() calls never race on the
// master session's lazy caches. The master session itself is never Run() by
// the service (it is the clone source, not a serving session).
#ifndef GCGT_SERVICE_PREPARED_GRAPH_H_
#define GCGT_SERVICE_PREPARED_GRAPH_H_

#include <memory>

#include "api/gcgt_session.h"
#include "graph/graph.h"
#include "ooc/cgr_container.h"
#include "util/status.h"

namespace gcgt {

class PreparedGraph {
 public:
  /// Runs the prepare pipeline once (one CgrGraph::Encode) and freezes the
  /// artifact. Shared ownership: the registry and every worker that cloned a
  /// session from the entry keep it alive. `fingerprint` is the caller's
  /// already-computed ComputeArtifactFingerprint(graph, options) — the
  /// registry hashes before encoding to dedup, so Build never re-hashes.
  static Result<std::shared_ptr<const PreparedGraph>> Build(
      const Graph& graph, const PrepareOptions& options, uint64_t fingerprint);

  /// Freezes an artifact materialized from an out-of-core container instead
  /// of running the prepare pipeline: the container's encoded bits become
  /// the master session's CgrGraph with zero re-encodes. The artifact takes
  /// ownership of the container: for mmap'd opens the graph is a zero-copy
  /// view into the mapping (CgrGraph::AssembleView), so the payload is never
  /// duplicated in RAM; buffered opens fall back to a copy.
  /// `fingerprint` is the registry key the caller derived from the container
  /// header + serving options (CombineOptionsFingerprint); it is trusted
  /// verbatim so PreparedGraph::fingerprint() matches the registration key.
  /// InvalidArgument when `options` fails GcgtOptions::Validate.
  static Result<std::shared_ptr<const PreparedGraph>> BuildFromContainer(
      ooc::CgrContainer container, const GcgtOptions& options,
      uint64_t fingerprint);

  /// Identity: ComputeArtifactFingerprint(input graph, options).
  uint64_t fingerprint() const { return master_.artifact_fingerprint(); }

  /// New single-caller session over the shared artifact. Constructs one
  /// engine and nothing else (the encode, permutation and decoded
  /// uncompressed view are shared). The engine is serial by default: the
  /// service scales across workers, and serial engines neither contend on
  /// the shared host pool nor oversubscribe cores. Results are bit-identical
  /// for every `num_threads`.
  GcgtSession NewWorkerSession(int num_threads = 1) const {
    return master_.AttachClone(num_threads);
  }

  const CgrGraph& cgr() const { return master_.cgr(); }
  NodeId num_query_nodes() const { return master_.num_query_nodes(); }
  const PrepareOptions& options() const { return master_.options(); }
  double vnc_reduction() const { return master_.vnc_reduction(); }

 private:
  explicit PreparedGraph(GcgtSession master) : master_(std::move(master)) {}

  // Backing storage for container-built artifacts whose CgrGraph is a view
  // into the mmap'd payload. Declared before master_ so the mapping is
  // destroyed after every borrower of its bytes.
  std::unique_ptr<const ooc::CgrContainer> container_;
  GcgtSession master_;
};

}  // namespace gcgt

#endif  // GCGT_SERVICE_PREPARED_GRAPH_H_
