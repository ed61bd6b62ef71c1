#include "service/prepared_graph.h"

#include <utility>

namespace gcgt {

Result<std::shared_ptr<const PreparedGraph>> PreparedGraph::Build(
    const Graph& graph, const PrepareOptions& options, uint64_t fingerprint) {
  Result<GcgtSession> master = GcgtSession::Prepare(graph, options, fingerprint);
  if (!master.ok()) return master.status();
  // Force the lazy decode NOW, while the artifact is still single-threaded:
  // worker clones then share one uncompressed view instead of each decoding
  // their own, and concurrent NewWorkerSession() calls stay read-only.
  master.value().graph();
  return std::shared_ptr<const PreparedGraph>(
      new PreparedGraph(std::move(master).value()));
}

Result<std::shared_ptr<const PreparedGraph>> PreparedGraph::BuildFromContainer(
    ooc::CgrContainer container, const GcgtOptions& options,
    uint64_t fingerprint) {
  if (Status s = options.Validate(); !s.ok()) return s;
  auto owned =
      std::make_unique<const ooc::CgrContainer>(std::move(container));
  // Zero-copy for mmap'd opens: the graph borrows the mapping, which `owned`
  // keeps alive for the artifact's whole lifetime. Buffered opens copy.
  Result<CgrGraph> cgr = owned->ToCgrGraphView();
  if (!cgr.ok()) return cgr.status();
  GcgtSession master = GcgtSession::Adopt(
      std::make_unique<const CgrGraph>(std::move(cgr).value()), options,
      fingerprint);
  // Same eager-decode rule as Build(): worker clones must never race on the
  // master's lazy uncompressed view.
  master.graph();
  auto prepared =
      std::shared_ptr<PreparedGraph>(new PreparedGraph(std::move(master)));
  prepared->container_ = std::move(owned);
  return std::shared_ptr<const PreparedGraph>(std::move(prepared));
}

}  // namespace gcgt
