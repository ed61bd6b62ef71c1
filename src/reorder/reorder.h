// Node reordering methods (paper §7.3 / Appendix D, Fig. 13). Reordering
// changes the locality of neighbor ids and therefore the CGR compression
// rate; it never changes the graph's structure.
//
// Gorder and LLP are faithful-but-simplified reimplementations (see
// DESIGN.md): Gorder keeps the sliding-window greedy with the neighbor score
// (the sibling score is approximated through in-neighbor bumps); LLP runs
// multi-resolution label propagation layers and stable-sorts by cluster.
#ifndef GCGT_REORDER_REORDER_H_
#define GCGT_REORDER_REORDER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace gcgt {

enum class ReorderMethod {
  kOriginal = 0,
  kDegSort,   ///< descending in-degree ("frequency of being an out-neighbor")
  kBfsOrder,  ///< BFS visit order from high-degree roots [Apostolico-Drovandi]
  kGorder,    ///< sliding-window locality greedy [Wei et al., SIGMOD'16]
  kLlp,       ///< layered label propagation [Boldi et al., WWW'11]
};

inline const char* ReorderMethodName(ReorderMethod m) {
  switch (m) {
    case ReorderMethod::kOriginal: return "Original";
    case ReorderMethod::kDegSort: return "DegSort";
    case ReorderMethod::kBfsOrder: return "BFSOrder";
    case ReorderMethod::kGorder: return "Gorder";
    case ReorderMethod::kLlp: return "LLP";
  }
  return "?";
}

/// Computes the permutation: perm[old_id] = new_id.
std::vector<NodeId> ComputeOrdering(const Graph& g, ReorderMethod method,
                                    uint64_t seed = 42);

/// Checks that perm is a bijection on [0, n).
Status ValidatePermutation(const std::vector<NodeId>& perm, NodeId n);

/// inverse[new_id] = old_id.
std::vector<NodeId> InvertPermutation(const std::vector<NodeId>& perm);

/// Convenience: relabels g with the method's ordering.
Graph ApplyReordering(const Graph& g, ReorderMethod method, uint64_t seed = 42);

namespace internal {

/// One LLP label-propagation layer, the plain serial loop (exposed for
/// tests): from singleton labels, up to `iterations` sweeps, each starting
/// with one rng.Shuffle of the node visit order; stops after the first sweep
/// that relabels no node.
std::vector<NodeId> PropagateLabels(const Graph& g, const Graph& reverse,
                                    double gamma, int iterations, Rng& rng);

/// The LLP permutation, its layers run concurrently on `pool` (see
/// reorder.cc). Equal to running the layers one after another on one
/// Rng(seed), for every pool size; ComputeOrdering passes SharedThreadPool().
std::vector<NodeId> LlpOrder(const Graph& g, const Graph& reverse,
                             uint64_t seed, ThreadPool& pool);

}  // namespace internal

}  // namespace gcgt

#endif  // GCGT_REORDER_REORDER_H_
