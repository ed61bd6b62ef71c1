#include "reorder/reorder.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <numeric>
#include <queue>

#include "util/random.h"
#include "util/thread_pool.h"

namespace gcgt {
namespace {

std::vector<NodeId> IdentityOrder(NodeId n) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  return perm;
}

std::vector<EdgeId> InDegrees(const Graph& g) {
  std::vector<EdgeId> in_deg(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) ++in_deg[v];
  }
  return in_deg;
}

// Order nodes by descending in-degree (ties by original id, so the result is
// deterministic).
std::vector<NodeId> DegSortOrder(const Graph& g) {
  std::vector<EdgeId> in_deg = InDegrees(g);
  std::vector<NodeId> by_rank(g.num_nodes());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::stable_sort(by_rank.begin(), by_rank.end(), [&](NodeId a, NodeId b) {
    return in_deg[a] > in_deg[b];
  });
  std::vector<NodeId> perm(g.num_nodes());
  for (NodeId rank = 0; rank < g.num_nodes(); ++rank) perm[by_rank[rank]] = rank;
  return perm;
}

// BFS visit order over the undirected view, starting components at their
// highest-degree unvisited node.
std::vector<NodeId> BfsOrder(const Graph& g, const Graph& reverse) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> roots(n);
  std::iota(roots.begin(), roots.end(), 0);
  std::stable_sort(roots.begin(), roots.end(), [&](NodeId a, NodeId b) {
    return g.out_degree(a) > g.out_degree(b);
  });

  std::vector<NodeId> perm(n, kInvalidNode);
  NodeId next_id = 0;
  std::deque<NodeId> queue;
  for (NodeId root : roots) {
    if (perm[root] != kInvalidNode) continue;
    perm[root] = next_id++;
    queue.push_back(root);
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop_front();
      auto visit = [&](NodeId v) {
        if (perm[v] == kInvalidNode) {
          perm[v] = next_id++;
          queue.push_back(v);
        }
      };
      for (NodeId v : g.Neighbors(u)) visit(v);
      for (NodeId v : reverse.Neighbors(u)) visit(v);
    }
  }
  return perm;
}

// Gorder-lite: greedy sequence; a candidate's priority is the number of its
// (undirected) neighbors placed within the last `window` positions. Lazy
// max-heap with stale entries; priorities are decremented when a neighbor
// leaves the window.
std::vector<NodeId> GorderOrder(const Graph& g, const Graph& reverse,
                                int window) {
  const NodeId n = g.num_nodes();
  std::vector<int64_t> priority(n, 0);
  std::vector<uint8_t> placed(n, 0);
  std::vector<NodeId> sequence;
  sequence.reserve(n);

  using Entry = std::pair<int64_t, NodeId>;  // (priority snapshot, node)
  std::priority_queue<Entry> heap;
  // Seed with the globally highest-degree node; the heap lazily self-heals.
  NodeId seed_node = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (g.out_degree(u) > g.out_degree(seed_node)) seed_node = u;
    heap.push({0, u});
  }
  priority[seed_node] = 1;
  heap.push({1, seed_node});

  auto bump = [&](NodeId v, int64_t delta) {
    if (placed[v]) return;
    priority[v] += delta;
    if (delta > 0) heap.push({priority[v], v});
  };

  while (sequence.size() < n) {
    NodeId chosen = kInvalidNode;
    while (!heap.empty()) {
      auto [p, v] = heap.top();
      heap.pop();
      if (placed[v] || p != priority[v]) continue;  // stale entry
      chosen = v;
      break;
    }
    if (chosen == kInvalidNode) {
      // Heap exhausted by staleness; pick the first unplaced node.
      for (NodeId u = 0; u < n; ++u) {
        if (!placed[u]) {
          chosen = u;
          break;
        }
      }
    }
    placed[chosen] = 1;
    sequence.push_back(chosen);
    for (NodeId v : g.Neighbors(chosen)) bump(v, +1);
    for (NodeId v : reverse.Neighbors(chosen)) bump(v, +1);
    // Slide the window: the node leaving it stops contributing.
    if (sequence.size() > static_cast<size_t>(window)) {
      NodeId old = sequence[sequence.size() - window - 1];
      for (NodeId v : g.Neighbors(old)) bump(v, -1);
      for (NodeId v : reverse.Neighbors(old)) bump(v, -1);
    }
  }

  std::vector<NodeId> perm(n);
  for (NodeId rank = 0; rank < n; ++rank) perm[sequence[rank]] = rank;
  return perm;
}

// One label-propagation layer at resolution gamma: nodes adopt the label
// maximizing (#neighbors with label) - gamma * label_volume. Neighbor-label
// tallying uses a counter array that is zeroed through the touched list, so
// each update is O(degree).
//
// Schedule: LLP's layers differ only in gamma and in where they start in the
// one rng stream, so they run concurrently on the thread pool, one task per
// layer, each the plain serial loop below. Layer k starts where k layers of
// kLlpSweeps shuffles leave the stream; its task reaches that state by
// replaying those shuffles. A layer that converges early shuffles fewer
// times, so every later layer is restarted from the true stream and rerun.
// The permutation is therefore that of running the layers one after another
// on one Rng, for every pool size.

constexpr double kLlpGammas[] = {1.0, 1.0 / 4, 1.0 / 16, 0.0};
constexpr int kLlpLayers = std::size(kLlpGammas);
constexpr int kLlpSweeps = 4;  // per layer; a layer stops at a no-op sweep

/// One layer's scratch. LlpOrder allocates it on the calling thread, so a
/// layer running on a pool thread allocates nothing (glibc would keep that
/// memory in the thread's own arena).
struct LayerScratch {
  LayerScratch(NodeId n, size_t max_degree)
      : label(n), volume(n), order(n), count(n) {
    touched.reserve(max_degree);
  }
  std::vector<NodeId> label;    // the layer's result
  std::vector<NodeId> volume;   // nodes per label
  std::vector<NodeId> order;    // visit order
  std::vector<NodeId> count;    // neighbors per label; zero between nodes
  std::vector<NodeId> touched;  // labels with a nonzero count
  int sweeps = 0;  // sweeps run, each one rng.Shuffle
  Rng rng{0};      // the stream after this layer
};

/// Runs one layer into s.label from singleton labels; leaves the stream
/// after the layer in `rng` and the sweep count in s.sweeps.
void PropagateLayer(const Graph& g, const Graph& reverse, double gamma,
                    int iterations, Rng& rng, LayerScratch& s) {
  std::iota(s.label.begin(), s.label.end(), 0);
  std::fill(s.volume.begin(), s.volume.end(), 1);
  std::iota(s.order.begin(), s.order.end(), 0);
  auto tally = [&](NodeId v) {
    if (s.count[s.label[v]]++ == 0) s.touched.push_back(s.label[v]);
  };
  s.sweeps = 0;
  while (s.sweeps < iterations) {
    rng.Shuffle(s.order);
    ++s.sweeps;
    bool changed = false;
    for (NodeId u : s.order) {
      s.touched.clear();
      for (NodeId v : g.Neighbors(u)) tally(v);
      for (NodeId v : reverse.Neighbors(u)) tally(v);
      NodeId best = s.label[u];
      double best_score = -1e300;
      for (NodeId l : s.touched) {
        double vol =
            static_cast<double>(s.volume[l]) - (l == s.label[u] ? 1 : 0);
        double score = static_cast<double>(s.count[l]) - gamma * vol;
        s.count[l] = 0;
        if (score > best_score) {
          best_score = score;
          best = l;
        }
      }
      if (best != s.label[u]) {
        --s.volume[s.label[u]];
        ++s.volume[best];
        s.label[u] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }
}

}  // namespace

namespace internal {

std::vector<NodeId> PropagateLabels(const Graph& g, const Graph& reverse,
                                    double gamma, int iterations, Rng& rng) {
  LayerScratch s(g.num_nodes(), 0);
  PropagateLayer(g, reverse, gamma, iterations, rng, s);
  return std::move(s.label);
}

std::vector<NodeId> LlpOrder(const Graph& g, const Graph& reverse,
                             uint64_t seed, ThreadPool& pool) {
  const NodeId n = g.num_nodes();
  size_t max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    max_degree = std::max<size_t>(max_degree,
                                  g.out_degree(u) + reverse.out_degree(u));
  }
  std::vector<LayerScratch> layers;
  layers.reserve(kLlpLayers);
  for (int k = 0; k < kLlpLayers; ++k) layers.emplace_back(n, max_degree);

  // Layers [first, kLlpLayers) run from `start`, the true stream before
  // layer `first`, as if every layer before them ran all its sweeps.
  Rng start(seed);
  for (int first = 0; first < kLlpLayers;) {
    auto run_layers = [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        LayerScratch& s = layers[first + i];
        s.rng = start;
        for (size_t j = 0; j < i * kLlpSweeps; ++j) s.rng.Shuffle(s.order);
        PropagateLayer(g, reverse, kLlpGammas[first + i], kLlpSweeps, s.rng,
                       s);
      }
    };
    pool.ParallelFor(kLlpLayers - first, 1, run_layers);
    // Layer `first` is exact; each later one is while its predecessor ran
    // all its sweeps.
    int last = first;
    while (last + 1 < kLlpLayers && layers[last].sweeps == kLlpSweeps) ++last;
    start = layers[last].rng;
    first = last + 1;
  }

  // order[rank] = node; layers refine the ordering fine -> coarse, the
  // coarsest layer applied last forms the primary grouping.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<NodeId> label_rank(n);
  for (const LayerScratch& layer : layers) {
    const std::vector<NodeId>& label = layer.label;
    // Renumber cluster labels by first occurrence in the current order (the
    // LLP trick): sorting then groups each cluster without scrambling the
    // macro order established by earlier layers.
    std::fill(label_rank.begin(), label_rank.end(), kInvalidNode);
    NodeId next_rank = 0;
    for (NodeId node : order) {
      if (label_rank[label[node]] == kInvalidNode) {
        label_rank[label[node]] = next_rank++;
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return label_rank[label[a]] < label_rank[label[b]];
    });
  }
  std::vector<NodeId> perm(n);
  for (NodeId rank = 0; rank < n; ++rank) perm[order[rank]] = rank;
  return perm;
}

}  // namespace internal

std::vector<NodeId> ComputeOrdering(const Graph& g, ReorderMethod method,
                                    uint64_t seed) {
  if (g.num_nodes() == 0) return {};
  switch (method) {
    case ReorderMethod::kOriginal:
      return IdentityOrder(g.num_nodes());
    case ReorderMethod::kDegSort:
      return DegSortOrder(g);
    case ReorderMethod::kBfsOrder: {
      Graph reverse = g.Reversed();
      return BfsOrder(g, reverse);
    }
    case ReorderMethod::kGorder: {
      Graph reverse = g.Reversed();
      return GorderOrder(g, reverse, /*window=*/5);
    }
    case ReorderMethod::kLlp: {
      Graph reverse = g.Reversed();
      return internal::LlpOrder(g, reverse, seed, SharedThreadPool());
    }
  }
  return IdentityOrder(g.num_nodes());
}

Status ValidatePermutation(const std::vector<NodeId>& perm, NodeId n) {
  if (perm.size() != n) return Status::InvalidArgument("permutation size");
  std::vector<uint8_t> seen(n, 0);
  for (NodeId p : perm) {
    if (p >= n) return Status::InvalidArgument("permutation value out of range");
    if (seen[p]) return Status::InvalidArgument("permutation value repeated");
    seen[p] = 1;
  }
  return Status::OK();
}

std::vector<NodeId> InvertPermutation(const std::vector<NodeId>& perm) {
  std::vector<NodeId> inv(perm.size());
  for (NodeId old_id = 0; old_id < perm.size(); ++old_id) {
    inv[perm[old_id]] = old_id;
  }
  return inv;
}

Graph ApplyReordering(const Graph& g, ReorderMethod method, uint64_t seed) {
  return g.Relabeled(ComputeOrdering(g, method, seed));
}

}  // namespace gcgt
