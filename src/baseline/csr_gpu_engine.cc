#include "baseline/csr_gpu_engine.h"

#include <algorithm>
#include <cassert>

#include "core/bc_filters.h"
#include "core/cc_filter.h"
#include "core/memory_layout.h"
#include "simt/machine.h"
#include "simt/warp.h"

namespace gcgt {
namespace {

using simt::WarpContext;
using simt::WarpStats;

/// One simulated CSR kernel's reusable state: the warp context (TakeStats
/// re-arms it between warps, so its LineSet is built once per kernel, not
/// once per warp) plus the per-slot scratch vectors the charging helpers
/// fill. Keeping these out of the inner loops removes every steady-state
/// allocation from the CSR hot path, mirroring the GCGT WarpSim.
struct CsrKernelState {
  CsrKernelState(int lanes, int line_bytes, NodeId num_nodes)
      : ctx(lanes, line_bytes) {
    const uint64_t line = static_cast<uint64_t>(line_bytes);
    // Labels are a dense 4B array; CSR offsets a dense 4B array read in
    // 8-byte (offset + next offset) windows.
    label_filter.Configure(line / 4, num_nodes);
    offset_filter.Configure(line / 4, static_cast<size_t>(num_nodes) + 1);
  }

  /// Starts a new warp: the region filters reset with the LineSet.
  void NextWarp() {
    label_filter.NextWarp();
    offset_filter.NextWarp();
  }

  WarpContext ctx;
  std::vector<uint64_t> addrs;
  std::vector<uint64_t> col_addrs;
  std::vector<std::pair<NodeId, NodeId>> uv;
  std::vector<size_t> small;
  // Per-warp exact line filters for the dense label / offset regions (see
  // simt::DenseRegionFilter): dedup at an array lookup per access.
  simt::DenseRegionFilter label_filter;
  simt::DenseRegionFilter offset_filter;
};

/// Visited-check + contraction charging shared by all CSR kernels; mirrors
/// the GCGT AppendStep so both engines pay identical filtering costs.
/// `uv_at(i)` yields the i-th (u, v) pair of the slot; templating the
/// accessor lets the strip-mined tier charge straight off the adjacency span
/// without materializing pair vectors.
template <typename Filter, typename UvFn>
void AppendChargeImpl(CsrKernelState& s, Filter& filter, size_t n,
                      UvFn uv_at, std::vector<NodeId>* out) {
  if (n == 0) return;
  WarpContext& ctx = s.ctx;
  ctx.AppendStepOp(static_cast<int>(n));
  // Visited/label gather: label words are 4-byte aligned in a dense region,
  // so the per-warp epoch filter deduplicates label lines exactly
  // (bit-identical to LineSet insertion) at an array lookup per edge.
  uint64_t novel = 0;
  for (size_t i = 0; i < n; ++i) novel += s.label_filter.Touch(uv_at(i).second);
  if (novel > 0) ctx.ChargeTransactions(novel);
  ctx.SharedOp();
  ctx.Atomic(1);
  size_t tail = out->size();
  for (size_t i = 0; i < n; ++i) {
    const auto [u, v] = uv_at(i);
    if (filter.Filter(u, v)) {
      out->push_back(filter.AppendTarget(u, v));
    }
  }
  if (int extra = filter.TakeAtomics(); extra > 0) ctx.Atomic(extra);
  if (out->size() > tail) {
    // Label-update lines are a subset of this slot's gather (charged above),
    // so only the queue append can touch cold lines.
    ctx.MemAccessRange(kQueueBase + 4ull * tail, 4ull * (out->size() - tail));
  }
}

template <typename Filter>
void AppendCharge(CsrKernelState& s, Filter& filter,
                  std::vector<NodeId>* out) {
  AppendChargeImpl(
      s, filter, s.uv.size(), [&s](size_t i) { return s.uv[i]; }, out);
}

/// One warp of the Merrill-style gather kernel: big adjacency lists are
/// strip-mined by the whole warp (coalesced column reads); the small
/// leftovers are packed through a scan into full windows.
template <typename Filter>
void CsrWarp(const Graph& g, std::span<const NodeId> chunk, Filter& filter,
             std::vector<NodeId>* out, int lanes, CsrKernelState& s) {
  WarpContext& ctx = s.ctx;
  ctx.Step(static_cast<int>(chunk.size()));
  ctx.MemAccessRange(kQueueBase, 4ull * chunk.size());
  // Each lane reads offset + next offset: elements u and u + 1 of the dense
  // 4B offsets array (the 8-byte window may straddle a line).
  uint64_t novel = 0;
  for (NodeId u : chunk) novel += s.offset_filter.TouchRange(u, u + 1ull);
  if (novel > 0) ctx.ChargeTransactions(novel);

  // Tier 1: warp-wide strip mining of large lists.
  s.small.clear();
  for (size_t i = 0; i < chunk.size(); ++i) {
    NodeId u = chunk[i];
    EdgeId deg = g.out_degree(u);
    if (deg < static_cast<EdgeId>(lanes)) {
      s.small.push_back(i);
      continue;
    }
    auto nbrs = g.Neighbors(u);
    EdgeId off = g.offsets()[u];
    for (EdgeId done = 0; done < deg; done += lanes) {
      EdgeId cnt = std::min<EdgeId>(lanes, deg - done);
      ctx.MemAccessRange(kCsrColBase + 4ull * (off + done), 4ull * cnt);
      AppendChargeImpl(
          s, filter, static_cast<size_t>(cnt),
          [u, base = nbrs.data() + done](size_t k) {
            return std::pair<NodeId, NodeId>(u, base[k]);
          },
          out);
    }
  }
  // Tier 2: fine-grained scan-based gather over the small lists.
  if (!s.small.empty()) {
    ctx.SharedOp();  // exclusiveScan of the small degrees
    s.uv.clear();
    s.col_addrs.clear();
    auto flush = [&]() {
      if (s.uv.empty()) return;
      ctx.MemAccess(s.col_addrs, 4);
      AppendCharge(s, filter, out);
      s.uv.clear();
      s.col_addrs.clear();
    };
    for (size_t i : s.small) {
      NodeId u = chunk[i];
      auto nbrs = g.Neighbors(u);
      EdgeId off = g.offsets()[u];
      for (size_t k = 0; k < nbrs.size(); ++k) {
        s.uv.emplace_back(u, nbrs[k]);
        s.col_addrs.push_back(kCsrColBase + 4ull * (off + k));
        if (s.uv.size() == static_cast<size_t>(lanes)) flush();
      }
    }
    flush();
  }
}

template <typename Filter>
void ProcessFrontierCsrT(const Graph& g, std::span<const NodeId> frontier,
                         Filter& filter, std::vector<NodeId>* out,
                         std::vector<WarpStats>* warp_stats,
                         const CsrEngineOptions& o, CsrKernelState& state) {
  for (size_t off = 0; off < frontier.size(); off += o.lanes) {
    size_t n = std::min<size_t>(o.lanes, frontier.size() - off);
    state.NextWarp();
    CsrWarp(g, frontier.subspan(off, n), filter, out, o.lanes, state);
    warp_stats->push_back(state.ctx.TakeStats());
  }
}

/// Statically dispatches the kernel for the well-known filters (the decide
/// sequence runs once per expanded edge; see FrontierFilter::Kind). `state`
/// is caller-owned and reused across levels: its filters reset per warp via
/// epoch bumps, so hoisting it keeps sparse frontiers O(frontier) instead of
/// paying the O(num_nodes) filter zero-fill on every level.
void ProcessFrontierCsr(const Graph& g, std::span<const NodeId> frontier,
                        FrontierFilter& filter, std::vector<NodeId>* out,
                        std::vector<WarpStats>* warp_stats,
                        const CsrEngineOptions& o, CsrKernelState& state) {
  switch (filter.kind()) {
    case FrontierFilter::Kind::kBfs:
      assert(dynamic_cast<BfsFilter*>(&filter) != nullptr);
      ProcessFrontierCsrT(g, frontier, static_cast<BfsFilter&>(filter), out,
                          warp_stats, o, state);
      break;
    case FrontierFilter::Kind::kBcForward:
      assert(dynamic_cast<BcForwardFilter*>(&filter) != nullptr);
      ProcessFrontierCsrT(g, frontier, static_cast<BcForwardFilter&>(filter),
                          out, warp_stats, o, state);
      break;
    case FrontierFilter::Kind::kBcBackward:
      assert(dynamic_cast<BcBackwardFilter*>(&filter) != nullptr);
      ProcessFrontierCsrT(g, frontier, static_cast<BcBackwardFilter&>(filter),
                          out, warp_stats, o, state);
      break;
    default:
      ProcessFrontierCsrT(g, frontier, filter, out, warp_stats, o, state);
      break;
  }
}

/// Gunrock's extra per-level filter/compaction kernel over the new frontier.
std::vector<WarpStats> GunrockFilterKernel(size_t frontier_size,
                                           const CsrEngineOptions& o) {
  std::vector<WarpStats> warps;
  WarpContext ctx(o.lanes, o.cost.cache_line_bytes);
  for (size_t off = 0; off < frontier_size; off += o.lanes) {
    size_t n = std::min<size_t>(o.lanes, frontier_size - off);
    ctx.Step(static_cast<int>(n));
    ctx.MemAccessRange(kQueueBase + 4ull * off, 4ull * n);   // read
    ctx.SharedOp();
    ctx.MemAccessRange(kQueueBase + 4ull * off, 4ull * n);   // compacted write
    warps.push_back(ctx.TakeStats());
  }
  if (warps.empty()) warps.push_back(WarpStats{});
  return warps;
}

}  // namespace

uint64_t CsrBytes32(const Graph& g) {
  return 4ull * (g.num_nodes() + 1) + 4ull * g.num_edges();
}

Result<GcgtBfsResult> CsrBfs(const Graph& g, NodeId source,
                             const CsrEngineOptions& options) {
  GCGT_RETURN_NOT_OK(ValidateWarpGeometry(options.lanes, options.cost));
  if (source >= g.num_nodes()) {
    return Status::InvalidArgument("BFS source out of range");
  }
  const uint64_t v = g.num_nodes();
  uint64_t device_bytes = CsrBytes32(g) + 4 * v /* labels */ + 8 * v /* queues */;
  if (options.gunrock) {
    device_bytes = static_cast<uint64_t>(device_bytes *
                                         options.gunrock_memory_factor);
  }
  if (device_bytes > options.device.memory_bytes) {
    return Status::OutOfMemory("CSR BFS footprint exceeds device memory");
  }

  BfsFilter filter(g.num_nodes());
  filter.SetSource(source);
  simt::KernelTimeline timeline(options.cost);

  std::vector<NodeId> frontier{source};
  std::vector<NodeId> next;
  std::vector<WarpStats> warps;
  CsrKernelState state(options.lanes, options.cost.cache_line_bytes,
                       g.num_nodes());
  while (!frontier.empty()) {
    next.clear();
    warps.clear();
    ProcessFrontierCsr(g, frontier, filter, &next, &warps, options, state);
    timeline.AddKernel(warps);
    if (options.gunrock) {
      timeline.AddKernel(GunrockFilterKernel(next.size(), options));
    }
    frontier.swap(next);
  }

  GcgtBfsResult result;
  result.depth = filter.TakeDepth();
  result.metrics.model_ms = timeline.TotalMs();
  result.metrics.kernels = timeline.num_kernels();
  result.metrics.device_bytes = device_bytes;
  result.metrics.warp = timeline.aggregate();
  return result;
}

Result<GcgtCcResult> CsrCc(const Graph& g, const CsrEngineOptions& options) {
  GCGT_RETURN_NOT_OK(ValidateWarpGeometry(options.lanes, options.cost));
  const uint64_t v = g.num_nodes();
  const uint64_t e = g.num_edges();
  // Soman et al. is edge-centric: COO edge list + parent array.
  uint64_t device_bytes = 8 * e + 4 * v;
  if (options.gunrock) {
    // Gunrock implements CC over its frontier framework on CSR.
    device_bytes = static_cast<uint64_t>(
        (CsrBytes32(g) + 4 * v + 8 * v) * options.gunrock_memory_factor);
  }
  if (device_bytes > options.device.memory_bytes) {
    return Status::OutOfMemory("CSR CC footprint exceeds device memory");
  }

  EdgeList edges = g.ToEdges();
  CcFilter filter(g.num_nodes());
  simt::KernelTimeline timeline(options.cost);
  std::vector<WarpStats> warps;
  std::vector<NodeId> scratch;
  WarpContext ctx(options.lanes, options.cost.cache_line_bytes);
  simt::DenseRegionFilter labels;  // parent array: dense 4B words
  labels.Configure(static_cast<uint64_t>(options.cost.cache_line_bytes) / 4,
                   g.num_nodes());
  int rounds = 0;
  for (;;) {
    ++rounds;
    bool hooked = false;
    warps.clear();
    for (size_t off = 0; off < edges.size(); off += options.lanes) {
      size_t n = std::min<size_t>(options.lanes, edges.size() - off);
      labels.NextWarp();
      ctx.Step(static_cast<int>(n));
      ctx.MemAccessRange(kCsrColBase + 4ull * off, 4ull * n);          // u array
      ctx.MemAccessRange(kCsrColBase + (4ull << 30) + 4ull * off, 4ull * n);
      uint64_t novel = 0;
      uint64_t max_depth = 1;
      for (size_t i = off; i < off + n; ++i) {
        auto [eu, ev] = edges[i];
        uint64_t depth = 0;
        for (NodeId r = eu; filter.parent()[r] != r; r = filter.parent()[r]) {
          novel += labels.Touch(r);
          ++depth;
        }
        for (NodeId r = ev; filter.parent()[r] != r; r = filter.parent()[r]) {
          novel += labels.Touch(r);
          ++depth;
        }
        max_depth = std::max(max_depth, depth);
        scratch.clear();
        if (filter.Filter(eu, ev)) hooked = true;
      }
      if (int a = filter.TakeAtomics(); a > 0) ctx.Atomic(a);
      for (uint64_t d = 1; d < max_depth; ++d) ctx.Step(static_cast<int>(n));
      if (novel > 0) ctx.ChargeTransactions(novel);
      warps.push_back(ctx.TakeStats());
    }
    timeline.AddKernel(warps);
    filter.CommitRound();
    timeline.AddKernel(
        filter.PointerJump(options.lanes, options.cost.cache_line_bytes));
    if (!hooked) break;
  }

  GcgtCcResult result;
  result.component = filter.parent();
  result.rounds = rounds;
  result.metrics.model_ms = timeline.TotalMs();
  result.metrics.kernels = timeline.num_kernels();
  result.metrics.device_bytes = device_bytes;
  result.metrics.warp = timeline.aggregate();
  return result;
}

Result<GcgtBcResult> CsrBc(const Graph& g, NodeId source,
                           const CsrEngineOptions& options) {
  GCGT_RETURN_NOT_OK(ValidateWarpGeometry(options.lanes, options.cost));
  if (source >= g.num_nodes()) {
    return Status::InvalidArgument("BC source out of range");
  }
  const uint64_t v = g.num_nodes();
  // Two-pass BC (successors recomputed from depths): CSR + per-node arrays.
  uint64_t device_bytes = CsrBytes32(g) + 4 * v + 8 * v + 8 * v + 8 * v;
  if (options.gunrock) {
    device_bytes = static_cast<uint64_t>(device_bytes *
                                         options.gunrock_memory_factor);
  }
  if (device_bytes > options.device.memory_bytes) {
    return Status::OutOfMemory("CSR BC footprint exceeds device memory");
  }

  GcgtBcResult result;
  result.depth.assign(v, kBcUnvisited);
  result.sigma.assign(v, 0.0);
  result.dependency.assign(v, 0.0);
  result.depth[source] = 0;
  result.sigma[source] = 1.0;

  simt::KernelTimeline timeline(options.cost);
  CsrKernelState state(options.lanes, options.cost.cache_line_bytes,
                       g.num_nodes());
  std::vector<std::vector<NodeId>> levels;
  levels.push_back({source});
  {
    BcForwardFilter filter(result.depth, result.sigma);
    std::vector<WarpStats> warps;
    while (!levels.back().empty()) {
      std::vector<NodeId> next;
      warps.clear();
      ProcessFrontierCsr(g, levels.back(), filter, &next, &warps, options,
                         state);
      timeline.AddKernel(warps);
      if (options.gunrock) {
        timeline.AddKernel(GunrockFilterKernel(next.size(), options));
      }
      levels.push_back(std::move(next));
    }
    levels.pop_back();
  }
  {
    BcBackwardFilter filter(result.depth, result.sigma, result.dependency);
    std::vector<NodeId> unused;
    std::vector<WarpStats> warps;
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
      if (it->empty()) continue;
      warps.clear();
      ProcessFrontierCsr(g, *it, filter, &unused, &warps, options, state);
      timeline.AddKernel(warps);
    }
  }
  result.dependency[source] = 0.0;

  result.metrics.model_ms = timeline.TotalMs();
  result.metrics.kernels = timeline.num_kernels();
  result.metrics.device_bytes = device_bytes;
  result.metrics.warp = timeline.aggregate();
  return result;
}

}  // namespace gcgt
