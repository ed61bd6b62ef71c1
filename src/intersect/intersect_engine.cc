#include "intersect/intersect_engine.h"

#include <algorithm>
#include <cstdint>

#include "core/memory_layout.h"
#include "util/fault_injector.h"

namespace gcgt::intersect {

namespace {

// Nominal scratch regions for the full-decode baseline's two decoded lists
// (disjoint so the two sides never alias in the coalescing model).
constexpr uint64_t kScratchABase = kAuxBase;
constexpr uint64_t kScratchBBase = kAuxBase + (uint64_t{1} << 36);

/// Single-pass run-overlap merge of two cursors — the one loop that realizes
/// all three kernel paths (interval x interval, interval x residual,
/// residual x residual). Emits every common element ascending and returns
/// the count. Skip charges live inside SkipToAtLeast (one op per discarded
/// run / probe); each overlap event charges one op here.
template <typename Emit>
uint64_t MergeCursors(RunCursor* a, RunCursor* b, CursorCharges* ch,
                      Emit&& emit) {
  uint64_t count = 0;
  while (!a->done() && !b->done()) {
    if (a->hi() < b->lo()) {
      a->SkipToAtLeast(b->lo());
    } else if (b->hi() < a->lo()) {
      b->SkipToAtLeast(a->lo());
    } else {
      const NodeId lo = std::max(a->lo(), b->lo());
      const NodeId hi = std::min(a->hi(), b->hi());
      ch->ops += 1;
      for (NodeId w = lo;; ++w) {
        emit(w);
        ++count;
        if (w == hi) break;
      }
      // Capture before advancing: Advance() mutates hi().
      const bool adv_a = a->hi() == hi;
      const bool adv_b = b->hi() == hi;
      if (adv_a) a->Advance();
      if (adv_b) b->Advance();
    }
  }
  return count;
}

/// Drains a cursor into `out` (ascending). Charges whatever the cursor
/// charges (codewords + byte reads); no intersect ops.
void CollectCursor(RunCursor* c, std::vector<NodeId>* out) {
  out->clear();
  while (!c->done()) {
    for (NodeId w = c->lo();; ++w) {
      out->push_back(w);
      if (w == c->hi()) break;
    }
    c->Advance();
  }
}

Status InjectedFault() {
  return Status::Internal("injected fault: intersect kernel");
}

double JaccardScore(uint64_t common, uint64_t deg_a, uint64_t deg_b) {
  const uint64_t uni = deg_a + deg_b - common;
  // Single division from integer counts: bit-identical on every backend.
  return uni == 0 ? 0.0
                  : static_cast<double>(common) / static_cast<double>(uni);
}

void SortTopK(std::vector<GcgtSimilarityTopKResult::Item>* items, uint32_t k) {
  std::sort(items->begin(), items->end(),
            [](const GcgtSimilarityTopKResult::Item& x,
               const GcgtSimilarityTopKResult::Item& y) {
              if (x.jaccard != y.jaccard) return x.jaccard > y.jaccard;
              return x.node < y.node;
            });
  if (items->size() > k) items->resize(k);
}

}  // namespace

IntersectEngine::IntersectEngine(const CgrGraph& graph,
                                 const GcgtOptions& options)
    : mode_(Mode::kCgr),
      cgr_(&graph),
      options_(options),
      full_decode_(options.intersect_full_decode),
      ctx_(options.lanes, options.cost.cache_line_bytes),
      timeline_(options.cost) {}

IntersectEngine::IntersectEngine(const Graph& graph,
                                 const GcgtOptions& options, bool gunrock,
                                 double gunrock_memory_factor)
    : mode_(Mode::kCsr),
      csr_(&graph),
      options_(options),
      gunrock_(gunrock),
      gunrock_factor_(gunrock ? gunrock_memory_factor : 1.0),
      ctx_(options.lanes, options.cost.cache_line_bytes),
      timeline_(options.cost) {}

NodeId IntersectEngine::NumNodes() const {
  return mode_ == Mode::kCgr ? cgr_->num_nodes() : csr_->num_nodes();
}

Status IntersectEngine::BeginQuery(const CancelToken& cancel,
                                   uint64_t extra_bytes,
                                   uint64_t* device_bytes) {
  if (Status s = options_.Validate(); !s.ok()) return s;
  if (Status s = cancel.Check(); !s.ok()) return s;
  if (FaultInjector::Global().ShouldInject(FaultPoint::kIntersectKernel)) {
    return InjectedFault();
  }
  timeline_.Reset();
  uint64_t base;
  if (mode_ == Mode::kCgr) {
    base = cgr_->DeviceBytes();
  } else {
    // 32-bit CSR footprint, same convention as the CSR traversal baselines.
    base = 4ull * (csr_->num_nodes() + 1) + 4ull * csr_->num_edges();
  }
  uint64_t total = base + extra_bytes;
  if (gunrock_) {
    total = static_cast<uint64_t>(static_cast<double>(total) *
                                  gunrock_factor_);
  }
  if (total > options_.device.memory_bytes) {
    return Status::OutOfMemory(
        "intersect query footprint exceeds device memory");
  }
  *device_bytes = total;
  return Status::OK();
}

simt::WarpStats IntersectEngine::FinishWarp(CursorCharges* ch) {
  // Warp-centric decode model: one DecodeStep slot retires up to `lanes`
  // codewords (the warp decodes speculative windows in parallel).
  const uint64_t lanes = static_cast<uint64_t>(options_.lanes);
  for (uint64_t cw = ch->codewords; cw > 0;) {
    const int active = static_cast<int>(std::min(lanes, cw));
    ctx_.DecodeStep(active);
    cw -= static_cast<uint64_t>(active);
  }
  ctx_.IntersectOps(ch->ops);
  ch->codewords = 0;
  ch->ops = 0;
  return ctx_.TakeStats();
}

uint64_t IntersectEngine::ChargedDegree(NodeId x, CursorCharges* ch) {
  if (mode_ == Mode::kCsr) {
    ch->ctx->MemAccessRange(kOffsetsBase + 4ull * x, 8);
    return csr_->Neighbors(x).size();
  }
  // Encoded degree header walk, charged uniformly as two codewords (degree /
  // interval headers) plus the offsets gather; the host reads the value.
  ch->codewords += 2;
  ch->Offsets(x);
  return cgr_->EncodedDegree(x);
}

std::span<const NodeId> IntersectEngine::MaterializeList(
    NodeId x, CursorCharges* ch, std::vector<NodeId>* backing) {
  if (mode_ == Mode::kCsr) {
    const std::span<const NodeId> adj = csr_->Neighbors(x);
    ch->ctx->MemAccessRange(kOffsetsBase + 4ull * x, 8);
    ch->ctx->MemAccessRange(kCsrColBase + 4ull * csr_->offsets()[x],
                            4ull * adj.size());
    return adj;
  }
  RunCursor c = RunCursor::Compressed(*cgr_, x, ch);
  CollectCursor(&c, backing);
  if (full_decode_) {
    // The baseline writes the decoded list to scratch before merging.
    ch->ctx->MemAccessRange(kScratchABase, 4ull * backing->size());
  }
  return *backing;
}

RunCursor IntersectEngine::SideCursor(NodeId x, CursorCharges* ch,
                                      std::vector<NodeId>* backing,
                                      uint64_t scratch_base) {
  if (mode_ == Mode::kCsr) {
    const std::span<const NodeId> adj = csr_->Neighbors(x);
    ch->ctx->MemAccessRange(kOffsetsBase + 4ull * x, 8);
    return RunCursor::Decoded(adj, kCsrColBase + 4ull * csr_->offsets()[x],
                              ch);
  }
  if (full_decode_) {
    // Full-decode baseline: every codeword + a scratch round-trip + an
    // element-wise (unit-run) merge.
    RunCursor c = RunCursor::Compressed(*cgr_, x, ch);
    CollectCursor(&c, backing);
    ch->ctx->MemAccessRange(scratch_base, 4ull * backing->size());
    return RunCursor::Decoded(*backing, scratch_base, ch);
  }
  return RunCursor::Compressed(*cgr_, x, ch);
}

Result<GcgtTriangleResult> IntersectEngine::TriangleCount(
    const CancelToken& cancel) {
  const NodeId num_nodes = NumNodes();
  uint64_t device_bytes = 0;
  if (Status s = BeginQuery(cancel, 8ull * num_nodes, &device_bytes);
      !s.ok()) {
    return s;
  }
  GcgtTriangleResult res;
  res.per_vertex.assign(num_nodes, 0);
  std::vector<simt::WarpStats> warps;
  warps.reserve(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    if ((u & 255u) == 0) {
      if (Status s = cancel.Check(); !s.ok()) return s;
    }
    CursorCharges ch{&ctx_};
    const std::span<const NodeId> adj_u =
        MaterializeList(u, &ch, &list_scratch_);
    for (const NodeId v : adj_u) {
      if (v <= u) continue;
      RunCursor a = SideCursor(u, &ch, &scratch_a_, kScratchABase);
      RunCursor b = SideCursor(v, &ch, &scratch_b_, kScratchBBase);
      // Only witnesses above v close a triangle u < v < w; the compressed
      // gallop (or the decoded binary search) jumps both sides there.
      a.SkipToAtLeast(v + 1);
      b.SkipToAtLeast(v + 1);
      MergeCursors(&a, &b, &ch, [&](NodeId w) {
        ++res.triangles;
        ++res.per_vertex[u];
        ++res.per_vertex[v];
        ++res.per_vertex[w];
        ctx_.Atomic(3);  // three per-vertex credit increments
      });
    }
    warps.push_back(FinishWarp(&ch));
  }
  timeline_.AddKernel(warps);
  res.metrics.model_ms = timeline_.TotalMs();
  res.metrics.kernels = timeline_.num_kernels();
  res.metrics.device_bytes = device_bytes;
  res.metrics.warp = timeline_.aggregate();
  return res;
}

Result<GcgtCommonNeighborResult> IntersectEngine::CommonNeighbors(
    NodeId u, NodeId v, const CancelToken& cancel) {
  uint64_t device_bytes = 0;
  if (Status s = BeginQuery(cancel, 0, &device_bytes); !s.ok()) return s;
  GcgtCommonNeighborResult res;
  CursorCharges ch{&ctx_};
  RunCursor a = SideCursor(u, &ch, &scratch_a_, kScratchABase);
  RunCursor b = SideCursor(v, &ch, &scratch_b_, kScratchBBase);
  MergeCursors(&a, &b, &ch, [&](NodeId w) { res.common.push_back(w); });
  res.count = res.common.size();
  const std::vector<simt::WarpStats> warps{FinishWarp(&ch)};
  timeline_.AddKernel(warps);
  res.metrics.model_ms = timeline_.TotalMs();
  res.metrics.kernels = timeline_.num_kernels();
  res.metrics.device_bytes = device_bytes;
  res.metrics.warp = timeline_.aggregate();
  return res;
}

Result<GcgtJaccardResult> IntersectEngine::Jaccard(NodeId u, NodeId v,
                                                   const CancelToken& cancel) {
  uint64_t device_bytes = 0;
  if (Status s = BeginQuery(cancel, 0, &device_bytes); !s.ok()) return s;
  GcgtJaccardResult res;
  CursorCharges ch{&ctx_};
  res.degree_u = ChargedDegree(u, &ch);
  res.degree_v = ChargedDegree(v, &ch);
  RunCursor a = SideCursor(u, &ch, &scratch_a_, kScratchABase);
  RunCursor b = SideCursor(v, &ch, &scratch_b_, kScratchBBase);
  res.common = MergeCursors(&a, &b, &ch, [](NodeId) {});
  res.jaccard = JaccardScore(res.common, res.degree_u, res.degree_v);
  const std::vector<simt::WarpStats> warps{FinishWarp(&ch)};
  timeline_.AddKernel(warps);
  res.metrics.model_ms = timeline_.TotalMs();
  res.metrics.kernels = timeline_.num_kernels();
  res.metrics.device_bytes = device_bytes;
  res.metrics.warp = timeline_.aggregate();
  return res;
}

Result<GcgtSimilarityTopKResult> IntersectEngine::SimilarityTopK(
    NodeId source, uint32_t k, std::span<const uint8_t> real_mask,
    const CancelToken& cancel) {
  const NodeId num_nodes = NumNodes();
  uint64_t device_bytes = 0;
  if (Status s = BeginQuery(cancel, 8ull * num_nodes, &device_bytes);
      !s.ok()) {
    return s;
  }
  GcgtSimilarityTopKResult res;
  res.metrics.device_bytes = device_bytes;
  if (k == 0) return res;

  // Kernel 1: candidate generation — warp 0 materializes N(source), then one
  // warp per neighbor v appends N(v)'s eligible members to the queue.
  std::vector<simt::WarpStats> warps;
  CursorCharges ch0{&ctx_};
  std::vector<NodeId> adj_source;  // outlives list_scratch_ reuse below
  const std::span<const NodeId> adj_u =
      MaterializeList(source, &ch0, &adj_source);
  warps.push_back(FinishWarp(&ch0));
  std::vector<NodeId> candidates;
  const uint64_t lanes = static_cast<uint64_t>(options_.lanes);
  uint32_t polled = 0;
  for (const NodeId v : adj_u) {
    if ((polled++ & 63u) == 0) {
      if (Status s = cancel.Check(); !s.ok()) return s;
    }
    CursorCharges ch{&ctx_};
    const std::span<const NodeId> adj_v =
        MaterializeList(v, &ch, &list_scratch_);
    uint64_t appended = 0;
    for (const NodeId w : adj_v) {
      if (w == source) continue;
      if (std::binary_search(adj_u.begin(), adj_u.end(), w)) continue;
      if (!real_mask.empty() && (w >= real_mask.size() || !real_mask[w])) {
        continue;
      }
      candidates.push_back(w);
      ++appended;
    }
    for (uint64_t done = 0; done < appended; done += lanes) {
      ctx_.AppendStepOp(static_cast<int>(std::min(lanes, appended - done)));
    }
    if (appended > 0) {
      ctx_.MemAccessRange(kQueueBase + 4ull * (candidates.size() - appended),
                          4ull * appended);
    }
    warps.push_back(FinishWarp(&ch));
  }
  timeline_.AddKernel(warps);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Kernel 2: scoring — one warp per candidate intersects
  // N(source) x N(candidate).
  if (!candidates.empty()) {
    warps.clear();
    for (const NodeId w : candidates) {
      if ((polled++ & 63u) == 0) {
        if (Status s = cancel.Check(); !s.ok()) return s;
      }
      CursorCharges ch{&ctx_};
      const uint64_t deg_u = ChargedDegree(source, &ch);
      const uint64_t deg_w = ChargedDegree(w, &ch);
      RunCursor a = SideCursor(source, &ch, &scratch_a_, kScratchABase);
      RunCursor b = SideCursor(w, &ch, &scratch_b_, kScratchBBase);
      const uint64_t common = MergeCursors(&a, &b, &ch, [](NodeId) {});
      warps.push_back(FinishWarp(&ch));
      if (common == 0) continue;
      res.items.push_back(
          {w, common, JaccardScore(common, deg_u, deg_w)});
    }
    timeline_.AddKernel(warps);
  }
  SortTopK(&res.items, k);
  res.metrics.model_ms = timeline_.TotalMs();
  res.metrics.kernels = timeline_.num_kernels();
  res.metrics.warp = timeline_.aggregate();
  return res;
}

Result<GcgtKCoreResult> IntersectEngine::KCore(uint32_t k,
                                               const CancelToken& cancel) {
  const NodeId num_nodes = NumNodes();
  uint64_t device_bytes = 0;
  if (Status s = BeginQuery(cancel, 9ull * num_nodes, &device_bytes);
      !s.ok()) {
    return s;
  }
  GcgtKCoreResult res;
  res.k = k;
  const int lanes = options_.lanes;

  // Degree-init kernel: lanes-wide chunks read the encoded degree headers —
  // never a full adjacency decode.
  std::vector<int64_t> deg(num_nodes);
  std::vector<simt::WarpStats> warps;
  for (NodeId base = 0; base < num_nodes;
       base += static_cast<NodeId>(lanes)) {
    CursorCharges ch{&ctx_};
    const int n = static_cast<int>(std::min<uint64_t>(
        static_cast<uint64_t>(lanes), num_nodes - base));
    ctx_.Step(n);
    for (int i = 0; i < n; ++i) {
      deg[base + static_cast<NodeId>(i)] =
          static_cast<int64_t>(ChargedDegree(base + static_cast<NodeId>(i),
                                             &ch));
    }
    ctx_.MemAccessRange(kLabelBase + 8ull * base, 8ull * n);  // degree store
    warps.push_back(FinishWarp(&ch));
  }
  timeline_.AddKernel(warps);

  // Synchronous peel: each round removes EVERY current vertex of degree < k
  // at once (so two peers peeled the same round never decrement each other),
  // then decrements surviving neighbors. The k-core is a unique fixpoint, so
  // membership is independent of this schedule — but the oracle peels with
  // the same one so round counts and metrics are comparable.
  std::vector<uint8_t> alive(num_nodes, 1);
  const uint64_t alive_base = kLabelBase + 8ull * num_nodes;
  std::vector<NodeId> peel;
  for (;;) {
    if (Status s = cancel.Check(); !s.ok()) return s;
    if (FaultInjector::Global().ShouldInject(FaultPoint::kIntersectKernel)) {
      return InjectedFault();
    }
    peel.clear();
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (alive[v] && deg[v] < static_cast<int64_t>(k)) peel.push_back(v);
    }
    if (peel.empty()) break;
    for (const NodeId p : peel) alive[p] = 0;
    warps.clear();
    for (const NodeId p : peel) {
      CursorCharges ch{&ctx_};
      const std::span<const NodeId> adj =
          MaterializeList(p, &ch, &list_scratch_);
      ctx_.MemAccessIndexed(adj.size(), 1, [adj, alive_base](size_t i) {
        return alive_base + adj[i];
      });
      uint64_t decremented = 0;
      for (const NodeId x : adj) {
        if (alive[x]) {
          --deg[x];
          ++decremented;
        }
      }
      if (decremented > 0) ctx_.Atomic(static_cast<int>(decremented));
      warps.push_back(FinishWarp(&ch));
    }
    timeline_.AddKernel(warps);
  }
  res.in_core = std::move(alive);
  res.core_size = static_cast<NodeId>(
      std::count(res.in_core.begin(), res.in_core.end(), uint8_t{1}));
  res.metrics.model_ms = timeline_.TotalMs();
  res.metrics.kernels = timeline_.num_kernels();
  res.metrics.device_bytes = device_bytes;
  res.metrics.warp = timeline_.aggregate();
  return res;
}

// ---------------------------------------------------------------------------
// CPU oracles.
// ---------------------------------------------------------------------------

GcgtTriangleResult CpuTriangleCount(const Graph& g) {
  GcgtTriangleResult res;
  const NodeId num_nodes = g.num_nodes();
  res.per_vertex.assign(num_nodes, 0);
  for (NodeId u = 0; u < num_nodes; ++u) {
    const std::span<const NodeId> nu = g.Neighbors(u);
    for (const NodeId v : nu) {
      if (v <= u) continue;
      const std::span<const NodeId> nv = g.Neighbors(v);
      auto iu = std::upper_bound(nu.begin(), nu.end(), v);
      auto iv = std::upper_bound(nv.begin(), nv.end(), v);
      while (iu != nu.end() && iv != nv.end()) {
        if (*iu < *iv) {
          ++iu;
        } else if (*iv < *iu) {
          ++iv;
        } else {
          ++res.triangles;
          ++res.per_vertex[u];
          ++res.per_vertex[v];
          ++res.per_vertex[*iu];
          ++iu;
          ++iv;
        }
      }
    }
  }
  return res;
}

GcgtCommonNeighborResult CpuCommonNeighbors(const Graph& g, NodeId u,
                                            NodeId v) {
  GcgtCommonNeighborResult res;
  const std::span<const NodeId> nu = g.Neighbors(u);
  const std::span<const NodeId> nv = g.Neighbors(v);
  std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                        std::back_inserter(res.common));
  res.count = res.common.size();
  return res;
}

GcgtJaccardResult CpuJaccard(const Graph& g, NodeId u, NodeId v) {
  GcgtJaccardResult res;
  const std::span<const NodeId> nu = g.Neighbors(u);
  const std::span<const NodeId> nv = g.Neighbors(v);
  res.degree_u = nu.size();
  res.degree_v = nv.size();
  auto iu = nu.begin();
  auto iv = nv.begin();
  while (iu != nu.end() && iv != nv.end()) {
    if (*iu < *iv) {
      ++iu;
    } else if (*iv < *iu) {
      ++iv;
    } else {
      ++res.common;
      ++iu;
      ++iv;
    }
  }
  res.jaccard = JaccardScore(res.common, res.degree_u, res.degree_v);
  return res;
}

GcgtSimilarityTopKResult CpuSimilarityTopK(
    const Graph& g, NodeId source, uint32_t k,
    std::span<const uint8_t> real_mask) {
  GcgtSimilarityTopKResult res;
  if (k == 0) return res;
  const std::span<const NodeId> nu = g.Neighbors(source);
  std::vector<NodeId> candidates;
  for (const NodeId v : nu) {
    for (const NodeId w : g.Neighbors(v)) {
      if (w == source) continue;
      if (std::binary_search(nu.begin(), nu.end(), w)) continue;
      if (!real_mask.empty() && (w >= real_mask.size() || !real_mask[w])) {
        continue;
      }
      candidates.push_back(w);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (const NodeId w : candidates) {
    const GcgtJaccardResult j = CpuJaccard(g, source, w);
    if (j.common == 0) continue;
    res.items.push_back({w, j.common, j.jaccard});
  }
  SortTopK(&res.items, k);
  return res;
}

GcgtKCoreResult CpuKCore(const Graph& g, uint32_t k) {
  GcgtKCoreResult res;
  res.k = k;
  const NodeId num_nodes = g.num_nodes();
  std::vector<int64_t> deg(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) {
    deg[v] = static_cast<int64_t>(g.Neighbors(v).size());
  }
  std::vector<uint8_t> alive(num_nodes, 1);
  std::vector<NodeId> peel;
  for (;;) {
    peel.clear();
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (alive[v] && deg[v] < static_cast<int64_t>(k)) peel.push_back(v);
    }
    if (peel.empty()) break;
    for (const NodeId p : peel) alive[p] = 0;
    for (const NodeId p : peel) {
      for (const NodeId x : g.Neighbors(p)) {
        if (alive[x]) --deg[x];
      }
    }
  }
  res.in_core = std::move(alive);
  res.core_size = static_cast<NodeId>(
      std::count(res.in_core.begin(), res.in_core.end(), uint8_t{1}));
  return res;
}

}  // namespace gcgt::intersect
