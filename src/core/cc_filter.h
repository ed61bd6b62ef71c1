// Hooking filter + pointer-jumping kernel model shared by the GCGT (CGR,
// node-centric) and GPUCSR/Gunrock (COO, edge-centric) CC implementations.
#ifndef GCGT_CORE_CC_FILTER_H_
#define GCGT_CORE_CC_FILTER_H_

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/frontier_filter.h"
#include "simt/warp.h"

namespace gcgt {

/// Round-synchronous hooking (Soman et al. as run by the GCGT pipeline):
/// within a round every edge resolves its endpoints' component roots against
/// the parent state *frozen at round start*, and roots are hooked through a
/// per-round claim table — claim[hi] keeps the smallest root proposed for hi
/// so far, and a proposal charges a hooking CAS exactly when it improves
/// that running minimum (the CAS that would have won on hardware). An edge
/// whose roots differ keeps u in the re-scan frontier whether or not its
/// proposal won. CommitRound() (called by the driver before the
/// pointer-jumping kernel) installs the claimed minima into the parent
/// array; min-id hooking keeps parents monotone decreasing, so the forest
/// stays acyclic and results are deterministic.
///
/// Freezing reads at round start is what makes the decision for every edge
/// a pure function of (round-start parents, running claim minima): the
/// parallel engine computes the root finds concurrently in the claim pass
/// and replays only the trivial running-minimum updates in the serial
/// merge, bit-identical to the serial path.
class CcFilter final : public FrontierFilter {
 public:
  explicit CcFilter(NodeId n) : parent_(n), claim_(n, kInvalidNode) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  Kind kind() const override { return Kind::kCc; }

  /// Root of x in the committed (round-start) parent forest.
  NodeId Find(NodeId x) const {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }

  bool Filter(NodeId u, NodeId v) override {
    NodeId ru = Find(u);
    NodeId rv = Find(v);
    if (ru == rv) return false;
    if (Propose(std::min(ru, rv), std::max(ru, rv))) ++atomics_;
    return true;  // u re-scans until its component stops growing
  }

  NodeId AppendTarget(NodeId u, NodeId /*v*/) override { return u; }
  int TakeAtomics() override {
    int n = atomics_;
    atomics_ = 0;
    return n;
  }

  void ClaimBatch(std::span<const EdgePair> edges,
                  ClaimBatchWriter& writer) override {
    // Parents are frozen this round, so the (expensive) root chases are safe
    // to run concurrently; the claim table is only touched in MergeBatch.
    for (const EdgePair& e : edges) {
      NodeId ru = Find(e.u);
      NodeId rv = Find(e.v);
      if (ru == rv) continue;
      writer.Push(e.u, e.v, std::min(ru, rv), std::max(ru, rv));
    }
  }

  int MergeBatch(const ChunkClaims& claims, size_t batch,
                 std::vector<NodeId>* out) override {
    int atomics = 0;
    for (const ClaimCandidate& c : claims.batch(batch)) {
      if (Propose(c.a, c.b)) ++atomics;
      out->push_back(c.u);
    }
    return atomics;
  }

  /// Installs this round's winning claims into the parent forest. Must run
  /// after the round's traversal kernel and before PointerJump.
  void CommitRound() {
    for (NodeId hi : claimed_) {
      parent_[hi] = claim_[hi];
      claim_[hi] = kInvalidNode;
    }
    claimed_.clear();
  }

  /// Pointer-jumping kernel: flattens every node to its root; returns
  /// per-warp stats modeling the chase depth and parent-array traffic.
  std::vector<simt::WarpStats> PointerJump(int lanes, int line_bytes) {
    std::vector<simt::WarpStats> warps;
    const NodeId n = static_cast<NodeId>(parent_.size());
    simt::WarpContext ctx(lanes, line_bytes);
    // Parent words are a dense 4B array: the chase and flatten-write charges
    // deduplicate through one exact region filter per warp instead of
    // per-address LineSet walks (see simt::DenseRegionFilter).
    simt::DenseRegionFilter labels;
    labels.Configure(static_cast<uint64_t>(line_bytes) / 4, n);
    for (NodeId begin = 0; begin < n; begin += lanes) {
      NodeId end = std::min<NodeId>(n, begin + lanes);
      labels.NextWarp();
      uint64_t max_depth = 0;
      uint64_t novel = 0;
      for (NodeId x = begin; x < end; ++x) {
        uint64_t depth = 0;
        NodeId r = x;
        while (parent_[r] != r) {
          novel += labels.Touch(r);
          r = parent_[r];
          ++depth;
        }
        max_depth = std::max(max_depth, depth);
      }
      ctx.Step(end - begin);
      for (uint64_t d = 1; d < max_depth; ++d) ctx.Step(end - begin);
      for (NodeId x = begin; x < end; ++x) parent_[x] = Find(x);
      novel += labels.TouchRange(begin, end - 1);
      if (novel > 0) ctx.ChargeTransactions(novel);
      warps.push_back(ctx.TakeStats());
    }
    return warps;
  }

  const std::vector<NodeId>& parent() const { return parent_; }

 private:
  /// Records lo as a hook proposal for root hi; returns true when it
  /// improved the running minimum (the proposal's CAS would have landed).
  bool Propose(NodeId lo, NodeId hi) {
    NodeId cur = claim_[hi] == kInvalidNode ? hi : claim_[hi];
    if (lo >= cur) return false;
    if (claim_[hi] == kInvalidNode) claimed_.push_back(hi);
    claim_[hi] = lo;
    return true;
  }

  std::vector<NodeId> parent_;
  std::vector<NodeId> claim_;    // per-root best proposal this round
  std::vector<NodeId> claimed_;  // roots with a live claim (commit list)
  int atomics_ = 0;
};

}  // namespace gcgt

#endif  // GCGT_CORE_CC_FILTER_H_
