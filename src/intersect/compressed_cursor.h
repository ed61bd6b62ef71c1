// Run cursors over adjacency lists for decode-free set intersection.
//
// Every adjacency representation is presented as one ascending stream of
// disjoint runs [lo, hi]: an interval contributes a multi-element run, a
// residual (or a decoded element) contributes a unit run. Intersection of
// two lists is then a single-pass merge of two run streams (see
// IntersectCursors in intersect_engine.cc), which realizes all three kernel
// paths of the paper's representation in one loop:
//   interval x interval  -> run-overlap test
//   interval x residual  -> membership probe of a unit run against a run
//   residual x residual  -> element merge step
//
// Decode-free means the residuals are pulled straight off the compressed
// stream (delta-decoded on the fly, never materialized), and SkipToAtLeast
// exploits the segmented CGR layout: residuals ascend across segments and
// each segment is independently decodable, so when the next segment's first
// residual is still <= the merge target, the current segment's undecoded
// tail (every value strictly below that first residual) is skipped without
// paying its decode codewords — the compressed-domain analog of galloping.
//
// Cost accounting: the cursor records decoded codewords and intersection
// ops in CursorCharges and charges compressed-region byte reads directly
// through the task's WarpContext (whose LineSet models per-warp L1 reuse).
#ifndef GCGT_INTERSECT_COMPRESSED_CURSOR_H_
#define GCGT_INTERSECT_COMPRESSED_CURSOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cgr/byte_codecs.h"
#include "cgr/cgr_decoder.h"
#include "cgr/cgr_graph.h"
#include "core/memory_layout.h"
#include "graph/graph.h"
#include "simt/warp.h"

namespace gcgt::intersect {

/// Charge accumulator for one intersection task (one simulated warp).
/// Codewords and ops are tallied here and converted into decode slots /
/// intersect_txns by the engine at task end; byte reads go straight to the
/// WarpContext so its line dedup models intra-warp reuse.
struct CursorCharges {
  simt::WarpContext* ctx = nullptr;
  uint64_t codewords = 0;  ///< VLC / byte-codec codewords decoded
  uint64_t ops = 0;        ///< set-intersection operations

  /// Charges a read of compressed bytes [first_byte, last_byte] (inclusive).
  void Bytes(uint64_t first_byte, uint64_t last_byte) {
    ctx->MemAccessRange(kBitsBase + first_byte, last_byte - first_byte + 1);
  }
  /// Charges the bit_start offsets read for node u (two 8-byte entries).
  void Offsets(NodeId u) {
    ctx->MemAccessRange(kOffsetsBase + 8ull * u, 16);
  }
};

/// One side of an intersection: ascending disjoint runs over one adjacency
/// list. Construct via Compressed() (decode-free over the encoded graph) or
/// Decoded() (over an already-materialized sorted list: full-decode scratch,
/// CSR columns).
class RunCursor {
 public:
  RunCursor() = default;

  /// Decode-free cursor over u's compressed encoding. Charges the offsets
  /// read and all header codewords up front.
  static RunCursor Compressed(const CgrGraph& g, NodeId u, CursorCharges* ch);

  /// Cursor over a decoded sorted list. `base_addr` is the nominal device
  /// address of elems[0]; every element touch is charged as a 4-byte read
  /// there (CSR columns / decode scratch), and every element is a unit run
  /// (the element-wise baseline merge).
  static RunCursor Decoded(std::span<const NodeId> elems, uint64_t base_addr,
                           CursorCharges* ch);

  bool done() const { return done_; }
  NodeId lo() const { return lo_; }
  NodeId hi() const { return hi_; }

  /// Moves to the next run. Precondition: !done().
  void Advance() { FetchNextRun(false, 0); }

  /// Discards runs entirely below `target` (every element strictly less
  /// than it), charging one op per discarded run; the compressed segmented
  /// path additionally skips whole residual segments, and the decoded path
  /// gallops. A run straddling the target is truncated to its >= target
  /// suffix. Postcondition: done() or lo() >= target.
  void SkipToAtLeast(NodeId target);

 private:
  enum class Mode { kCgr, kBytes, kDecoded };

  void FetchNextRun(bool target_set, NodeId target);
  /// Ensures pending_ holds the next undelivered residual (false when the
  /// residual stream is exhausted). With target_set, performs the
  /// segment-skip gallop first.
  bool FillPending(bool target_set, NodeId target);
  /// Decodes one value from the current CGR residual stream, charging one
  /// codeword and the bytes it spanned.
  NodeId DecodeOne();
  /// Opens the next non-empty segment into the peek slot, charging its count
  /// header + first residual (a peek costs the same two codewords whether it
  /// is adopted by the gallop or consumed sequentially later — it is never
  /// re-charged). Skips and charges empty segments. False when none remain.
  bool PeekNextSegment();
  /// Makes the peeked segment the current stream and its first residual the
  /// pending value, discarding the previous stream's undecoded tail (callers
  /// guarantee every discarded value is below the merge target).
  void AdoptPeek();

  Mode mode_ = Mode::kDecoded;
  CursorCharges* ch_ = nullptr;
  bool done_ = true;
  NodeId lo_ = 0;
  NodeId hi_ = 0;

  // Interval side (CGR only): fully decoded headers, consumed in order.
  std::vector<CgrInterval> intervals_;
  size_t itv_pos_ = 0;

  // Residual side.
  bool pending_valid_ = false;
  NodeId pending_ = 0;

  // kCgr state.
  const CgrGraph* graph_ = nullptr;
  NodeId u_ = 0;
  std::optional<CgrNodeDecoder> dec_;  // engaged by Compressed() for kCgr
  ResidualStream stream_;
  bool stream_open_ = false;
  uint64_t stream_byte_ = 0;  ///< last charged byte position of stream_
  bool segmented_ = false;
  uint32_t seg_count_ = 0;
  uint32_t next_seg_ = 0;  ///< next segment index not yet peeked
  // Cached peek of the next non-empty segment (already charged).
  ResidualStream peek_stream_;
  NodeId peek_first_ = 0;
  uint64_t peek_byte_ = 0;
  bool peek_valid_ = false;

  // kBytes state.
  ByteCodecStream bstream_;
  NodeId bbuf_[4];
  uint32_t bbuf_pos_ = 0;
  uint32_t bbuf_len_ = 0;

  // kDecoded state.
  std::span<const NodeId> elems_;
  size_t pos_ = 0;
  uint64_t base_addr_ = 0;
};

}  // namespace gcgt::intersect

#endif  // GCGT_INTERSECT_COMPRESSED_CURSOR_H_
