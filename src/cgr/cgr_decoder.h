// CGR decoder primitives.
//
// CgrNodeDecoder exposes one method per paper-level decode operation
// (degree/interval-count headers, one interval, one residual) so the SIMT
// engines can charge instruction and memory costs per operation, exactly as
// the step tables of paper Fig. 4 do. DecodeAdjacency is the convenience
// whole-list decoder used by tests and CPU-side consumers.
#ifndef GCGT_CGR_CGR_DECODER_H_
#define GCGT_CGR_CGR_DECODER_H_

#include <cstdint>
#include <vector>

#include "cgr/cgr_graph.h"
#include "util/bit_stream.h"

namespace gcgt {

/// Stream of residuals (one list, or one segment of a list).
///
/// Decode is batched word-at-a-time: Refill() peeks one 64-bit window from
/// the BitReader and extracts up to kBatch whole codewords from it in
/// registers (unary via countl_zero, payload via shifts), falling back to
/// the serial VlcDecode path for any codeword that does not fit the window
/// (giant zeta codewords, end-of-stream). The buffer records the exact bit
/// position after every codeword, so bit_pos() observed between Next()
/// calls is identical to the historical one-codeword-at-a-time reader —
/// which keeps the SIMT engines' per-step memory charges bit-identical.
class ResidualStream {
 public:
  ResidualStream() : reader_(nullptr, 0), scheme_(VlcScheme::kGamma) {}

  /// `count` residuals starting at `bit_pos`; the first one is coded
  /// relative to `u` via zigzag (see layout notes in cgr_graph.h).
  ResidualStream(const CgrGraph& g, NodeId u, uint64_t count, uint64_t bit_pos)
      : reader_(g.bits().data(), g.total_bits(), bit_pos),
        scheme_(g.options().scheme),
        u_(u),
        remaining_(count),
        logical_pos_(bit_pos) {}

  uint64_t remaining() const { return remaining_; }
  bool HasNext() const { return remaining_ > 0; }

  /// Decodes the next residual. Precondition: HasNext().
  NodeId Next() {
    if (buf_pos_ == buf_len_) Refill();
    --remaining_;
    prev_ = buf_val_[buf_pos_];
    logical_pos_ = buf_end_[buf_pos_];
    ++buf_pos_;
    first_ = false;
    return prev_;
  }

  /// Decodes every remaining residual, calling fn(value, end_bit) for each
  /// in order: the same values and positions as repeated Next() + bit_pos(),
  /// consumed a read-ahead batch at a time.
  template <typename Fn>
  void Drain(Fn&& fn) {
    while (remaining_ > 0) {
      if (buf_pos_ == buf_len_) Refill();
      const uint32_t n = buf_len_ - buf_pos_;
      for (uint32_t i = buf_pos_; i < buf_len_; ++i) fn(buf_val_[i], buf_end_[i]);
      remaining_ -= n;
      prev_ = buf_val_[buf_len_ - 1];
      logical_pos_ = buf_end_[buf_len_ - 1];
      buf_pos_ = buf_len_;
      first_ = false;
    }
  }

  /// Bit/byte position after the last consumed residual, for cost
  /// accounting. Read-ahead buffering is invisible here.
  uint64_t bit_pos() const { return logical_pos_; }
  size_t byte_pos() const { return logical_pos_ >> 3; }
  bool overflowed() const { return reader_.overflowed(); }

  // Accessors for warp-centric decoding (core/warp_centric.h), which decodes
  // raw codewords out-of-band and then advances the stream externally.
  bool at_first() const { return first_; }
  NodeId prev() const { return prev_; }
  NodeId source() const { return u_; }
  void ExternalAdvance(uint64_t bit_pos, NodeId prev, uint64_t consumed) {
    reader_.Seek(bit_pos);
    logical_pos_ = bit_pos;
    prev_ = prev;
    first_ = false;
    dec_prev_ = prev;
    dec_first_ = false;
    buf_pos_ = buf_len_ = 0;  // read-ahead is stale after an external seek
    remaining_ -= consumed;
  }

 private:
  static constexpr uint32_t kBatch = 8;

  void Refill();

  BitReader reader_;
  VlcScheme scheme_;
  NodeId u_ = 0;
  uint64_t remaining_ = 0;
  // Consumer-visible delta state (last value handed out by Next()).
  bool first_ = true;
  NodeId prev_ = 0;
  uint64_t logical_pos_ = 0;
  // Decoder-side delta state (runs ahead of the consumer by the buffer).
  bool dec_first_ = true;
  NodeId dec_prev_ = 0;
  // Decoded read-ahead: value and exact end bit position per codeword.
  NodeId buf_val_[kBatch];
  uint64_t buf_end_[kBatch];
  uint32_t buf_pos_ = 0;
  uint32_t buf_len_ = 0;
};

/// Step-wise decoder for one node's CGR encoding. Methods must be called in
/// layout order (see class comment in cgr_graph.h).
class CgrNodeDecoder {
 public:
  CgrNodeDecoder(const CgrGraph& g, NodeId u);

  bool segmented() const { return segmented_; }

  /// Unsegmented layout only: total degree header.
  uint64_t ReadDegree();

  uint32_t ReadIntervalCount();

  /// Decodes the next (start, len) interval. Call exactly interval-count
  /// times, after ReadIntervalCount.
  CgrInterval ReadNextInterval();

  /// Segmented layout only: number of residual segments; positions the
  /// decoder at the (byte-aligned) segment area.
  uint32_t ReadSegmentCount();

  /// Unsegmented layout: stream over `count` residuals at the current
  /// position (count = degree - interval neighbors).
  ResidualStream UnsegmentedResiduals(uint64_t count);

  /// Segmented layout: independent stream over segment `seg_idx`
  /// (0 <= seg_idx < segment count). Reads the segment's count header.
  ResidualStream SegmentResiduals(uint32_t seg_idx);

  /// Bit offset of segment seg_idx's first bit (before its count header).
  uint64_t SegmentBitPos(uint32_t seg_idx) const;

  /// Sum of interval lengths decoded so far.
  uint64_t interval_neighbor_total() const { return interval_neighbors_; }

  uint64_t bit_pos() const { return reader_.pos(); }
  size_t byte_pos() const { return reader_.byte_pos(); }
  bool overflowed() const { return reader_.overflowed(); }

 private:
  const CgrGraph* graph_;
  BitReader reader_;
  VlcScheme scheme_;
  NodeId u_;
  bool segmented_;
  bool first_interval_ = true;
  NodeId prev_interval_end_ = 0;
  uint64_t interval_neighbors_ = 0;
  uint64_t segment_base_bits_ = 0;
  uint32_t segment_count_ = 0;
};

/// Decodes the full adjacency list of u, sorted ascending.
std::vector<NodeId> DecodeAdjacency(const CgrGraph& g, NodeId u);

/// Degree of u (cheap for unsegmented; decodes headers for segmented).
uint64_t DecodeDegree(const CgrGraph& g, NodeId u);

}  // namespace gcgt

#endif  // GCGT_CGR_CGR_DECODER_H_
