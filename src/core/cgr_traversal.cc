#include "core/cgr_traversal.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <memory>

#include "cgr/byte_codecs.h"
#include "cgr/cgr_decoder.h"
#include "core/bc_filters.h"
#include "core/cc_filter.h"
#include "core/memory_layout.h"
#include "core/warp_centric.h"
#include "ooc/partition_pager.h"
#include "util/thread_pool.h"

namespace gcgt {
namespace {

using simt::WarpContext;
using simt::WarpStats;

/// A lane's residual list is handed to warp-centric decoding when at least
/// this many residuals remain after the stealing stage.
constexpr uint64_t kWarpCentricMinResiduals = 32;

/// Trace-only bookkeeping of an append item: the lane executing it and the
/// Fig. 4 label of where it came from. Built only when a StepTrace is
/// attached.
struct TraceTag {
  int exec_lane = 0;
  TraceOp origin = TraceOp::kAppend;
  int src_lane = 0;
  int idx1 = 0;   // interval index / residual index
  int idx2 = -1;  // neighbor index within the interval
};

std::string ItemLabel(const TraceTag& it) {
  char buf[48];
  if (it.origin == TraceOp::kDecodeInterval) {
    std::snprintf(buf, sizeof(buf), "t%d:i%d:%d", it.src_lane, it.idx1, it.idx2);
  } else {
    std::snprintf(buf, sizeof(buf), "t%d:res%d", it.src_lane, it.idx1);
  }
  return buf;
}

/// Neighbors awaiting a visited-check/append slot, in slot order: (u, v)
/// pairs plus their trace tags (index-aligned; empty unless a StepTrace is
/// attached). Storage only grows; callers Reserve() before pushing.
struct Items {
  std::vector<EdgePair> pairs;  // the first `size` entries are live
  std::vector<TraceTag> tags;
  size_t size = 0;

  void Clear() {
    size = 0;
    tags.clear();
  }
  void Reserve(size_t more) {
    if (pairs.size() < size + more) pairs.resize(size + more);
  }
  void Push(NodeId u, NodeId v) {
    assert(size < pairs.size());
    pairs[size++] = {u, v};
  }
};

/// Bytes [first, last] of the nominal address space: one decode read, or a
/// run of contiguous ones.
struct Read {
  uint64_t first;
  uint64_t last;
};

Read ReadOf(uint64_t bit_before, uint64_t bit_after) {
  return {kBitsBase + bit_before / 8,
          kBitsBase + (bit_after > bit_before ? (bit_after - 1) / 8
                                              : bit_before / 8)};
}

/// One contiguous run of a decode cursor, as decoded by the functional pass:
/// an unsegmented residual list or one residual segment.
struct Stream {
  uint64_t bit = 0;        // first bit (a segment's starts at its count header)
  uint32_t val_begin = 0;  // decoded neighbors in vals_
  uint32_t val_end = 0;
  // Segments decoded by executors (kFull): the reads that end in a cache
  // line past their predecessor's, in reads_. Every other read lies inside
  // the lines of the read before it, so it can never miss a decode cursor.
  uint32_t read_begin = 0;
  uint32_t read_end = 0;
};

/// Cache lines of a decode cursor's last missing read (WarpSim::Miss).
struct LineCache {
  uint64_t lo = 1;  // empty when lo > hi
  uint64_t hi = 0;
};

/// Per-lane state: the functional pass's decoded lists plus the charge
/// pass's walk position in them (walk fields first: the rounds scan them).
struct Lane {
  bool valid = false;
  bool res_pending = false;
  bool segs_read = false;  // segment-count header walked (kIntuitive)
  NodeId u = 0;
  // Interval currently pending expansion.
  NodeId itv_ptr = 0;
  uint32_t itv_len = 0;
  int itv_idx = -1;
  uint32_t itv_consumed = 0;
  uint32_t itv_next = 0;  // next interval to decode, in itvs_
  uint32_t itv_end = 0;
  // Open residual stream streams_[stream]; its unread neighbors are
  // vals_[pos, end).
  uint32_t pos = 0;
  uint32_t end = 0;
  uint32_t stream = 0;
  // Residual streams (unsegmented: one; segmented: one per segment) not yet
  // opened: streams_[seg_next, seg_end).
  uint32_t seg_next = 0;
  uint32_t seg_end = 0;
  int res_idx = 0;
  NodeId res_val = 0;
  uint64_t deg = 0;  // unsegmented degree header
  // Decode charges of the lane's own cursor, from the functional pass:
  // decode_words over its head reads and over the residual streams it reads
  // itself, and its cache after the head. An unsegmented residual list's
  // bytes [res_first, res_last] are charged apart from runs_, since a
  // warp-centric hand-off (HandOff) cuts what the lane read of it.
  uint64_t head_words = 0;
  uint64_t res_words = 0;
  LineCache head_cache;
  uint64_t res_first = 1;  // empty when first > last
  uint64_t res_last = 0;
};

/// Simulates one warp over one frontier chunk in two passes.
///  - Functional pass (Decode): every lane's list is decoded once, with the
///    plain CgrNodeDecoder / ByteCodecStream calls, into flat reusable
///    buffers: intervals and the neighbors of each residual stream or
///    segment. The same pass settles the decode charges that do not depend
///    on the schedule: the line runs its reads span, and the decode_words
///    of each lane's own cursor.
///  - Charge pass (the *Phase methods): walks the paper's schedule for the
///    configured level. Its rounds depend only on interval counts and
///    lengths and per-stream residual counts, never on decoded values, so
///    every decode, append and shared-memory charge comes from per-round
///    counts. Decode traffic is charged per span, not per codeword: a
///    warp's mem_txns is the union of the lines its chunk touched, and only
///    decoding reads the bit array, so its share is the lines of the union
///    of the chunk's spans (ChargeDecodeReads). Only the executor
///    cursors of residual segmentation (kFull) depend on the schedule; they
///    replay their segments' line-crossing reads.
/// Append items are (u, v) pairs in the schedule's slot order, which fixes
/// the out-frontier order; label touches and filter decisions stay per
/// edge. An instance is reusable across chunks (one lives in each worker's
/// scratch); buffer capacity persists, so the steady state allocates
/// nothing.
///
/// Two run modes:
///  - RunSerial: the reference engine. Filter decisions, out-frontier
///    appends and their memory charges happen inline, and a StepTrace may
///    record Fig. 4 tables.
///  - RunEnumerate: the parallel-phase engine. The walk is identical (it
///    never depends on the filter), but each append slot hands its (u, v)
///    pairs to the filter's chunk-scoped claim pass
///    (FrontierFilter::ClaimBatch), which applies atomic claims and records
///    the surviving candidates in the worker's claim arena; decisions are
///    settled by ResolveChunk / the serial MergeBatch afterwards (see
///    CgrTraversalEngine::ProcessFrontier).
class WarpSim {
 public:
  WarpSim(const CgrGraph& g, const GcgtOptions& o)
      : g_(g),
        o_(o),
        ctx_(o.lanes, o.cost.cache_line_bytes),
        executors_(g.options().codec == CodecId::kCgr &&
                   g.options().segment_len_bytes != 0 &&
                   o.level >= GcgtLevel::kFull) {
    const uint64_t line = static_cast<uint64_t>(o.cost.cache_line_bytes);
    label_filter_.Configure(line / 4, g.num_nodes());
    offset_filter_.Configure(line / 8, g.num_nodes() + 1);
    bits_filter_.Configure(line, g.bits().size());
    lanes_.resize(o.lanes);
    items_.Reserve(o.lanes);
  }

  WarpStats RunSerial(std::span<const NodeId> chunk, FrontierFilter& filter,
                      std::vector<NodeId>* out, StepTrace* trace) {
    filter_ = &filter;
    filter_kind_ = filter.kind();
    out_ = out;
    trace_ = trace;
    claim_filter_ = nullptr;
    claim_writer_ = nullptr;
    return Run(chunk);
  }

  WarpStats RunEnumerate(std::span<const NodeId> chunk, FrontierFilter& filter,
                         ClaimBatchWriter& writer) {
    filter_ = nullptr;
    out_ = nullptr;
    trace_ = nullptr;
    claim_filter_ = &filter;
    claim_writer_ = &writer;
    return Run(chunk);
  }

 private:
  WarpStats Run(std::span<const NodeId> chunk);

  bool segmented() const { return g_.options().segment_len_bytes != 0; }

  // ---- Functional pass.
  void Decode(std::span<const NodeId> chunk);
  void DecodeCgr(Lane& ln);
  void DecodeBytes(Lane& ln);
  uint64_t DecodeResiduals(ResidualStream& rs, uint64_t from, LineCache* c);
  // Room for the next n decoded neighbors.
  NodeId* GrowVals(uint32_t n) {
    if (vals_.size() < nvals_ + n) vals_.resize(nvals_ + n);
    nvals_ += n;
    return vals_.data() + nvals_ - n;
  }

  // ---- Charge pass.
  void LoadFrontier(std::span<const NodeId> chunk);
  void HeaderStep(size_t active) {
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
    ctx_.DecodeStep(static_cast<int>(active));
  }
  size_t ValidLanes() const {
    return static_cast<size_t>(std::count_if(
        lanes_.begin(), lanes_.end(), [](const Lane& ln) { return ln.valid; }));
  }
  void HeaderPhase();
  void ByteCodecPhase();
  void RunIntuitive();
  void IntervalPhase();
  void ResidualPhaseTwoPhase();
  void ResidualPhaseStealing();
  void StealWindows(const std::vector<int>& work_lanes, bool handoff);
  void WarpCentricStream(int lane_idx);
  uint64_t HandOff(Lane& ln);
  void SegmentedResidualPhase();
  void SegmentedSerialResiduals();
  void ChargeDecodeReads();

  // The 8-byte words of read `r` if it misses decode cursor `c` (a read hits
  // when the cursor's last missing read covered all its lines), else 0.
  // Feeds WarpStats::decode_words (observability only).
  uint64_t Miss(const Read& r, LineCache& c) const {
    const uint64_t lo = ctx_.LineOf(r.first);
    const uint64_t hi = ctx_.LineOf(r.last);
    if (lo >= c.lo && hi <= c.hi) return 0;
    c = {lo, hi};
    return r.last / 8 - r.first / 8 + 1;
  }

  void NextInterval(Lane& ln) {
    const CgrInterval& itv = itvs_[ln.itv_next++];
    ++ln.itv_idx;
    ln.itv_ptr = itv.start;
    ln.itv_len = itv.len;
    ln.itv_consumed = 0;
  }
  void OpenStream(Lane& ln) {
    ln.stream = ln.seg_next++;
    ln.pos = streams_[ln.stream].val_begin;
    ln.end = streams_[ln.stream].val_end;
  }
  // Labels lane `l` of the current trace step "t<l>:<what><idx>".
  void TraceDecode(int l, const char* what, int idx) {
    if (trace_ == nullptr) return;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "t%d:%s%d", l, what, idx);
    trace_->Lane(l, buf);
  }
  void Tag(Items& to, int exec_lane, TraceOp origin, int src_lane, int idx1,
           int idx2 = -1) {
    if (trace_ != nullptr) {
      to.tags.push_back({exec_lane, origin, src_lane, idx1, idx2});
    }
  }
  // Emits lane `l`'s next residual, executed by lane `exec`.
  void EmitResidual(Items& to, Lane& ln, int l, int exec) {
    to.Push(ln.u, vals_[ln.pos++]);
    Tag(to, exec, TraceOp::kDecodeResidual, l, ln.res_idx++);
  }
  // Emits the next `n` neighbors of lane `l`'s pending interval, executed by
  // lanes exec, exec + 1, ...
  void EmitInterval(Items& to, Lane& ln, int l, uint32_t n, int exec) {
    assert(to.size + n <= to.pairs.size());
    EdgePair* out = to.pairs.data() + to.size;
    const NodeId u = ln.u;
    const NodeId first = ln.itv_ptr;
    for (uint32_t j = 0; j < n; ++j) out[j] = {u, first + j};
    to.size += n;
    for (uint32_t j = 0; j < n && trace_ != nullptr; ++j) {
      Tag(to, exec + static_cast<int>(j), TraceOp::kDecodeInterval, l,
          ln.itv_idx, static_cast<int>(ln.itv_consumed + j));
    }
    ln.itv_ptr += n;
    ln.itv_len -= n;
    ln.itv_consumed += n;
  }

  // One visited-check/append slot over items [begin, begin + n). Does not
  // clear the storage; callers reuse and clear their own buffers.
  void AppendStep(const Items& items, size_t begin, size_t n);
  void AppendStep(const Items& items) { AppendStep(items, 0, items.size); }
  template <typename Filter>
  void AppendDecide(Filter& filter, std::span<const EdgePair> items);
  // Appends the buffered items past head_ as full warp-wide slots (and, on
  // the final flush, the partial tail, after which the buffer is empty
  // again); returns the number of append rounds issued.
  int FlushBuffer(bool final_flush);

  const CgrGraph& g_;
  const GcgtOptions& o_;
  WarpContext ctx_;

  // Per-warp exact line filters for the dense label (4B) and bitStart-offset
  // (8B) regions and the bit array (1B elements); replaces LineSet dedup of
  // kLabelBase / kOffsetsBase / kBitsBase accesses with one array lookup per
  // line (see simt::DenseRegionFilter).
  simt::DenseRegionFilter label_filter_;
  simt::DenseRegionFilter offset_filter_;
  simt::DenseRegionFilter bits_filter_;

  // Per-run bindings (exactly one of filter_/claim_writer_ is set).
  FrontierFilter* filter_ = nullptr;
  FrontierFilter::Kind filter_kind_ = FrontierFilter::Kind::kGeneric;
  std::vector<NodeId>* out_ = nullptr;
  StepTrace* trace_ = nullptr;
  FrontierFilter* claim_filter_ = nullptr;
  ClaimBatchWriter* claim_writer_ = nullptr;

  // Residual segments are decoded by executor lanes (kFull), whose cursors
  // depend on the schedule.
  const bool executors_;

  // Functional-pass output, rebuilt per chunk (capacity persists).
  std::vector<Lane> lanes_;
  std::vector<CgrInterval> itvs_;
  std::vector<NodeId> vals_;  // storage only grows; the first nvals_ are live
  uint32_t nvals_ = 0;
  std::vector<Stream> streams_;
  std::vector<Read> reads_;  // executor segments' line-crossing reads
  std::vector<Read> runs_;   // spans of contiguous decode reads

  // Charge-pass scratch.
  Items items_;   // one direct append slot (at most `lanes` items)
  Items buffer_;  // shared-memory append buffer
  size_t head_ = 0;  // buffer_ items before head_ were already appended
  std::vector<int> work_;
  struct Task {
    int src_lane;
    uint32_t stream;
  };
  std::vector<Task> tasks_;
  struct ExecState {
    size_t next = 0;  // index into tasks_ of the next task (stride = lanes)
    int owner = 0;    // lane owning the open task
    NodeId u = 0;     // its frontier node
    uint32_t pos = 0;  // unread neighbors of the open task: vals_[pos, end)
    uint32_t end = 0;
    LineCache cache;  // this executor's decode cursor
  };
  std::vector<ExecState> exec_;
};

// ---------------------------------------------------------------------------
// Functional pass: decode every lane's list once.
// ---------------------------------------------------------------------------
void WarpSim::Decode(std::span<const NodeId> chunk) {
  itvs_.clear();
  nvals_ = 0;
  streams_.clear();
  reads_.clear();
  runs_.clear();
  for (int l = 0; l < o_.lanes; ++l) {
    Lane& ln = lanes_[l];
    ln.valid = static_cast<size_t>(l) < chunk.size();
    ln.seg_next = static_cast<uint32_t>(streams_.size());
    ln.itv_next = ln.itv_end = static_cast<uint32_t>(itvs_.size());
    ln.itv_len = 0;
    ln.itv_idx = -1;
    ln.pos = ln.end = 0;
    ln.res_idx = 0;
    ln.res_pending = false;
    ln.segs_read = false;
    ln.deg = 0;
    ln.head_words = ln.res_words = 0;
    ln.res_first = 1;
    ln.res_last = 0;
    if (ln.valid) {
      ln.u = chunk[l];
      if (g_.options().codec == CodecId::kCgr) {
        DecodeCgr(ln);
      } else {
        DecodeBytes(ln);
      }
    }
    ln.seg_end = static_cast<uint32_t>(streams_.size());
  }
}

// Decodes the rest of `rs` into vals_ as one stream starting at bit `from`
// (a segment's count header lies before rs.bit_pos()); rs ends at the
// stream's last bit. Its reads go to cursor `c` (returns their decode_words)
// or, for an executor segment (c null), to reads_.
uint64_t WarpSim::DecodeResiduals(ResidualStream& rs, uint64_t from,
                                  LineCache* c) {
  streams_.push_back(
      {from, nvals_, 0, static_cast<uint32_t>(reads_.size()), 0});
  uint64_t words = 0;
  uint64_t hi = 0;  // below every line of the bit array
  auto read = [&](uint64_t before, uint64_t after) {
    const uint64_t last = kBitsBase + (after - 1) / 8;
    const uint64_t line = ctx_.LineOf(last);
    if (line > hi) {  // only a read reaching a new line can miss
      const Read r{kBitsBase + before / 8, last};
      if (c != nullptr) {
        words += Miss(r, *c);
      } else {
        reads_.push_back(r);
      }
    }
    hi = line;
  };
  uint64_t before = rs.bit_pos();
  if (from < before) read(from, before);
  NodeId* out = GrowVals(static_cast<uint32_t>(rs.remaining()));
  rs.Drain([&](NodeId v, uint64_t after) {
    *out++ = v;
    read(before, after);
    before = after;
  });
  streams_.back().val_end = nvals_;
  streams_.back().read_end = static_cast<uint32_t>(reads_.size());
  return words;
}

void WarpSim::DecodeCgr(Lane& ln) {
  CgrNodeDecoder dec(g_, ln.u);
  LineCache lane;  // the lane's own decode cursor
  uint64_t words = 0;
  auto read = [&](auto op) {
    const uint64_t before = dec.bit_pos();
    const auto x = op();
    words += Miss(ReadOf(before, dec.bit_pos()), lane);
    return x;
  };
  const uint64_t start = dec.bit_pos();
  uint32_t itv_count = 0;
  if (!segmented()) {
    ln.deg = read([&] { return dec.ReadDegree(); });
    if (ln.deg > 0) itv_count = read([&] { return dec.ReadIntervalCount(); });
  } else {
    itv_count = read([&] { return dec.ReadIntervalCount(); });
  }
  for (uint32_t i = 0; i < itv_count; ++i) {
    itvs_.push_back(read([&] { return dec.ReadNextInterval(); }));
  }
  ln.itv_end = static_cast<uint32_t>(itvs_.size());
  const uint32_t segs =
      segmented() ? read([&] { return dec.ReadSegmentCount(); }) : 0;
  ln.head_words = words;
  ln.head_cache = lane;
  runs_.push_back(ReadOf(start, dec.bit_pos()));
  if (!segmented()) {
    ResidualStream rs =
        dec.UnsegmentedResiduals(ln.deg - dec.interval_neighbor_total());
    const uint64_t from = rs.bit_pos();
    ln.res_words = DecodeResiduals(rs, from, &lane);
    if (rs.bit_pos() > from) {  // charged apart from runs_ for HandOff
      ln.res_first = ReadOf(from, rs.bit_pos()).first;
      ln.res_last = ReadOf(from, rs.bit_pos()).last;
    }
    OpenStream(ln);  // the list is open from the start
    return;
  }
  for (uint32_t s = 0; s < segs; ++s) {
    ResidualStream rs = dec.SegmentResiduals(s);
    const uint64_t from = dec.SegmentBitPos(s);
    ln.res_words +=
        DecodeResiduals(rs, from, executors_ ? nullptr : &lane);
    runs_.push_back(ReadOf(from, rs.bit_pos()));
  }
}

// Byte codecs keep two decode cursors: the control cursor (degree header,
// then StreamVByte control bytes or whole VarintGB groups) and StreamVByte's
// cursor over its disjoint data area. Both are the lane's own.
void WarpSim::DecodeBytes(Lane& ln) {
  ByteCodecStream bs(g_, ln.u);
  const bool svb = g_.options().codec == CodecId::kStreamVByte;
  LineCache ctrl;
  LineCache data;
  uint64_t words = 0;
  const Read header = ReadOf(g_.bit_start(ln.u), bs.header_end_byte() * 8);
  words += Miss(header, ctrl);
  Read ctrl_span = header;
  Read data_span{1, 0};
  ln.pos = nvals_;
  while (bs.HasNext()) {
    const ByteBlock blk = bs.NextBlock();
    std::copy(blk.vals, blk.vals + blk.count, GrowVals(blk.count));
    const uint64_t ctrl_last = svb ? blk.ctrl_byte : blk.data_last;
    words += Miss({kBitsBase + blk.ctrl_byte, kBitsBase + ctrl_last}, ctrl);
    ctrl_span.last = kBitsBase + ctrl_last;
    if (!svb) continue;
    words += Miss({kBitsBase + blk.data_first, kBitsBase + blk.data_last},
                  data);
    if (data_span.first > data_span.last) {
      data_span.first = kBitsBase + blk.data_first;
    }
    data_span.last = kBitsBase + blk.data_last;
  }
  ln.end = nvals_;
  ln.head_words = words;
  runs_.push_back(ctrl_span);
  if (data_span.first <= data_span.last) runs_.push_back(data_span);
}

// ---------------------------------------------------------------------------
// Charge pass.
// ---------------------------------------------------------------------------
void WarpSim::AppendStep(const Items& items, size_t begin, size_t n) {
  if (n == 0) return;
  assert(n <= static_cast<size_t>(o_.lanes));
  const std::span<const EdgePair> pairs(items.pairs.data() + begin, n);
  ctx_.AppendStepOp(static_cast<int>(n));
  if (trace_ != nullptr) {
    trace_->BeginStep(TraceOp::kAppend);
    for (size_t i = begin; i < begin + n; ++i) {
      trace_->Lane(items.tags[i].exec_lane, ItemLabel(items.tags[i]));
    }
  }
  // Visited/label gather for the filtering check. Label words are 4-byte
  // aligned in a dense region (one line holds line_bytes/4 consecutive
  // labels, no straddles), so the per-warp epoch filter below deduplicates
  // label lines exactly — bit-identical to inserting each into the LineSet,
  // at an array lookup per item.
  const uint64_t novel =
      label_filter_.TouchEach(pairs, [](const EdgePair& e) { return e.v; });
  if (novel > 0) ctx_.ChargeTransactions(novel);
  ctx_.SharedOp();  // exclusiveScan for the contraction offsets
  ctx_.Atomic(1);   // single queue-tail atomic per warp (Alg. 1 line 30)
  if (claim_writer_ != nullptr) {
    // Enumerate mode: run the filter's parallel claim pass for this slot;
    // the dependent charges (extra atomics, queue append) are reconstructed
    // from the claim buffers during the serial merge.
    claim_filter_->ClaimBatch(pairs, *claim_writer_);
    claim_writer_->EndBatch();
    return;
  }
  // Decide loop, statically dispatched for the well-known filters so the
  // per-edge Filter/AppendTarget/TakeAtomics sequence inlines.
  switch (filter_kind_) {
    case FrontierFilter::Kind::kBfs:
      assert(dynamic_cast<BfsFilter*>(filter_) != nullptr);
      AppendDecide(static_cast<BfsFilter&>(*filter_), pairs);
      break;
    case FrontierFilter::Kind::kCc:
      assert(dynamic_cast<CcFilter*>(filter_) != nullptr);
      AppendDecide(static_cast<CcFilter&>(*filter_), pairs);
      break;
    case FrontierFilter::Kind::kBcForward:
      assert(dynamic_cast<BcForwardFilter*>(filter_) != nullptr);
      AppendDecide(static_cast<BcForwardFilter&>(*filter_), pairs);
      break;
    case FrontierFilter::Kind::kBcBackward:
      assert(dynamic_cast<BcBackwardFilter*>(filter_) != nullptr);
      AppendDecide(static_cast<BcBackwardFilter&>(*filter_), pairs);
      break;
    default:
      AppendDecide(*filter_, pairs);
      break;
  }
}

template <typename Filter>
void WarpSim::AppendDecide(Filter& filter, std::span<const EdgePair> items) {
  size_t tail = out_->size();
  for (const EdgePair& it : items) {
    if (filter.Filter(it.u, it.v)) {
      out_->push_back(filter.AppendTarget(it.u, it.v));
    }
  }
  if (int extra = filter.TakeAtomics(); extra > 0) ctx_.Atomic(extra);
  if (out_->size() > tail) {
    // The label-update lines are a subset of this slot's visited-check
    // gather (same kLabelBase + 4v words), so re-charging them can never
    // produce a transaction; only the queue append can touch cold lines.
    ctx_.MemAccessRange(kQueueBase + 4ull * tail, 4ull * (out_->size() - tail));
  }
}

int WarpSim::FlushBuffer(bool final_flush) {
  int rounds = 0;
  const size_t lanes = static_cast<size_t>(o_.lanes);
  while (buffer_.size - head_ >= lanes ||
         (final_flush && buffer_.size > head_)) {
    const size_t take = std::min(buffer_.size - head_, lanes);
    for (size_t i = 0; i < take && trace_ != nullptr; ++i) {
      buffer_.tags[head_ + i].exec_lane = static_cast<int>(i);
    }
    AppendStep(buffer_, head_, take);
    head_ += take;
    ++rounds;
  }
  if (final_flush) {
    buffer_.Clear();
    head_ = 0;
  }
  return rounds;
}

// Coalesced frontier load + bitStart offset gather that opens every chunk.
// The offsets are a dense 8B region, deduplicated by offset_filter_.
void WarpSim::LoadFrontier(std::span<const NodeId> chunk) {
  ctx_.Step(static_cast<int>(chunk.size()));
  ctx_.MemAccessRange(kQueueBase, 4ull * chunk.size());
  const uint64_t novel = offset_filter_.TouchEach(chunk, [](NodeId u) { return u; });
  if (novel > 0) ctx_.ChargeTransactions(novel);
}

// Degree + interval-count headers (unsegmented; the interval count is only
// encoded when deg > 0), or the interval-count header (segmented).
void WarpSim::HeaderPhase() {
  HeaderStep(ValidLanes());
  if (segmented()) return;
  const auto with_degree = static_cast<size_t>(std::count_if(
      lanes_.begin(), lanes_.end(), [](const Lane& ln) { return ln.deg > 0; }));
  if (with_degree > 0) HeaderStep(with_degree);
}

// Decode charges settled by the functional pass: the lanes' own cursor words
// and the bit array's lines. The spans in runs_, the lanes' unsegmented
// residual spans (cut by any hand-off) and the warp-centric windows are the
// only accesses to the bit array, so bits_filter_ counts its lines exactly.
void WarpSim::ChargeDecodeReads() {
  uint64_t words = 0;
  uint64_t txns = 0;
  for (const Lane& ln : lanes_) {
    if (!ln.valid) continue;
    words += ln.head_words + ln.res_words;
    if (ln.res_first <= ln.res_last) {
      txns += bits_filter_.TouchRange(ln.res_first - kBitsBase,
                                      ln.res_last - kBitsBase);
    }
  }
  for (const Read& r : runs_) {
    txns += bits_filter_.TouchRange(r.first - kBitsBase, r.last - kBitsBase);
  }
  if (txns > 0) ctx_.ChargeTransactions(txns);
  if (words > 0) ctx_.DecodeWords(words);
}

// ---------------------------------------------------------------------------
// Byte-codec walk (StreamVByte / VarintGB): no intervals, no VLC — every
// lane streams 4-delta blocks out of its node's byte-aligned encoding. One
// table-driven block decode per lane per round, appends batched through the
// shared buffer exactly like the stealing stage, so warp-wide append slots
// stay full even when lane degrees diverge.
// ---------------------------------------------------------------------------
void WarpSim::ByteCodecPhase() {
  HeaderStep(ValidLanes());  // LEB128 degree headers
  ctx_.SharedOp();           // exclusiveScan over degrees for buffer offsets
  buffer_.Reserve(nvals_);

  // Lockstep block rounds: each lane with blocks left decodes one group of
  // up to 4 neighbors per decode slot.
  for (;;) {
    size_t active = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      if (ln.pos >= ln.end) continue;
      ++active;
      TraceDecode(l, "res", ln.res_idx);
      const uint32_t block_end = std::min(ln.pos + 4, ln.end);
      while (ln.pos < block_end) EmitResidual(buffer_, ln, l, 0);
    }
    if (active == 0) break;
    ctx_.DecodeStep(static_cast<int>(active));
    ctx_.SharedOp();  // buffer write
    FlushBuffer(false);
  }
  FlushBuffer(true);
}

// ---------------------------------------------------------------------------
// Intuitive strategy (Alg. 1): every lane decodes its own list serially; the
// warp serializes the divergent branch targets with the fixed priority
// DecodeInterval > DecodeResidual > Append, reproducing Fig. 4(b).
// ---------------------------------------------------------------------------
void WarpSim::RunIntuitive() {
  enum class Op { kNone, kDecItv, kDecRes, kOpenSeg, kAppend };
  auto next_op = [&](const Lane& ln) -> Op {
    if (!ln.valid) return Op::kNone;
    if (ln.itv_len > 0 || ln.res_pending) return Op::kAppend;
    if (ln.itv_next < ln.itv_end) return Op::kDecItv;
    if (ln.pos < ln.end) return Op::kDecRes;
    if (segmented() && (!ln.segs_read || ln.seg_next < ln.seg_end)) {
      return Op::kOpenSeg;
    }
    return Op::kNone;
  };
  std::vector<Op> ops(o_.lanes);
  for (;;) {
    bool any = false;
    bool has_itv = false, has_res = false, has_seg = false;
    for (int l = 0; l < o_.lanes; ++l) {
      ops[l] = next_op(lanes_[l]);
      if (ops[l] == Op::kNone) continue;
      any = true;
      has_itv |= ops[l] == Op::kDecItv;
      has_seg |= ops[l] == Op::kOpenSeg;
      has_res |= ops[l] == Op::kDecRes;
    }
    if (!any) break;

    if (has_itv || has_seg || has_res) {
      const Op op = has_itv ? Op::kDecItv : has_seg ? Op::kOpenSeg : Op::kDecRes;
      size_t active = 0;
      if (trace_ != nullptr) {
        trace_->BeginStep(op == Op::kDecItv   ? TraceOp::kDecodeInterval
                          : op == Op::kOpenSeg ? TraceOp::kHeader
                                               : TraceOp::kDecodeResidual);
      }
      for (int l = 0; l < o_.lanes; ++l) {
        if (ops[l] != op) continue;
        Lane& ln = lanes_[l];
        ++active;
        if (op == Op::kDecItv) {
          NextInterval(ln);
          TraceDecode(l, "i", ln.itv_idx);
        } else if (op == Op::kOpenSeg) {
          // Segment-count header first, then one segment per step.
          if (ln.segs_read) OpenStream(ln);
          ln.segs_read = true;
        } else {
          ln.res_val = vals_[ln.pos++];
          ln.res_pending = true;
          TraceDecode(l, "res", ln.res_idx);
        }
      }
      ctx_.DecodeStep(static_cast<int>(active));
      continue;
    }
    // Append step: every lane with a pending neighbor handles it.
    items_.Clear();
    for (int l = 0; l < o_.lanes; ++l) {
      if (ops[l] != Op::kAppend) continue;
      Lane& ln = lanes_[l];
      if (ln.itv_len > 0) {
        EmitInterval(items_, ln, l, 1, l);
      } else {
        items_.Push(ln.u, ln.res_val);
        Tag(items_, l, TraceOp::kDecodeResidual, l, ln.res_idx++);
        ln.res_pending = false;
      }
    }
    AppendStep(items_);
  }
}

// ---------------------------------------------------------------------------
// Two-Phase interval phase (Alg. 2): decode rounds followed by collaborative
// expansion; long intervals are expanded by the whole warp (stage 1), the
// leftovers are packed through the shared-memory buffer (stage 2).
// ---------------------------------------------------------------------------
void WarpSim::IntervalPhase() {
  const auto lanes = static_cast<uint32_t>(o_.lanes);
  // Lanes with intervals left, ascending; the others sit out every round.
  work_.clear();
  for (int l = 0; l < o_.lanes; ++l) {
    if (lanes_[l].itv_next < lanes_[l].itv_end) work_.push_back(l);
  }
  for (;;) {
    // Decode round.
    size_t active = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeInterval);
    for (const int l : work_) {
      Lane& ln = lanes_[l];
      if (ln.itv_next >= ln.itv_end) continue;
      NextInterval(ln);
      ++active;
      TraceDecode(l, "i", ln.itv_idx);
    }
    if (active == 0) break;
    ctx_.DecodeStep(static_cast<int>(active));

    // Stage 1: warp-wide expansion of long intervals. Each slot is a syncAny
    // that finds the lowest lane holding one, plus a shfl broadcast of it;
    // lengths only shrink, so the winners come in ascending lane order.
    size_t total = 0;
    for (const int l : work_) {
      Lane& ln = lanes_[l];
      while (ln.itv_len >= lanes) {
        ctx_.SharedOp(2);
        items_.Clear();
        EmitInterval(items_, ln, l, lanes, 0);
        AppendStep(items_);
      }
      total += ln.itv_len;
    }
    ctx_.SharedOp();  // the syncAny that finds no warp-wide interval

    // Stage 2: collaborative expansion of the remaining short intervals,
    // packed lane by lane through the shared buffer.
    if (total > 0) {
      ctx_.SharedOp();  // exclusiveScan of remaining lengths
      buffer_.Reserve(total);
      for (const int l : work_) {
        EmitInterval(buffer_, lanes_[l], l, lanes_[l].itv_len, 0);
      }
      ctx_.SharedOp(FlushBuffer(true));  // one shared buffer fill per slot
    }
    std::erase_if(work_, [&](int l) {
      return lanes_[l].itv_next >= lanes_[l].itv_end;
    });
  }
}

// Residual phase of Alg. 2: lockstep decode+append rounds, no stealing.
void WarpSim::ResidualPhaseTwoPhase() {
  for (;;) {
    items_.Clear();
    size_t active = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      if (ln.pos >= ln.end) continue;
      ++active;
      TraceDecode(l, "res", ln.res_idx);
      EmitResidual(items_, ln, l, l);
    }
    if (active == 0) break;
    ctx_.DecodeStep(static_cast<int>(active));
    AppendStep(items_);
  }
}

// Residual phase of Alg. 3 (+ warp-centric of Alg. 4 at level >= 3).
void WarpSim::ResidualPhaseStealing() {
  // Stage 1: all lanes busy -> plain lockstep rounds (syncAll loop).
  for (;;) {
    ctx_.SharedOp();  // syncAll: does every lane still hold residuals?
    if (!std::all_of(lanes_.begin(), lanes_.end(),
                     [](const Lane& ln) { return ln.pos < ln.end; })) {
      break;
    }
    items_.Clear();
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l = 0; l < o_.lanes; ++l) {
      TraceDecode(l, "res", lanes_[l].res_idx);
      EmitResidual(items_, lanes_[l], l, l);
    }
    ctx_.DecodeStep(o_.lanes);
    AppendStep(items_);
  }

  // Stage 2: stealing rounds while several lanes still hold residuals. Once
  // the warp is nearly drained (paper §5.1: warp-centric decoding "falls
  // back on idle threads"), a long leftover stream is decoded by the whole
  // warp speculatively instead of by its single owner lane.
  for (;;) {
    work_.clear();
    for (int l = 0; l < o_.lanes; ++l) {
      if (lanes_[l].pos < lanes_[l].end) work_.push_back(l);
    }
    if (work_.empty()) return;
    if (o_.level >= GcgtLevel::kWarpCentric && work_.size() <= 2) {
      bool any_heavy = false;
      for (int l : work_) {
        if (lanes_[l].end - lanes_[l].pos >= kWarpCentricMinResiduals) {
          any_heavy = true;
        }
      }
      if (any_heavy) {
        for (int l : work_) WarpCentricStream(l);
        return;
      }
    }
    StealWindows(work_, /*handoff=*/o_.level >= GcgtLevel::kWarpCentric);
    if (o_.level < GcgtLevel::kWarpCentric) return;  // StealWindows drained all
  }
}

// Stealing stage 2: the lanes still holding residuals decode concurrently
// (one decode slot per round, each active lane contributes one value to the
// shared buffer); idle lanes steal the buffered values so appends run as
// full warp-wide slots (one per `lanes` values). This keeps Alg. 3's 32:1
// append batching while letting the per-lane serial streams advance in
// parallel, and reproduces the step table of Fig. 4(d) exactly.
void WarpSim::StealWindows(const std::vector<int>& work_lanes, bool handoff) {
  if (work_lanes.empty()) return;

  // exclusiveScan over the remaining counts to compute buffer offsets.
  ctx_.SharedOp();
  size_t total = 0;
  for (int l : work_lanes) total += lanes_[l].end - lanes_[l].pos;
  buffer_.Reserve(total);

  for (;;) {
    if (handoff) {
      // Hand long leftover streams to warp-centric decoding once at most two
      // lanes still hold work (the rest of the warp is idle).
      int busy = 0;
      bool any_heavy = false;
      for (int l : work_lanes) {
        const uint32_t left = lanes_[l].end - lanes_[l].pos;
        busy += left > 0;
        any_heavy |= left >= kWarpCentricMinResiduals;
      }
      if (busy > 0 && busy <= 2 && any_heavy) break;
    }
    size_t active = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l : work_lanes) {
      Lane& ln = lanes_[l];
      if (ln.pos >= ln.end) continue;
      ++active;
      TraceDecode(l, "res", ln.res_idx);
      EmitResidual(buffer_, ln, l, 0);
    }
    if (active == 0) break;
    ctx_.DecodeStep(static_cast<int>(active));
    ctx_.SharedOp();  // buffer write
    FlushBuffer(false);
  }
  FlushBuffer(true);
}

// Hands the rest of the lane's residual stream to warp-centric decoding and
// returns the bit of its next codeword. The functional pass charged the
// lane's cursor for the whole stream; re-walk the consumed prefix to charge
// only what the lane read itself. A lane is handed off at most once per
// chunk.
uint64_t WarpSim::HandOff(Lane& ln) {
  const Stream& s = streams_[ln.stream];
  ResidualStream rs(g_, ln.u, s.val_end - s.val_begin, s.bit);
  LineCache lane = ln.head_cache;
  ln.res_words = 0;
  for (uint32_t i = s.val_begin; i < ln.pos; ++i) {
    const uint64_t before = rs.bit_pos();
    rs.Next();
    ln.res_words += Miss(ReadOf(before, rs.bit_pos()), lane);
  }
  if (rs.bit_pos() > s.bit) {
    ln.res_last = ReadOf(s.bit, rs.bit_pos()).last;
  } else {
    ln.res_first = 1;
    ln.res_last = 0;
  }
  return rs.bit_pos();
}

void WarpSim::WarpCentricStream(int lane_idx) {
  Lane& ln = lanes_[lane_idx];
  uint64_t base = HandOff(ln);
  while (ln.pos < ln.end) {
    ParallelDecodeResult r =
        WarpCentricDecodeWindow(g_.bits().data(), g_.total_bits(), base,
                                o_.lanes, g_.options().scheme, ln.end - ln.pos);
    if (r.values.empty()) break;  // corrupted stream; bail out defensively
    // Speculative decode: every lane decodes from its candidate bit; the
    // whole warp reads one small contiguous window (coalesced).
    if (trace_ != nullptr) {
      trace_->BeginStep(TraceOp::kDecodeResidual);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "t%d:wc", lane_idx);
      trace_->Lane(lane_idx, buf);
    }
    ctx_.DecodeStep(o_.lanes);
    const Read window{kBitsBase + base / 8,
                      kBitsBase + base / 8 + static_cast<uint64_t>(o_.lanes / 8 + 9)};
    runs_.push_back(window);
    ctx_.DecodeWords(window.last / 8 - window.first / 8 + 1);
    // Pointer-jumping identification rounds (Lemma 5.2).
    for (int i = 0; i < r.rounds; ++i) {
      ctx_.Step(o_.lanes);
      ctx_.SharedOp();
    }
    // The window's codewords are the stream's next neighbors, already
    // decoded by the functional pass.
    items_.Clear();
    for (size_t i = 0; i < r.values.size(); ++i) {
      EmitResidual(items_, ln, lane_idx, static_cast<int>(i));
    }
    base = r.next_bit_pos;
    AppendStep(items_);
  }
}

// ---------------------------------------------------------------------------
// Residual segmentation scheduling (paper §5.2): every lane reads its node's
// segment count; all (node, segment) tasks are distributed round-robin over
// the lanes, which decode them independently thanks to the fixed segment
// stride and per-segment relative encoding.
// ---------------------------------------------------------------------------
void WarpSim::SegmentedResidualPhase() {
  HeaderStep(ValidLanes());  // segment-count headers

  tasks_.clear();
  size_t total = 0;
  for (int l = 0; l < o_.lanes; ++l) {
    const Lane& ln = lanes_[l];
    if (!ln.valid) continue;
    for (uint32_t s = ln.seg_next; s < ln.seg_end; ++s) {
      tasks_.push_back({l, s});
      total += streams_[s].val_end - streams_[s].val_begin;
    }
  }
  if (tasks_.empty()) return;
  ctx_.SharedOp();  // task distribution via scan
  buffer_.Reserve(total);

  // Round-robin assignment: executing lane e walks tasks e, e+lanes, ... so
  // no per-lane queue materialization is needed.
  exec_.assign(o_.lanes, ExecState{});
  for (int e = 0; e < o_.lanes; ++e) exec_[e].next = static_cast<size_t>(e);

  // Live executing lanes, ascending. Lanes whose task stride is exhausted
  // drop out (stable compaction keeps lane order, so rounds, charges and
  // buffer order stay identical to scanning all lanes every round).
  work_.clear();
  for (int e = 0; e < o_.lanes; ++e) work_.push_back(e);
  uint64_t words = 0;
  const NodeId* vals = vals_.data();
  while (!work_.empty()) {
    size_t kept = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    EdgePair* out = buffer_.pairs.data() + buffer_.size;
    for (const int e : work_) {
      ExecState& st = exec_[e];
      if (st.pos < st.end) {
        if (trace_ != nullptr) {
          Tag(buffer_, 0, TraceOp::kDecodeResidual, e,
              lanes_[st.owner].res_idx++);
        }
        *out++ = {st.u, vals[st.pos++]};
      } else {
        if (st.next >= tasks_.size()) continue;  // drained: drop the lane
        // Open the next task: its count header takes this round's slot.
        const Task t = tasks_[st.next];
        st.next += static_cast<size_t>(o_.lanes);
        st.owner = t.src_lane;
        st.u = lanes_[t.src_lane].u;
        const Stream& s = streams_[t.stream];
        st.pos = s.val_begin;
        st.end = s.val_end;
        for (uint32_t r = s.read_begin; r < s.read_end; ++r) {
          words += Miss(reads_[r], st.cache);
        }
      }
      work_[kept++] = e;
    }
    buffer_.size = static_cast<size_t>(out - buffer_.pairs.data());
    if (kept == 0) break;
    work_.resize(kept);
    ctx_.DecodeStep(static_cast<int>(kept));
    ctx_.SharedOp(FlushBuffer(false));  // one buffer read per append round
  }
  ctx_.SharedOp(FlushBuffer(true));
  if (words > 0) ctx_.DecodeWords(words);
}

// Segmented layout under levels < kFull: each lane walks its own segments
// serially (no cross-lane distribution). Reached by every segmented
// artifact run at kTwoPhase..kWarpCentric (kIntuitive walks segments inside
// RunIntuitive); bfs_test's social TaskStealing seg32 case covers it.
void WarpSim::SegmentedSerialResiduals() {
  HeaderStep(ValidLanes());  // segment-count headers

  for (;;) {
    // Open next segment for lanes whose stream is exhausted.
    size_t opening = 0;
    for (Lane& ln : lanes_) {
      if (!ln.valid || ln.pos < ln.end || ln.seg_next >= ln.seg_end) continue;
      OpenStream(ln);
      ++opening;
    }
    if (opening > 0) HeaderStep(opening);
    // One decode + append round.
    items_.Clear();
    size_t decoding = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      if (ln.pos >= ln.end) continue;
      ++decoding;
      EmitResidual(items_, ln, l, l);
    }
    if (decoding == 0 && opening == 0) break;
    if (decoding > 0) {
      ctx_.DecodeStep(static_cast<int>(decoding));
      AppendStep(items_);
    }
  }
}

WarpStats WarpSim::Run(std::span<const NodeId> chunk) {
  label_filter_.NextWarp();
  offset_filter_.NextWarp();
  bits_filter_.NextWarp();
  Decode(chunk);
  LoadFrontier(chunk);
  if (g_.options().codec != CodecId::kCgr) {
    // Byte codecs have no interval/residual split; the scheduling levels
    // collapse into one table-driven block walk.
    ByteCodecPhase();
  } else {
    HeaderPhase();
    if (o_.level == GcgtLevel::kIntuitive) {
      RunIntuitive();
    } else {
      IntervalPhase();
      if (executors_) {
        SegmentedResidualPhase();
      } else if (segmented()) {
        SegmentedSerialResiduals();
      } else if (o_.level == GcgtLevel::kTwoPhase) {
        ResidualPhaseTwoPhase();
      } else {
        ResidualPhaseStealing();
      }
    }
  }
  ChargeDecodeReads();
  return ctx_.TakeStats();
}

}  // namespace

namespace internal {

/// Worker-thread state: one reusable warp simulator plus the claim arena
/// its chunks' ClaimBatch calls fill. Arenas are cleared (capacity kept)
/// every level.
struct WorkerState {
  WorkerState(const CgrGraph& g, const GcgtOptions& o) : sim(g, o) {}
  WarpSim sim;
  ClaimArena arena;
};

/// Result of enumerating + claiming one warp chunk, before the resolve and
/// merge phases.
struct ChunkRecord {
  simt::WarpStats stats;    // decision-independent charges from the warp walk
  uint32_t worker = 0;      // which WorkerState owns the arena slices below
  uint32_t chunk_size = 0;  // frontier nodes in this warp
  size_t cand_begin = 0;
  size_t batch_begin = 0;
  size_t batch_end = 0;
};

struct EngineScratch {
  EngineScratch(const CgrGraph& g, const GcgtOptions& o)
      : pool(&SharedThreadPool(o.num_threads <= 0
                                   ? 0
                                   : static_cast<size_t>(o.num_threads))),
        serial_sim(g, o) {
    workers.reserve(pool->num_threads());
    for (size_t t = 0; t < pool->num_threads(); ++t) {
      workers.push_back(std::make_unique<WorkerState>(g, o));
    }
    if (g.partitioned() && o.ooc_resident_bytes > 0) {
      pager.Configure(g.partitions(), o.ooc_resident_bytes,
                      o.cost.cache_line_bytes);
    }
  }

  ThreadPool* pool;  // process-shared, never null
  std::vector<std::unique_ptr<WorkerState>> workers;
  std::vector<ChunkRecord> records;
  WarpSim serial_sim;
  // Out-of-core partition pager (disabled unless the graph is partitioned
  // and a resident budget is set). Driven serially in frontier order by
  // ProcessFrontier's prologue.
  ooc::PartitionPager pager;
};

}  // namespace internal

namespace {
std::atomic<uint64_t> g_engines_constructed{0};
}  // namespace

uint64_t CgrTraversalEngine::ConstructedCount() {
  return g_engines_constructed.load(std::memory_order_relaxed);
}

CgrTraversalEngine::CgrTraversalEngine(const CgrGraph& graph,
                                       const GcgtOptions& options)
    : graph_(graph), options_(options) {
  g_engines_constructed.fetch_add(1, std::memory_order_relaxed);
}

CgrTraversalEngine::~CgrTraversalEngine() = default;

void CgrTraversalEngine::ResetPager() const {
  if (scratch_) scratch_->pager.Reset();
}

uint64_t CgrTraversalEngine::PagerResidentPeak() const {
  return scratch_ ? scratch_->pager.resident_bytes_peak() : 0;
}

internal::EngineScratch& CgrTraversalEngine::Scratch() const {
  if (!scratch_) {
    scratch_ = std::make_unique<internal::EngineScratch>(graph_, options_);
  }
  return *scratch_;
}

void CgrTraversalEngine::ProcessFrontier(std::span<const NodeId> frontier,
                                         FrontierFilter& filter,
                                         std::vector<NodeId>* out_frontier,
                                         std::vector<simt::WarpStats>* warp_stats,
                                         StepTrace* trace) const {
  if (frontier.empty()) return;
  const size_t lanes = static_cast<size_t>(options_.lanes);
  internal::EngineScratch& scratch = Scratch();

  // Pager prologue (serial, frontier order): fault in every partition this
  // round's expansion will decode from, pinning it so the round's own
  // working set can't evict itself. The external-tier traffic is charged as
  // one standalone maintenance WarpStats entry: faults and spills are not
  // any warp's decode work, and a dedicated entry keeps the in-core mem_txns
  // semantics untouched — which is what keeps results and all pre-existing
  // charges bit-identical to the in-core run.
  if (scratch.pager.enabled()) {
    simt::WarpStats page;
    for (NodeId u : frontier) {
      const ooc::PartitionPager::Touch t = scratch.pager.TouchNode(u);
      page.partition_faults += t.faults;
      page.partition_spills += t.spills;
      page.partition_pins += t.pins;
      page.fault_txns += t.fault_txns;
      page.spill_txns += t.spill_txns;
    }
    scratch.pager.EndRound();
    warp_stats->push_back(page);
  }

  const size_t num_chunks = (frontier.size() + lanes - 1) / lanes;

  // Serial reference path: one chunk at a time, filter decisions inline.
  // Taken for single-threaded configs, StepTrace recording (trace steps of
  // concurrent warps would interleave), and single-chunk frontiers (nothing
  // to parallelize).
  const bool serial = options_.num_threads == 1 || trace != nullptr ||
                      num_chunks == 1 || scratch.pool->num_threads() == 1;
  if (serial) {
    for (size_t off = 0; off < frontier.size(); off += lanes) {
      size_t n = std::min<size_t>(lanes, frontier.size() - off);
      warp_stats->push_back(scratch.serial_sim.RunSerial(
          frontier.subspan(off, n), filter, out_frontier, trace));
    }
    return;
  }

  // Phase 1 (parallel): every worker enumerates its chunks' (u, v) pairs,
  // charges all decision-independent costs, and runs the filter's claim pass
  // per append slot (atomic claims + candidate recording — see
  // FrontierFilter::ClaimBatch). The warp walk never reads filter state, so
  // this is exact regardless of scheduling.
  filter.PrepareClaims();
  scratch.records.assign(num_chunks, internal::ChunkRecord{});
  for (auto& w : scratch.workers) w->arena.Clear();
  scratch.pool->ParallelFor(
      num_chunks, 1, [&](size_t worker, size_t begin, size_t end) {
        internal::WorkerState& ws = *scratch.workers[worker];
        for (size_t ci = begin; ci < end; ++ci) {
          const size_t off = ci * lanes;
          const size_t n = std::min<size_t>(lanes, frontier.size() - off);
          internal::ChunkRecord& rec = scratch.records[ci];
          rec.worker = static_cast<uint32_t>(worker);
          rec.chunk_size = static_cast<uint32_t>(n);
          rec.cand_begin = ws.arena.cands.size();
          rec.batch_begin = ws.arena.batch_ends.size();
          ClaimBatchWriter writer(ws.arena, static_cast<uint64_t>(ci) << 32);
          rec.stats =
              ws.sim.RunEnumerate(frontier.subspan(off, n), filter, writer);
          rec.batch_end = ws.arena.batch_ends.size();
        }
      });

  // Phase 2 (parallel): with every chunk's claims in place, the filter
  // settles the order-independent decisions per chunk — for claim-based
  // filters the minimum-rank claimant of each label is exactly the edge the
  // serial engine would have accepted, so winners apply their label writes
  // and compact the accepted targets here, race-free.
  for (auto& w : scratch.workers) w->arena.PrepareResolve();
  scratch.pool->ParallelFor(
      num_chunks, 1, [&](size_t /*worker*/, size_t begin, size_t end) {
        for (size_t ci = begin; ci < end; ++ci) {
          internal::ChunkRecord& rec = scratch.records[ci];
          ChunkClaims claims(scratch.workers[rec.worker]->arena, rec.cand_begin,
                             rec.batch_begin, rec.batch_end);
          filter.ResolveChunk(claims);
        }
      });

  // Phase 3 (serial prefix-sum merge, chunk order): concatenate the
  // per-chunk claim buffers into the global out-frontier and charge the
  // decision-dependent costs. Only two charge kinds depend on decisions:
  //  - filter atomics (hooking CAS, sigma/delta atomicAdd), reported by
  //    MergeBatch per append slot;
  //  - the queue-append line transactions, reconstructed from each slot's
  //    queue tail + accepted count (simt::QueueAppendCharges; label-write
  //    lines are always a subset of the visited-check gather already charged
  //    in phase 1). Order-dependent filter effects (running claim minima,
  //    float accumulation) also run here, in serial order.
  const int line_bytes = options_.cost.cache_line_bytes;
  for (size_t ci = 0; ci < num_chunks; ++ci) {
    internal::ChunkRecord& rec = scratch.records[ci];
    ChunkClaims claims(scratch.workers[rec.worker]->arena, rec.cand_begin,
                       rec.batch_begin, rec.batch_end);
    simt::QueueAppendCharges charges(kQueueBase, 4, line_bytes, rec.chunk_size);
    for (size_t b = 0; b < claims.num_batches(); ++b) {
      const size_t tail = out_frontier->size();
      if (int extra = filter.MergeBatch(claims, b, out_frontier); extra > 0) {
        rec.stats.atomics += static_cast<uint64_t>(extra);
      }
      rec.stats.mem_txns += charges.Charge(tail, out_frontier->size() - tail);
    }
    warp_stats->push_back(rec.stats);
  }
}

}  // namespace gcgt
