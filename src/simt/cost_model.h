// Cost model of the simulated GPU (TITAN V flavored).
//
// The paper's techniques are scheduling techniques: their effect is fewer
// serialized instruction slots, fewer idle lanes and fewer / better-coalesced
// device-memory transactions. The simulator counts exactly those quantities
// per warp and converts them to time; elapsed kernel time is the makespan of
// the warps over the machine's parallel warp slots (see machine.h). Absolute
// times are model time; the paper-reproduction claims are about relative
// behaviour (see EXPERIMENTS.md).
#ifndef GCGT_SIMT_COST_MODEL_H_
#define GCGT_SIMT_COST_MODEL_H_

#include <cstdint>

namespace gcgt::simt {

/// Lanes per warp. Fixed at 32 like all CUDA hardware; the engines accept a
/// smaller lane count in [1, kWarpSize] for unit tests that reproduce the
/// paper's 8-lane examples (Fig. 4).
inline constexpr int kWarpSize = 32;

struct CostModel {
  // Per warp-wide operation charges, in cycles.
  double cycles_per_step = 1.0;        ///< one issued instruction slot
  /// One warp-wide VLC-decode slot: unary scan + bit extraction is a multi-
  /// instruction sequence, priced separately so the paper's decode-vs-memory
  /// trade-off (Fig. 8: GCGT pays decode instructions to save bandwidth) is
  /// represented honestly.
  double cycles_per_decode_step = 20.0;
  /// One warp-wide append slot: visited check + contraction offsets +
  /// conditional output is likewise a multi-instruction sequence.
  double cycles_per_append_step = 12.0;
  double cycles_per_shared_op = 4.0;   ///< shared-memory round trip / shuffle
  /// First touch of a 128-byte device-memory line by a warp. Repeated
  /// touches within one warp execution hit L1 and are free (the warp context
  /// deduplicates lines).
  double cycles_per_mem_txn = 24.0;
  double cycles_per_atomic = 24.0;     ///< one global atomic
  /// One warp-wide compressed set-intersection operation (src/intersect): an
  /// interval-pair overlap test, a residual membership probe against an
  /// interval, or one element-merge / segment-skip step of a
  /// residual-vs-residual merge. Its own class (like external) so the
  /// decode-free-vs-full-decode trade-off stays explicit in the model: the
  /// ops are cheap ALU work, priced well below a decode slot.
  double cycles_per_intersect_op = 2.0;
  /// External-tier (out-of-core) latency: one line moved by a partition
  /// fault or spill costs cycles_per_mem_txn * this multiplier. 8x models a
  /// CXL/NVLink-class external memory a small integer factor slower than
  /// device HBM (PAPERS.md: EMOGI, the CXL external-memory study); raise it
  /// toward ~100x to model PCIe paging instead. Only the PartitionPager's
  /// fault_txns/spill_txns are priced with it — in-core traffic never is.
  double external_latency_multiplier = 8.0;
  double kernel_launch_cycles = 3000;  ///< fixed cost per kernel launch

  /// Bytes per device-memory line: a power of two >= 8 (checked by
  /// ValidateWarpGeometry in core/gcgt_options.h), so engines map addresses
  /// to lines by a shift.
  int cache_line_bytes = 128;

  // Machine shape.
  int num_sms = 80;
  int warps_per_sm = 8;  ///< warp slots that contribute parallel throughput
  double clock_ghz = 1.2;

  int parallel_warp_slots() const { return num_sms * warps_per_sm; }
  double CyclesToMs(double cycles) const { return cycles / (clock_ghz * 1e6); }
};

/// Simulated device memory capacity. 12 GB in the paper; benches scale it by
/// the paper's capacity ratio (12 GB / twitter CSR bytes) applied to the
/// synthetic datasets so the same engines OOM in the same places.
struct DeviceSpec {
  uint64_t memory_bytes = 12ull << 30;
};

}  // namespace gcgt::simt

#endif  // GCGT_SIMT_COST_MODEL_H_
