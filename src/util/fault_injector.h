// Deterministic, seeded fault injection for the serving stack.
//
// Chaos testing only proves something when the chaos is reproducible: the
// injector decides "fail here?" from a pure hash of (seed, injection point,
// per-point call ordinal), so the SAME seed and rate always produce the SAME
// decision sequence at every point — a failing chaos run can be replayed
// bit-for-bit by its seed. Under concurrency the ordinal is a per-point
// atomic counter: the SET of injected (point, ordinal) pairs is still a pure
// function of the seed; only which thread draws which ordinal varies.
//
// Injection points are named seams of the serving path (queue admission,
// worker serve, the pipeline's decode round, cache lookup/insert). Each
// consumer asks ShouldInject(point) and simulates its own failure mode —
// a shed admission, a thrown worker exception, an Internal decode error, a
// forced cache miss — so the injector stays policy-free.
//
// Cost when disabled: one relaxed atomic load (the common case in
// production and in every non-chaos test).
//
// Configuration is process-global (points are buried in hot paths where
// threading an instance through would be invasive). Enable/Disable must not
// race with in-flight serving: enable before constructing services, disable
// after Shutdown. GcgtService::GcgtService also calls InitFromEnv(), so any
// binary can be put under chaos externally:
//   GCGT_FAULT_SEED=42 GCGT_FAULT_RATE=0.05 [GCGT_FAULT_POINTS=0x1f] ./app
#ifndef GCGT_UTIL_FAULT_INJECTOR_H_
#define GCGT_UTIL_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace gcgt {

enum class FaultPoint : int {
  kQueueAdmit = 0,  ///< Submit/TrySubmit: admission sheds the query
  kWorkerServe,     ///< worker loop: throws before running the query
  kDecodeRound,     ///< TraversalPipeline round loop: Internal decode error
  kCacheLookup,     ///< result cache: lookup reports a miss
  kCacheInsert,     ///< result cache: insertion is dropped
  kHedgeDispatch,   ///< watchdog: a due hedge re-dispatch is suppressed
  kShedDecision,    ///< worker serve: a spurious overload shed (Unavailable)
  kWatchdogTick,    ///< watchdog: a whole tick (stuck and hedge scans) is
                    ///< skipped
  kIntersectKernel, ///< intersect engine kernel loop: Internal error
  kNumPoints,
};

inline constexpr int kNumFaultPoints = static_cast<int>(FaultPoint::kNumPoints);

const char* FaultPointName(FaultPoint point);

/// Mask with every injection point set.
inline constexpr uint32_t kAllFaultPoints = (1u << kNumFaultPoints) - 1;

struct FaultInjectorStats {
  /// ShouldInject calls / true returns per point, since the last Enable.
  std::array<uint64_t, kNumFaultPoints> evaluated{};
  std::array<uint64_t, kNumFaultPoints> injected{};

  uint64_t total_injected() const {
    uint64_t n = 0;
    for (uint64_t v : injected) n += v;
    return n;
  }
};

class FaultInjector {
 public:
  /// The process-wide injector every GCGT injection point consults.
  static FaultInjector& Global();

  /// Arms injection: each enabled point fails its n-th evaluation iff
  /// Hash(seed, point, n) maps below `rate` (clamped to [0, 1]). Resets all
  /// per-point ordinals and stats, so two Enable(seed, rate) runs over the
  /// same serial workload inject identically.
  void Enable(uint64_t seed, double rate, uint32_t point_mask = kAllFaultPoints);

  /// Disarms injection (counters keep their values for post-run assertions).
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t seed() const { return seed_; }
  double rate() const { return rate_; }

  /// The per-point decision. False whenever disabled or the point is masked
  /// out; otherwise deterministic in (seed, point, per-point ordinal).
  bool ShouldInject(FaultPoint point) {
    // Acquire pairs with Enable's release store: a point that sees the
    // injector armed also sees the seed, rate and mask Enable wrote.
    if (!enabled_.load(std::memory_order_acquire)) return false;
    return Roll(point);
  }

  /// Arms the global injector from GCGT_FAULT_SEED / GCGT_FAULT_RATE /
  /// GCGT_FAULT_POINTS (hex or decimal mask, default all) when both seed and
  /// rate are set. Returns whether injection was armed. Idempotent per
  /// Enable semantics; called by GcgtService so chaos CI jobs need no code.
  static bool InitFromEnv();

  FaultInjectorStats Stats() const;

 private:
  FaultInjector() = default;
  bool Roll(FaultPoint point);

  std::atomic<bool> enabled_{false};
  uint64_t seed_ = 0;
  double rate_ = 0.0;
  uint32_t point_mask_ = kAllFaultPoints;
  std::array<std::atomic<uint64_t>, kNumFaultPoints> ordinal_{};
  std::array<std::atomic<uint64_t>, kNumFaultPoints> evaluated_{};
  std::array<std::atomic<uint64_t>, kNumFaultPoints> injected_{};
};

}  // namespace gcgt

#endif  // GCGT_UTIL_FAULT_INJECTOR_H_
