// Priority- and deadline-aware bounded admission queue for the serving tier.
//
// Under burst load a deep plain-FIFO queue lets deadline-doomed work starve
// feasible queries. This queue sits at the GcgtService front end and adds
// three overload-control mechanisms, all deterministic for a fixed (clock,
// arrival, pop) trace:
//
//  - Strict priority classes + EDF. Entries are kept in one ordered map per
//    QueryPriority class, keyed (deadline, arrival seq). Pop always serves
//    the highest-priority non-empty class, earliest deadline first, arrival
//    order as the tie-break; entries without a deadline sort after every
//    deadlined entry of their class (FIFO among themselves). A batch query
//    with an imminent deadline never preempts interactive work — the classes
//    are strict, EDF applies within a class.
//  - Lazy expiry sweeping. An entry whose deadline passes while queued is
//    never handed to a consumer as work: each Pop first sweeps the expired
//    front of every class map into PopOutcome::expired (the fronts are
//    exactly where expired entries live, so the sweep is O(expired)). The
//    caller fails those entries without spending worker time. "Lazy" means
//    the sweep runs at pop activity, not on a timer — an expired entry can
//    sit until a worker next drains.
//  - CoDel-style sojourn shedding. The controller watches the queueing delay
//    of POPPED entries (sojourn time = pop - push). While it stays at or
//    above `shed_target` continuously for `shed_interval`, each pop sheds
//    one entry from the BACK of the LOWEST-priority non-empty class (the
//    least-urgent, least-important queued work) into PopOutcome::shed — so
//    the shed rate tracks the drain rate, standing-queue delay is bounded,
//    and a single sub-target pop resets the controller.
//
// FIFO mode (`AdmissionQueueOptions::edf = false`) is a plain bounded FIFO —
// one global arrival-order queue, no sweeping, no shedding — and is the A/B
// baseline the overload bench compares against.
//
// Contracts in both modes: Push blocks while full and returns false only
// once closed (a failed Push never consumes the item); TryPush sheds instead
// of blocking; after Close, Pop drains every accepted entry (as an item, an
// expiry, or a shed) before reporting open=false. The clock
// is injectable (`now_fn`) so EDF ordering, sweeping and shedding are unit-
// testable without real sleeps.
#ifndef GCGT_UTIL_ADMISSION_QUEUE_H_
#define GCGT_UTIL_ADMISSION_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace gcgt {

/// Strict service classes for admission ordering. Lower value = served
/// first; shedding removes from the highest value (least important) first.
enum class QueryPriority : int {
  kInteractive = 0,  ///< latency-sensitive, served ahead of everything
  kBatch = 1,        ///< throughput work that tolerates queueing
  kBestEffort = 2,   ///< scavenger class: first to shed under overload
};

inline constexpr int kNumQueryPriorities = 3;

inline const char* QueryPriorityName(QueryPriority priority) {
  switch (priority) {
    case QueryPriority::kInteractive: return "interactive";
    case QueryPriority::kBatch: return "batch";
    case QueryPriority::kBestEffort: return "best_effort";
  }
  return "unknown";
}

struct AdmissionQueueOptions {
  size_t capacity = 256;
  /// EDF discipline (see file comment). false = legacy global FIFO: no
  /// reordering, no expiry sweeping, no shedding.
  bool edf = true;
  /// Sojourn-time target for the CoDel-style controller; 0 disables
  /// shedding. Only meaningful in EDF mode.
  std::chrono::nanoseconds shed_target{0};
  /// How long sojourn must stay at/above target before shedding starts.
  std::chrono::nanoseconds shed_interval{std::chrono::milliseconds(100)};
};

struct AdmissionQueueStats {
  uint64_t pushed = 0;   ///< entries accepted (Push true / TryPush kOk)
  uint64_t popped = 0;   ///< entries handed to a consumer as live work
  uint64_t expired = 0;  ///< entries swept: deadline passed while queued
  uint64_t shed = 0;     ///< entries shed by the sojourn controller
};

template <typename T>
class AdmissionQueue {
 public:
  using Clock = std::chrono::steady_clock;
  using NowFn = std::function<Clock::time_point()>;
  enum class PushResult { kOk, kFull, kClosed };

  explicit AdmissionQueue(const AdmissionQueueOptions& options,
                          NowFn now_fn = nullptr)
      : options_(options), now_fn_(std::move(now_fn)) {
    if (options_.capacity < 1) options_.capacity = 1;
  }

  /// Blocks while full (backpressure); false once closed — and a false Push
  /// never consumes `item`. `deadline` is the entry's EDF key and expiry
  /// time (time_point::max() = none).
  bool Push(T& item, QueryPriority priority,
            Clock::time_point deadline = Clock::time_point::max()) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || size_ < options_.capacity; });
    if (closed_) return false;
    Enqueue(std::move(item), priority, deadline);
    not_empty_.notify_one();
    return true;
  }

  /// Sheds instead of blocking: kFull leaves `item` untouched.
  PushResult TryPush(T& item, QueryPriority priority,
                     Clock::time_point deadline = Clock::time_point::max()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (size_ >= options_.capacity) return PushResult::kFull;
    Enqueue(std::move(item), priority, deadline);
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  struct PopOutcome {
    std::optional<T> item;   ///< the selected live entry, if any
    std::vector<T> expired;  ///< swept this call: deadline passed in queue
    std::vector<T> shed;     ///< shed this call by the sojourn controller
    /// False only once the queue is closed AND fully drained — the consumer
    /// exit condition. A Pop may return open=true with no item when it only
    /// swept expired entries (the caller fails those and pops again).
    bool open = true;
  };

  /// Blocks until an entry is available or the queue is closed and drained.
  /// Expired entries never surface as `item`.
  PopOutcome Pop() {
    PopOutcome out;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (size_ == 0) {
        if (closed_) {
          out.open = false;
          return out;
        }
        not_empty_.wait(lock, [&] { return closed_ || size_ != 0; });
        continue;  // re-derive: closed-and-empty exits above
      }
      const Clock::time_point now = Now();
      if (options_.edf) {
        SweepExpiredLocked(now, &out.expired);
        if (size_ == 0) {
          if (!out.expired.empty()) {
            // Hand the sweep back now rather than blocking with doomed
            // entries in hand; the caller fails them and pops again.
            not_full_.notify_all();
            return out;
          }
          continue;
        }
      }
      // Select: highest-priority non-empty class, then the map order
      // (EDF mode: earliest deadline, arrival tie-break; FIFO mode: one
      // class in arrival order).
      int cls = 0;
      while (classes_[cls].empty()) ++cls;
      auto it = classes_[cls].begin();
      Entry entry = std::move(it->second);
      classes_[cls].erase(it);
      --size_;
      ++stats_.popped;
      // CoDel-style controller on the popped entry's sojourn time.
      if (options_.edf && options_.shed_target.count() > 0) {
        if (now - entry.enqueued < options_.shed_target) {
          above_since_.reset();
        } else {
          if (!above_since_) above_since_ = now;
          if (now - *above_since_ >= options_.shed_interval) {
            ShedOneLocked(&out.shed);
          }
        }
      }
      out.item = std::move(entry.item);
      not_full_.notify_all();
      return out;
    }
  }

  /// Stops admissions; Pop drains what was accepted, then reports
  /// open=false. Idempotent.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  size_t capacity() const { return options_.capacity; }
  AdmissionQueueStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Entry {
    T item;
    Clock::time_point enqueued;
  };
  /// EDF key: (deadline, arrival seq). No-deadline entries carry max() —
  /// FIFO among themselves, after every deadlined entry of the class.
  using Key = std::pair<Clock::time_point, uint64_t>;

  Clock::time_point Now() const { return now_fn_ ? now_fn_() : Clock::now(); }

  void Enqueue(T item, QueryPriority priority, Clock::time_point deadline) {
    const uint64_t seq = seq_++;
    int cls = static_cast<int>(priority);
    Key key{deadline, seq};
    if (!options_.edf) {
      // FIFO mode: one class, pure arrival order, deadlines ignored for
      // ordering and sweeping.
      cls = 0;
      key = Key{Clock::time_point::min(), seq};
    }
    classes_[cls].emplace(key, Entry{std::move(item), Now()});
    ++size_;
    ++stats_.pushed;
  }

  void SweepExpiredLocked(Clock::time_point now, std::vector<T>* expired) {
    for (auto& cls : classes_) {
      // Expired entries are exactly the front run of the class map (EDF key
      // leads with the deadline), so the sweep is O(number swept).
      while (!cls.empty() && cls.begin()->first.first <= now) {
        expired->push_back(std::move(cls.begin()->second.item));
        cls.erase(cls.begin());
        --size_;
        ++stats_.expired;
      }
    }
  }

  void ShedOneLocked(std::vector<T>* shed) {
    for (int cls = kNumQueryPriorities - 1; cls >= 0; --cls) {
      auto& m = classes_[cls];
      if (m.empty()) continue;
      auto it = std::prev(m.end());  // least-urgent entry of the class
      shed->push_back(std::move(it->second.item));
      m.erase(it);
      --size_;
      ++stats_.shed;
      return;
    }
  }

  AdmissionQueueOptions options_;
  NowFn now_fn_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  bool closed_ = false;
  size_t size_ = 0;
  uint64_t seq_ = 0;
  std::map<Key, Entry> classes_[kNumQueryPriorities];
  std::optional<Clock::time_point> above_since_;  // sojourn >= target since
  AdmissionQueueStats stats_;
};

}  // namespace gcgt

#endif  // GCGT_UTIL_ADMISSION_QUEUE_H_
