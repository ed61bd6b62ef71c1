#include "util/thread_pool.h"

#include <algorithm>
#include <map>
#include <memory>

namespace gcgt {
namespace {

/// RAII set/restore of the calling thread's pool marker, so ParallelFor
/// restores it even when the job function throws (a leaked marker would make
/// every later call on this pool from that thread run inline forever).
class TlsMarkerGuard {
 public:
  TlsMarkerGuard(const ThreadPool** pool_slot, size_t* idx_slot,
                 const ThreadPool* pool, size_t idx)
      : pool_slot_(pool_slot),
        idx_slot_(idx_slot),
        saved_pool_(*pool_slot),
        saved_idx_(*idx_slot) {
    *pool_slot_ = pool;
    *idx_slot_ = idx;
  }
  ~TlsMarkerGuard() {
    *pool_slot_ = saved_pool_;
    *idx_slot_ = saved_idx_;
  }
  TlsMarkerGuard(const TlsMarkerGuard&) = delete;
  TlsMarkerGuard& operator=(const TlsMarkerGuard&) = delete;

 private:
  const ThreadPool** pool_slot_;
  size_t* idx_slot_;
  const ThreadPool* saved_pool_;
  size_t saved_idx_;
};

}  // namespace

thread_local const ThreadPool* ThreadPool::tl_pool_ = nullptr;
thread_local size_t ThreadPool::tl_thread_idx_ = 0;

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads_ = num_threads == 0
                     ? std::max<size_t>(1, std::thread::hardware_concurrency())
                     : num_threads;
  if (num_threads_ > 1) {
    workers_.reserve(num_threads_ - 1);
    for (size_t i = 1; i < num_threads_; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    ++epoch_;
  }
  wake_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::WorkerLoop(size_t thread_idx) {
  tl_pool_ = this;
  tl_thread_idx_ = thread_idx;
  uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    RunChunks(thread_idx);
    if (done_workers_.fetch_add(1) + 1 == num_threads_) {
      std::unique_lock<std::mutex> lock(mu_);
      finished_.notify_all();
    }
  }
}

void ThreadPool::RunChunks(size_t thread_idx) {
  for (;;) {
    size_t begin = next_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= n_) return;
    size_t end = std::min(n_, begin + grain_);
    (*job_)(thread_idx, begin, end);
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  // Nested call from one of our own workers (or from the caller thread while
  // it participates in a ParallelFor): run inline under the caller's
  // thread_idx instead of deadlocking on the single job slot.
  if (tl_pool_ == this) {
    fn(tl_thread_idx_, 0, n);
    return;
  }
  grain = std::max<size_t>(1, grain);
  if (num_threads_ == 1 || n <= grain) {
    TlsMarkerGuard guard(&tl_pool_, &tl_thread_idx_, this, 0);
    fn(0, 0, n);
    return;
  }
  // Serialize concurrent top-level callers: the pool has one job slot, and
  // engines may share a pool across host threads. Nested calls never reach
  // this lock (handled above), so it cannot self-deadlock.
  std::lock_guard<std::mutex> job_lock(job_mu_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &fn;
    n_ = n;
    grain_ = grain;
    next_.store(0, std::memory_order_relaxed);
    done_workers_.store(0, std::memory_order_relaxed);
    ++epoch_;
  }
  wake_.notify_all();
  {
    TlsMarkerGuard guard(&tl_pool_, &tl_thread_idx_, this, 0);
    RunChunks(0);
  }
  if (done_workers_.fetch_add(1) + 1 != num_threads_) {
    std::unique_lock<std::mutex> lock(mu_);
    // Acquire: when the last worker's increment is already visible here the
    // wait returns without blocking, and only this load orders that worker's
    // reads of job_/n_ before the resets below.
    finished_.wait(lock, [&] {
      return done_workers_.load(std::memory_order_acquire) == num_threads_;
    });
  }
  job_ = nullptr;
}

ThreadPool& SharedThreadPool(size_t num_threads) {
  static std::mutex mu;
  static std::map<size_t, std::unique_ptr<ThreadPool>> pools;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& pool = pools[num_threads];
  if (!pool) pool = std::make_unique<ThreadPool>(num_threads);
  return *pool;
}

}  // namespace gcgt
