#pragma once
/// \file thread_pool.hpp
/// \brief Host-side worker pool for rank-parallel execution.
///
/// The simulator runs every simulated rank's numerics on the host; until
/// now they ran serially on one thread.  This pool lets the per-rank tasks
/// of one operation execute concurrently on the host cores.  Scheduling
/// carries no numerical meaning: rank tasks own disjoint tiles and
/// disjoint clock/ledger slots, so any interleaving produces bit-identical
/// fields, recordings and simulated clocks — the pool is purely a host
/// wall-clock optimization.  Collectives (ExecModel::exchange/allreduce)
/// are serial barrier points and must stay outside parallel regions.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace v2d {

class ThreadPool {
public:
  /// A pool with `threads` execution lanes in total.  The calling thread
  /// participates in every run(), so `threads - 1` workers are spawned.
  /// If one cannot start, the workers already started are stopped and
  /// joined, and the failure is thrown as a v2d::Error.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Run fn(0) .. fn(n-1), each index exactly once, distributed over the
  /// pool's lanes.  Blocks until every index has completed; the first
  /// exception thrown by any task is rethrown here.  Calls made from
  /// inside a pool task execute inline (no nested parallelism).
  void run(int n, const std::function<void(int)>& fn);

private:
  /// One parallel region.  Workers hold a shared_ptr to the job they are
  /// draining, so a late worker can never touch a caller's stack after
  /// run() returned or mistake a fresh job's indices for an old job's.
  struct Job {
    std::function<void(int)> fn;
    int n = 0;
    std::atomic<int> next{0};
    std::atomic<int> remaining{0};
    std::exception_ptr error;  ///< first failure; guarded by mu_
  };

  void worker_loop();
  void execute(Job& job);
  /// Stop and join every started worker.
  void stop();

  int size_ = 1;
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Process-wide pool used by the rank-parallel helpers.  Sized by
/// set_host_threads(); defaults to the hardware concurrency.  Callers pin
/// the pool with the returned shared_ptr for the duration of a region, so
/// a concurrent set_host_threads() can never destroy a pool mid-region —
/// a replaced pool lives until its last in-flight region releases it.
std::shared_ptr<ThreadPool> host_pool();

/// The most lanes the global pool may have.  A larger request is a usage
/// error, never an attempt to start that many threads; the
/// hardware-concurrency default is clamped to it.
inline constexpr int kMaxHostThreads = 1024;

/// Throw a v2d::Error unless `threads` <= kMaxHostThreads.  Option readers
/// call it so that the error names their option.
void check_host_threads(int threads);

/// Resize the global pool (`threads <= 0` restores the hardware-concurrency
/// default; above kMaxHostThreads it throws).  Regions already running keep
/// the old pool alive and finish on it; only subsequent parallel_for calls
/// see the new size.
void set_host_threads(int threads);

/// Current lane count of the global pool.
int host_threads();

/// parallel_for over the global pool, with a serial fast path when the
/// pool has a single lane or there is at most one index.
template <typename Fn>
void parallel_for(int n, Fn&& fn) {
  const std::shared_ptr<ThreadPool> pool = host_pool();  // pins the pool
  if (n <= 1 || pool->size() <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->run(n, std::function<void(int)>(std::forward<Fn>(fn)));
}

/// Rank-parallel loop over a decomposition-like object (anything with
/// nranks()): runs fn(rank) for every simulated rank, concurrently when
/// the host pool has more than one lane.  Only valid when ranks touch
/// disjoint data — which every V2D rank loop guarantees, since ranks own
/// disjoint tiles.  For priced loops that commit kernel calls, use the
/// ExecContext-aware overload in linalg/exec_context.hpp instead.
template <typename Dec, typename Fn>
void par_ranks(const Dec& dec, Fn&& fn) {
  parallel_for(dec.nranks(), std::forward<Fn>(fn));
}

}  // namespace v2d
