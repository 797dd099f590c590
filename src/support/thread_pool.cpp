#include "support/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "support/error.hpp"

namespace v2d {

namespace {

/// True while the current thread is draining a pool job; nested run()
/// calls from such a thread execute inline to avoid deadlocking the pool.
thread_local bool t_in_pool_task = false;

int default_host_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(std::min<unsigned>(hc, kMaxHostThreads))
                : 1;
}

}  // namespace

ThreadPool::ThreadPool(int threads) : size_(threads < 1 ? 1 : threads) {
  // Unwinding past a joinable std::thread would call std::terminate.
  try {
    workers_.reserve(static_cast<std::size_t>(size_ - 1));
    for (int t = 0; t + 1 < size_; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (const std::exception& e) {
    stop();
    throw Error("started " + std::to_string(workers_.size()) + " of " +
                std::to_string(size_ - 1) + " host worker threads: " +
                e.what());
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::execute(Job& job) {
  t_in_pool_task = true;
  for (;;) {
    const int i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      job.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last index done: wake the caller blocked in run().
      std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
  t_in_pool_task = false;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_cv_.wait(lk, [&] {
        return stop_ ||
               (job_ && job_->next.load(std::memory_order_relaxed) < job_->n);
      });
      if (stop_) return;
      job = job_;
    }
    execute(*job);
  }
}

void ThreadPool::run(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1 || t_in_pool_task) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->n = n;
  job->remaining.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
  }
  wake_cv_.notify_all();
  execute(*job);  // the calling thread is a pool lane too
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return job->remaining.load(std::memory_order_acquire) == 0;
  });
  if (job_ == job) job_.reset();
  if (job->error) {
    std::exception_ptr e = job->error;
    job->error = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

namespace {

std::mutex g_host_pool_mu;
std::shared_ptr<ThreadPool> g_host_pool;

}  // namespace

std::shared_ptr<ThreadPool> host_pool() {
  std::lock_guard<std::mutex> lk(g_host_pool_mu);
  if (!g_host_pool)
    g_host_pool = std::make_shared<ThreadPool>(default_host_threads());
  return g_host_pool;
}

void check_host_threads(int threads) {
  if (threads > kMaxHostThreads)
    throw Error("host threads must be <= " + std::to_string(kMaxHostThreads) +
                ", got " + std::to_string(threads));
}

void set_host_threads(int threads) {
  check_host_threads(threads);
  const int n = threads > 0 ? threads : default_host_threads();
  std::lock_guard<std::mutex> lk(g_host_pool_mu);
  if (g_host_pool && g_host_pool->size() == n) return;
  // Drop our reference only: regions that pinned the old pool via
  // host_pool() finish on it and destroy it when the last one releases.
  g_host_pool = std::make_shared<ThreadPool>(n);
}

int host_threads() { return host_pool()->size(); }

}  // namespace v2d
