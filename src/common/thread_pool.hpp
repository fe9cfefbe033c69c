// Minimal fixed-size thread pool.
//
// Used by the live memory scanner (to split the resident buffer across
// cores, as the original tool split its 3 GB allocation) and by the campaign
// driver (per-node timelines are independent and embarrassingly parallel).
// Determinism note: the pool only parallelizes work whose outputs are merged
// in index order, so results never depend on scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace unp {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1; pass hardware_concurrency() for auto).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Tasks must not throw; wrap fallible work yourself.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// `fn` must be safe to invoke concurrently for distinct indices.  If a
  /// call throws, no further index starts, and the first exception is
  /// rethrown here once every lane has returned.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace unp
