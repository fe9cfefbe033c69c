#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>

#include "common/require.hpp"

namespace unp {

ThreadPool::ThreadPool(std::size_t threads) {
  UNP_REQUIRE(threads >= 1);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    UNP_REQUIRE(!stop_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const std::size_t lanes = std::min(n, thread_count());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    submit([&next, &error_mutex, &error, n, &fn] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          // Keep the first failure and hand out no further indices.
          const std::lock_guard lock(error_mutex);
          if (!error) error = std::current_exception();
          next.store(n, std::memory_order_relaxed);
        }
      }
    });
  }
  wait_idle();
  if (error) std::rethrow_exception(error);
}

}  // namespace unp
