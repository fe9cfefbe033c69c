#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/require.hpp"

namespace unp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPool, ParallelForResultIndependentOfThreads) {
  std::vector<double> out1(257), out4(257);
  {
    ThreadPool pool(1);
    pool.parallel_for(out1.size(),
                      [&](std::size_t i) { out1[i] = static_cast<double>(i * i); });
  }
  {
    ThreadPool pool(4);
    pool.parallel_for(out4.size(),
                      [&](std::size_t i) { out4[i] = static_cast<double>(i * i); });
  }
  EXPECT_EQ(out1, out4);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForRethrowsAfterEveryLaneReturns) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> after_throw{0};
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t i) {
                                   running.fetch_add(1);
                                   if (i == 17) {
                                     running.fetch_sub(1);
                                     throw std::runtime_error("task 17");
                                   }
                                   running.fetch_sub(1);
                                 }),
               std::runtime_error);
  // Every lane has returned before the exception reached the caller.
  EXPECT_EQ(running.load(), 0);
  // The pool stays usable.
  pool.parallel_for(8, [&](std::size_t) { after_throw.fetch_add(1); });
  EXPECT_EQ(after_throw.load(), 8);
}

TEST(ThreadPool, RequiresAtLeastOneThread) {
  EXPECT_THROW(ThreadPool(0), ContractViolation);
}

}  // namespace
}  // namespace unp
