// ThreadPool contract tests: bounded-queue backpressure, deterministic
// exception propagation, worker-id tagging, graceful shutdown, and a
// ParallelFor that waits for its own tasks only. The stress cases double
// as ThreadSanitizer fodder (ctest -L tsan).

#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/ordered_window.h"

namespace pebblejoin {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    OrderedWindow<bool> window(&pool);
    for (int i = 0; i < 100; ++i) {
      window.Submit([&count] {
        count.fetch_add(1, std::memory_order_relaxed);
        return true;
      });
    }
    window.AwaitAll();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait: the destructor must finish the queue, not drop it.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool pool(8);
  pool.ParallelFor(kN, [&hits](int i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesToCallerOwnedSlots) {
  // The deterministic-merge pattern: each index owns a slot, no locks.
  constexpr int kN = 256;
  std::vector<long> squares(kN, -1);
  ThreadPool pool(4);
  pool.ParallelFor(kN, [&squares](int i) {
    squares[i] = static_cast<long>(i) * i;
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(squares[i], static_cast<long>(i) * i);
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexFailure) {
  ThreadPool pool(4);
  // Several indices throw; the pool must pick index 3's message every run,
  // regardless of which worker hit its exception first.
  try {
    pool.ParallelFor(64, [](int i) {
      if (i == 3 || i == 17 || i == 40) {
        throw std::runtime_error(std::string("boom at ") + std::to_string(i));
      }
    });
    FAIL() << "ParallelFor swallowed the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 3");
  }
}

TEST(ThreadPoolTest, ParallelForRecoversAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(8, [](int i) {
        if (i == 0) throw std::runtime_error("first batch");
      }),
      std::runtime_error);
  // The pool stays usable: a later batch runs cleanly.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&count](int) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, ParallelForDoesNotWaitForOtherSubmitters) {
  // One worker is parked on a task another caller submitted; ParallelFor
  // must return once its own four calls are done, while that task is still
  // parked. The timeout turns a wait on the whole pool into a failure
  // instead of a hang.
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  OrderedWindow<bool> parked(&pool);
  parked.Submit([opened] {
    opened.wait();
    return true;
  });
  std::atomic<int> calls{0};
  std::future<void> parallel_for = std::async(std::launch::async, [&] {
    pool.ParallelFor(4, [&calls](int) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
  });
  const bool returned = parallel_for.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  gate.set_value();
  parallel_for.get();
  EXPECT_TRUE(returned) << "ParallelFor waited for a task it did not submit";
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPoolTest, BoundedQueueBackpressure) {
  // Capacity 2 with a blocked worker: Submit must block rather than buffer
  // unboundedly, and everything still completes once the worker is released.
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  {
    ThreadPool pool(1, /*queue_capacity=*/2);
    OrderedWindow<bool> gated(&pool);
    gated.Submit([&] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      done.fetch_add(1, std::memory_order_relaxed);
      return true;
    });
    // These fill the queue; the submitting thread may block on the last
    // ones until the gate opens, which is the point. Its window waits for
    // its eight tasks before the thread ends.
    std::thread producer([&] {
      OrderedWindow<bool> window(&pool);
      for (int i = 0; i < 8; ++i) {
        window.Submit([&done] {
          done.fetch_add(1, std::memory_order_relaxed);
          return true;
        });
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_LT(done.load(), 9);  // gate still closed: nothing finished
    release.store(true, std::memory_order_release);
    producer.join();
    gated.AwaitAll();
  }
  EXPECT_EQ(done.load(), 9);
}

TEST(ThreadPoolTest, CurrentWorkerIdIsDenseOnPoolAndMinusOneOff) {
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), -1);
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::vector<std::atomic<int>> seen(kThreads);
  pool.ParallelFor(256, [&](int) {
    const int id = ThreadPool::CurrentWorkerId();
    ASSERT_GE(id, 0);
    ASSERT_LT(id, kThreads);
    seen[id].fetch_add(1, std::memory_order_relaxed);
  });
  int total = 0;
  for (int i = 0; i < kThreads; ++i) total += seen[i].load();
  EXPECT_EQ(total, 256);
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), -1);  // owner thread is off-pool
}

TEST(ThreadPoolTest, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, ConcurrentStress) {
  // Many small tasks hammering shared atomics from several pool widths;
  // primarily a TSan target.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads, /*queue_capacity=*/16);
    std::atomic<long> sum{0};
    OrderedWindow<bool> window(&pool);
    for (int i = 0; i < 500; ++i) {
      window.Submit([&sum, i] {
        sum.fetch_add(i, std::memory_order_relaxed);
        return true;
      });
    }
    window.AwaitAll();
    EXPECT_EQ(sum.load(), 500L * 499 / 2) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace pebblejoin
