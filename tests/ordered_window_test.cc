// OrderedWindow contract tests: results come back in submission order
// whatever order they finish in, a throwing task fails its own slot only,
// AwaitAll and the destructor wait for the window's tasks, and the landing
// hook runs before a task lets go of the window. Runs under
// ThreadSanitizer in CI (ctest -L tsan).

#include "util/ordered_window.h"

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace pebblejoin {
namespace {

TEST(OrderedWindowTest, OutOfOrderCompletionIsTakenInOrderOnAPool) {
  // Task 0 is parked until tasks 1..7 have all finished, so the window
  // holds seven done results behind one that is not.
  ThreadPool pool(4);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> finished{0};
  OrderedWindow<int> window(&pool);
  window.Submit([opened] {
    opened.wait();
    return 0;
  });
  for (int i = 1; i < 8; ++i) {
    window.Submit([&finished, i] {
      finished.fetch_add(1, std::memory_order_release);
      return i;
    });
  }
  while (finished.load(std::memory_order_acquire) < 7) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int value = -1;
  EXPECT_FALSE(window.TryTake(&value));  // the oldest is not done
  EXPECT_EQ(window.size(), 8u);
  gate.set_value();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(window.Take(), i);
  EXPECT_TRUE(window.empty());
}

TEST(OrderedWindowTest, InlineTasksAndPushedValuesShareOneOrder) {
  // No pool: Submit runs the task before it returns, and a pushed value
  // takes the next slot like any other.
  OrderedWindow<std::string> window(nullptr);
  const std::thread::id owner = std::this_thread::get_id();
  bool ran_inline = false;
  window.Submit([&] {
    ran_inline = std::this_thread::get_id() == owner;
    return std::string("solved 1");
  });
  window.Push("rejected 2");
  window.Submit([] { return std::string("solved 3"); });
  EXPECT_TRUE(ran_inline);
  std::string value;
  ASSERT_TRUE(window.TryTake(&value));
  EXPECT_EQ(value, "solved 1");
  ASSERT_TRUE(window.TryTake(&value));
  EXPECT_EQ(value, "rejected 2");
  EXPECT_EQ(window.Take(), "solved 3");
  EXPECT_FALSE(window.TryTake(&value));
}

TEST(OrderedWindowTest, AThrowingTaskIsRethrownInItsTurn) {
  for (bool with_pool : {false, true}) {
    ThreadPool pool(3);
    OrderedWindow<int> window(with_pool ? &pool : nullptr);
    for (int i = 0; i < 6; ++i) {
      window.Submit([i] {
        if (i == 2 || i == 4) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
        return i;
      });
    }
    EXPECT_EQ(window.Take(), 0);
    EXPECT_EQ(window.Take(), 1);
    try {
      window.Take();
      FAIL() << "the failed slot was taken without its exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 2");
    }
    // Later results still arrive, the next failure in its own turn.
    EXPECT_EQ(window.Take(), 3);
    window.AwaitAll();  // slot 4 is done, so TryTake must take it
    int value = -1;
    EXPECT_THROW(window.TryTake(&value), std::runtime_error);
    EXPECT_EQ(window.Take(), 5);
    EXPECT_TRUE(window.empty()) << "with_pool=" << with_pool;
  }
}

TEST(OrderedWindowTest, AwaitAllAndDestructionLeaveUntakenResults) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  {
    OrderedWindow<int> window(&pool);
    for (int i = 0; i < 16; ++i) {
      window.Submit([&ran, i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1, std::memory_order_relaxed);
        return i;
      });
    }
    window.AwaitAll();
    EXPECT_EQ(ran.load(), 16);
    // Every result is still there, done, in order.
    int value = -1;
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(window.TryTake(&value));
      EXPECT_EQ(value, i);
    }
  }
  // A window destroyed with tasks still running and nothing taken waits
  // for them; their results go with it.
  {
    OrderedWindow<int> window(&pool);
    for (int i = 0; i < 8; ++i) {
      window.Submit([&ran, i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ran.fetch_add(1, std::memory_order_relaxed);
        return i;
      });
    }
  }
  EXPECT_EQ(ran.load(), 24);
}

TEST(OrderedWindowTest, TheHookRunsBeforeTheWindowIsReleased) {
  // Each hook finds its own task's result already takeable (one worker, so
  // the oldest slot is always the hook's own), and AwaitAll cannot return
  // until every hook has finished: the barrier that lets serve wake its
  // loop from a task without outliving the connection.
  ThreadPool pool(1);
  std::vector<int> taken_by_hooks;  // the one worker's until AwaitAll
  std::atomic<int> hooks{0};
  OrderedWindow<int>* self = nullptr;
  OrderedWindow<int> window(&pool, [&] {
    int value = -1;
    if (self->TryTake(&value)) taken_by_hooks.push_back(value);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    hooks.fetch_add(1, std::memory_order_release);
  });
  self = &window;
  for (int i = 0; i < 4; ++i) {
    window.Submit([i] { return i; });
  }
  window.AwaitAll();
  EXPECT_EQ(hooks.load(std::memory_order_acquire), 4);
  EXPECT_EQ(taken_by_hooks, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(window.empty());
}

}  // namespace
}  // namespace pebblejoin
