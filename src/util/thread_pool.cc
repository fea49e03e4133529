#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/ordered_window.h"

namespace pebblejoin {

namespace {

// -1 on every thread the pool did not spawn, including the owner.
thread_local int tls_worker_id = -1;

}  // namespace

ThreadPool::ThreadPool(int num_threads, std::size_t queue_capacity)
    : queue_capacity_(std::max<std::size_t>(1, queue_capacity)) {
  JP_CHECK_MSG(num_threads >= 1, "ThreadPool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  queue_not_empty_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::CurrentWorkerId() { return tls_worker_id; }

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::Submit(std::function<void()> task) {
  JP_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    JP_CHECK_MSG(!shutting_down_, "Submit on a shutting-down ThreadPool");
    queue_not_full_.wait(
        lock, [this] { return queue_.size() < queue_capacity_; });
    queue_.push_back(std::move(task));
  }
  queue_not_empty_.notify_one();
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  JP_CHECK(n >= 0);
  OrderedWindow<bool> window(this);
  for (int i = 0; i < n; ++i) {
    window.Submit([&fn, i] {
      fn(i);
      return true;
    });
  }
  // In index order, so the first rethrown exception is the lowest index's;
  // on a throw the window's destructor still waits for the rest.
  for (int i = 0; i < n; ++i) window.Take();
}

void ThreadPool::WorkerLoop(int worker_id) {
  tls_worker_id = worker_id;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_not_empty_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    task();
  }
}

}  // namespace pebblejoin
