// A fixed-size worker pool with a bounded task queue.
//
// This is the concurrency substrate for parallel per-component solving
// (Lemma 2.2 makes π additive over connected components, so every component
// of a join graph can be pebbled independently). The design goals, in
// order:
//
//   - *Bounded queue.* Submit blocks once `queue_capacity` closures are
//     waiting, so a producer can never race ahead of the workers by an
//     unbounded amount of memory.
//   - *Graceful shutdown.* The destructor lets already-queued tasks finish
//     before joining the workers; nothing is dropped.
//
// The pool is intentionally dumb: no work stealing, no priorities, no
// results. Callers submit through an OrderedWindow (util/ordered_window.h),
// which keeps results and exceptions in submission order and waits for its
// own tasks only; ParallelFor is a window over the indices 0..n-1.

#ifndef PEBBLEJOIN_UTIL_THREAD_POOL_H_
#define PEBBLEJOIN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pebblejoin {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (>= 1). `queue_capacity` bounds the number
  // of not-yet-started tasks Submit will buffer before blocking.
  explicit ThreadPool(int num_threads, std::size_t queue_capacity = 256);

  // Graceful shutdown: drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task; blocks while the queue is at capacity. The task
  // must not throw (OrderedWindow catches for the tasks it submits). Must
  // not be called from inside a pool task once the queue is full (the
  // worker would block on itself).
  void Submit(std::function<void()> task);

  // Runs fn(0) .. fn(n-1) across the pool and blocks until those n calls
  // complete; other work on the pool is not waited for. When calls threw,
  // rethrows the exception of the lowest index — a deterministic choice
  // regardless of which worker failed first. Must not be called from
  // inside a pool task (it would deadlock waiting on its own worker).
  void ParallelFor(int n, const std::function<void(int)>& fn);

  // Index of the pool worker running the current thread, or -1 off-pool
  // (e.g. the thread that owns the pool). Ids are dense in [0, num_threads)
  // and stable for the pool's lifetime; trace events use them as tags.
  static int CurrentWorkerId();

  // A sensible default width: the hardware concurrency, at least 1.
  static int DefaultThreads();

 private:
  void WorkerLoop(int worker_id);

  const std::size_t queue_capacity_;
  std::mutex mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_THREAD_POOL_H_
