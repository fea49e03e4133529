// OrderedWindow<T>: the one fan-out. Tasks run on a borrowed ThreadPool,
// or inline when the pool is null, and their results are taken back in
// submission order. Batch lines, served requests and ParallelFor's
// component ranges all go through it (by Lemma 2.2 each is an independent
// solve). A task that throws marks its slot done and the take of that
// slot rethrows, in turn, so the lowest index fails first. AwaitAll waits
// for this window's own tasks only; the destructor calls it. One owner
// thread submits and takes.

#ifndef PEBBLEJOIN_UTIL_ORDERED_WINDOW_H_
#define PEBBLEJOIN_UTIL_ORDERED_WINDOW_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace pebblejoin {

template <typename T>
class OrderedWindow {
 public:
  // `pool` is borrowed; null runs tasks inline. `on_done` runs on the
  // task's thread after its result landed and before the task lets go of
  // the window: serve's wake-up for a poll loop not blocked in Take().
  explicit OrderedWindow(ThreadPool* pool,
                         std::function<void()> on_done = nullptr)
      : pool_(pool), on_done_(std::move(on_done)) {}
  ~OrderedWindow() { AwaitAll(); }

  // Runs `task` (blocking while the pool's queue is full); its result, or
  // its exception, fills the next slot.
  void Submit(std::function<T()> task) {
    int64_t seq;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seq = first_seq_ + static_cast<int64_t>(slots_.size());
      slots_.emplace_back();
      ++running_;
    }
    auto run = [this, seq, task = std::move(task)] {
      Slot done;
      try {
        done.value.emplace(task());
      } catch (...) {
        done.error = std::current_exception();
      }
      done.done = true;
      {
        std::lock_guard<std::mutex> lock(mu_);
        slots_[static_cast<size_t>(seq - first_seq_)] = std::move(done);
      }
      if (on_done_) on_done_();
      // Released under the mutex: AwaitAll re-checks under it, so the
      // window cannot be destroyed while this notify is still running.
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      changed_.notify_all();
    };
    if (pool_ != nullptr) {
      pool_->Submit(std::move(run));
    } else {
      run();
    }
  }

  // Fills the next slot with a value that is already done.
  void Push(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(Slot{true, std::move(value), nullptr});
  }

  // Takes the oldest result into `*out` if it is done; false otherwise.
  bool TryTake(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    if (slots_.empty() || !slots_.front().done) return false;
    *out = PopFront(&lock);
    return true;
  }

  // Blocks until the oldest result is done and takes it. Not on an empty
  // window.
  T Take() {
    std::unique_lock<std::mutex> lock(mu_);
    JP_CHECK_MSG(!slots_.empty(), "Take on an empty OrderedWindow");
    changed_.wait(lock, [this] { return slots_.front().done; });
    return PopFront(&lock);
  }

  // Slots not yet taken, running ones included.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }
  bool empty() const { return size() == 0; }

  // Blocks until every task of this window has let go of it. Untaken
  // results stay takeable.
  void AwaitAll() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this] { return running_ == 0; });
  }

 private:
  struct Slot {
    bool done = false;
    std::optional<T> value;
    std::exception_ptr error;
  };

  // Removes the done front slot; returns its value or rethrows its error.
  T PopFront(std::unique_lock<std::mutex>* lock) {
    Slot slot = std::move(slots_.front());
    slots_.pop_front();
    ++first_seq_;
    lock->unlock();
    if (slot.error) std::rethrow_exception(slot.error);
    return std::move(*slot.value);
  }

  ThreadPool* const pool_;
  const std::function<void()> on_done_;
  mutable std::mutex mu_;
  std::condition_variable changed_;  // a task let go
  std::deque<Slot> slots_;           // slots_[i] has sequence first_seq_ + i
  int64_t first_seq_ = 0;
  int64_t running_ = 0;              // submitted tasks not yet let go
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_ORDERED_WINDOW_H_
