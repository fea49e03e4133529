#include "serve/connection.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "obs/log.h"
#include "obs/probe.h"
#include "serve/fault_injector.h"
#include "serve/request_router.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace pebblejoin {
namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Most bytes one poll iteration will read before giving writes a turn —
// a firehose client cannot starve its own responses.
constexpr size_t kReadBudgetPerWake = size_t{64} << 10;

}  // namespace

Connection::Connection(int fd, int64_t id, const ConnectionEnv& env)
    : fd_(fd), id_(id), env_(env) {
  JP_CHECK(env_.options != nullptr && env_.router != nullptr &&
           env_.injector != nullptr && env_.clock_ms && env_.phase != nullptr &&
           env_.drain_deadline_ms != nullptr);
  SetNonBlocking(fd_);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  JP_CHECK_MSG(::pipe(wake_fds_) == 0, "pipe() failed");
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);
  last_read_ms_ = NowMs();
  last_write_progress_ms_ = last_read_ms_;
}

Connection::~Connection() {
  if (!fd_closed_) ::close(fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void Connection::Wake() {
  const char byte = 1;
  // A full pipe already guarantees a pending wake-up; EAGAIN is success.
  (void)!::write(wake_fds_[1], &byte, 1);
}

void Connection::Deposit(int64_t seq, std::string response) {
  std::lock_guard<std::mutex> lock(mutex_);
  completions_[seq] = std::move(response);
}

void Connection::SubmitSolve(std::string line, int64_t line_number) {
  const int64_t seq = next_submit_seq_++;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++inflight_;
  }
  auto task = [this, line = std::move(line), line_number, seq]() {
    // The request's wall clock comes off the probe in microseconds; the
    // injectable millisecond clock only drives admission and the windows.
    Probe probe = Probe::Timed("request", "serve");
    const int64_t start_ms = NowMs();
    JsonlRequestRunner::Outcome outcome;
    // Generated correlation id for lines without a client "id": stable,
    // unique per (connection, line), and never echoed in the response.
    // Formatted rather than concatenated: GCC 12 at -O2 raises a false
    // -Wrestrict on the `"c" + std::to_string(...)` chain.
    char fallback_id[48];
    std::snprintf(fallback_id, sizeof(fallback_id), "c%lld-%lld",
                  static_cast<long long>(id_),
                  static_cast<long long>(line_number));
    std::string response =
        env_.router->RunSolve(line, line_number, start_ms, fallback_id,
                              &outcome);
    const int64_t wall_us = probe.Stop().wall_us;
    env_.router->RecordCompletion(outcome, wall_us, NowMs());
    env_.router->ReleaseSolve(id_);
    response += '\n';
    {
      std::lock_guard<std::mutex> lock(mutex_);
      completions_[seq] = std::move(response);
    }
    // Destruction barrier: the connection cannot be torn down until
    // inflight_ reaches zero, so the wake-pipe write must happen while
    // our slot still pins the object, and the decrement + notify must
    // stay under the mutex — AwaitInflight re-checks the predicate under
    // that same mutex, so it cannot return (and the acceptor cannot
    // destroy us) while this notify is still in flight.
    Wake();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --inflight_;
      inflight_cv_.notify_all();
    }
  };
  if (env_.pool != nullptr) {
    env_.pool->Submit(task);
  } else {
    task();
  }
}

void Connection::HandleLine() {
  ++line_number_;
  ++lines_;
  switch (RequestRouter::Classify(cur_line_)) {
    case RequestRouter::LineClass::kBlank:
      return;  // counted, never answered — matches batch
    case RequestRouter::LineClass::kHttp: {
      // One-shot HTTP exchange on the JSONL port: answer, flush, close.
      // The rest of the request (headers) is read and discarded so the
      // client can finish sending before it sees our close.
      const int64_t seq = next_submit_seq_++;
      Deposit(seq, env_.router->HttpResponse(cur_line_, NowMs()));
      discard_input_ = true;
      close_after_flush_ = true;
      return;
    }
    case RequestRouter::LineClass::kSolve: {
      std::string reason;
      if (!env_.router->AdmitSolve(id_, &reason)) {
        ++rejected_;
        log_->Emit(LogLevel::kWarn, "request.reject",
                   {LogField::Num("line", line_number_),
                    LogField::Str("reason", reason)});
        const int64_t seq = next_submit_seq_++;
        Deposit(seq, env_.router->RejectRecord(line_number_, reason, NowMs()) +
                         "\n");
        return;
      }
      SubmitSolve(cur_line_, line_number_);
      return;
    }
  }
}

void Connection::HandleBytes(const char* data, size_t n) {
  const int64_t cap = env_.options->max_line_bytes;
  for (size_t i = 0; i < n; ++i) {
    if (discard_input_) return;
    const char c = data[i];
    if (c == '\n') {
      if (discarding_line_) {
        // The oversized line was already answered when the cap tripped.
        discarding_line_ = false;
      } else {
        HandleLine();
      }
      cur_line_.clear();
      continue;
    }
    if (discarding_line_) continue;
    cur_line_.push_back(c);
    if (cap > 0 && static_cast<int64_t>(cur_line_.size()) > cap) {
      // Answer now and eat the rest as it streams in: the per-line buffer
      // never exceeds the cap no matter how much the client sends.
      ++line_number_;
      ++lines_;
      log_->Emit(LogLevel::kWarn, "request.reject",
                 {LogField::Num("line", line_number_),
                  LogField::Str("reason", "line too long"),
                  LogField::Num("cap_bytes", cap)});
      const int64_t seq = next_submit_seq_++;
      Deposit(seq, env_.router->RejectRecord(
                       line_number_,
                       "line exceeds " + std::to_string(cap) + " bytes",
                       NowMs()) +
                       "\n");
      ++rejected_;
      discarding_line_ = true;
      cur_line_.clear();
    }
  }
}

void Connection::CollectCompletions() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = completions_.find(next_write_seq_);
  while (it != completions_.end()) {
    if (!fatal_) outbuf_ += it->second;
    ++responses_;
    completions_.erase(it);
    it = completions_.find(++next_write_seq_);
  }
}

bool Connection::FlushSome() {
  if (fatal_) return true;
  while (outbuf_off_ < outbuf_.size()) {
    const ssize_t n = env_.injector->Write(fd_, outbuf_.data() + outbuf_off_,
                                           outbuf_.size() - outbuf_off_);
    if (n > 0) {
      outbuf_off_ += static_cast<size_t>(n);
      last_write_progress_ms_ = NowMs();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer closed its receive side (EPIPE & friends): the connection is
    // over; in-flight work still finishes and is discarded.
    fatal_ = true;
    close_reason_ = "write-error";
    return false;
  }
  if (outbuf_off_ >= outbuf_.size()) {
    outbuf_.clear();
    outbuf_off_ = 0;
  }
  return true;
}

void Connection::AwaitInflight() {
  std::unique_lock<std::mutex> lock(mutex_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void Connection::Run() {
  EventLog log(env_.journal, env_.flight_recorder);
  log.AddBaseField(LogField::Num("conn", id_));
  log_ = &log;
  log.Emit(LogLevel::kInfo, "conn.open", {});

  char buf[4096];
  while (true) {
    const ServePhase phase = Phase();
    if (phase == ServePhase::kAborting) {
      fatal_ = true;
      close_reason_ = "abort";
      break;
    }
    if (phase == ServePhase::kDraining && !discard_input_) {
      discard_input_ = true;  // stop taking new requests; finish in-flight
    }
    if (phase == ServePhase::kDraining) {
      const int64_t deadline =
          env_.drain_deadline_ms->load(std::memory_order_acquire);
      if (deadline >= 0 && NowMs() >= deadline) {
        fatal_ = true;  // drain budget spent: force-close, discard output
        close_reason_ = "drain-deadline";
        break;
      }
    }

    CollectCompletions();
    if (!FlushSome()) break;

    const bool flushed = outbuf_off_ >= outbuf_.size();
    bool quiescent;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quiescent = inflight_ == 0 && completions_.empty();
    }
    if (quiescent && flushed &&
        (eof_ || discard_input_ || close_after_flush_)) {
      if (close_reason_ == "eof" && !eof_) {
        close_reason_ = close_after_flush_ ? "http" : "drain";
      }
      break;
    }

    const int64_t now_ms = NowMs();
    if (!eof_ && !discard_input_ && quiescent && flushed &&
        env_.options->idle_timeout_ms > 0 &&
        now_ms - last_read_ms_ >= env_.options->idle_timeout_ms) {
      close_reason_ = "idle-timeout";
      log.Emit(LogLevel::kWarn, "conn.timeout",
               {LogField::Str("kind", "idle"),
                LogField::Num("idle_ms", now_ms - last_read_ms_)});
      break;
    }
    if (!flushed && env_.options->write_stall_timeout_ms > 0 &&
        now_ms - last_write_progress_ms_ >=
            env_.options->write_stall_timeout_ms) {
      fatal_ = true;
      close_reason_ = "write-stall";
      log.Emit(LogLevel::kWarn, "conn.timeout",
               {LogField::Str("kind", "write-stall"),
                LogField::Num("stalled_ms",
                              now_ms - last_write_progress_ms_)});
      break;
    }

    // Write backpressure: past the outbuf cap, stop reading requests until
    // the client drains what it already owes us.
    const bool want_read =
        !eof_ && !fatal_ &&
        static_cast<int64_t>(outbuf_.size() - outbuf_off_) <=
            env_.options->max_outbuf_bytes;

    pollfd fds[2];
    fds[0].fd = wake_fds_[0];
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = fd_;
    fds[1].events = static_cast<short>((want_read ? POLLIN : 0) |
                                       (!flushed ? POLLOUT : 0));
    fds[1].revents = 0;
    ::poll(fds, 2, env_.options->poll_tick_ms);

    if (fds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (want_read &&
        (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      size_t budget = kReadBudgetPerWake;
      while (budget > 0) {
        const ssize_t n =
            env_.injector->Read(fd_, buf, std::min(sizeof(buf), budget));
        if (n > 0) {
          last_read_ms_ = NowMs();
          budget -= static_cast<size_t>(n);
          HandleBytes(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) {
          eof_ = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        fatal_ = true;
        close_reason_ = "read-error";
        break;
      }
    }
    if (fds[1].revents & POLLOUT) {
      if (!FlushSome()) break;
    }
  }

  // Epilogue. Order matters: close the socket first (the peer learns
  // immediately), then join in-flight deposits — pool tasks never touch
  // the socket, only the completion map, so this is safe; and they are
  // deadline-capped, so it is bounded.
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_closed_ = true;
  AwaitInflight();
  fatal_ = true;  // anything still undelivered is discarded, not written
  CollectCompletions();
  partial_tail_bytes_ = static_cast<int64_t>(cur_line_.size());

  log.Emit(LogLevel::kInfo, "conn.close",
           {LogField::Str("reason", close_reason_),
            LogField::Num("lines", lines_),
            LogField::Num("responses", responses_),
            LogField::Num("rejected", rejected_),
            LogField::Num("partial_tail_bytes", partial_tail_bytes_)});
  log_ = nullptr;
  done_.store(true, std::memory_order_release);
}

}  // namespace pebblejoin
