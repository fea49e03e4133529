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
#include <string_view>
#include <utility>

#include "obs/log.h"
#include "serve/fault_injector.h"
#include "serve/request_router.h"
#include "util/check.h"

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
    : fd_(fd), id_(id), env_(env), window_(env.pool, [this] { Wake(); }) {
  JP_CHECK(env_.options != nullptr && env_.router != nullptr &&
           env_.injector != nullptr && env_.phase != nullptr &&
           env_.drain_deadline_ms != nullptr);
  framer_ = LineFramer(static_cast<size_t>(
      std::max<int64_t>(0, env_.options->max_line_bytes)));
  SetNonBlocking(fd_);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  last_read_ms_ = NowMs();
  last_write_progress_ms_ = last_read_ms_;
}

Connection::~Connection() {
  if (!fd_closed_) ::close(fd_);
}

void Connection::SubmitSolve(std::string line, int64_t line_number) {
  window_.Submit([this, line = std::move(line), line_number] {
    // One server-clock read at each end: the start is the admission time,
    // the end the completion time, and their difference the request's
    // wall microseconds.
    const int64_t start_us = NowUs();
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
        env_.router->RunSolve(line, line_number, start_us / 1000,
                              fallback_id, &outcome);
    const int64_t end_us = NowUs();
    env_.router->RecordCompletion(outcome, end_us - start_us, end_us / 1000);
    env_.router->ReleaseSolve(id_);
    response += '\n';
    return response;
  });
}

void Connection::HandleLine(std::string line) {
  ++lines_;
  switch (RequestRouter::Classify(line)) {
    case RequestRouter::LineClass::kBlank:
      return;  // counted, never answered — matches batch
    case RequestRouter::LineClass::kHttp: {
      // One-shot HTTP exchange on the JSONL port: answer, flush, close.
      // The rest of the request (headers) is read and discarded so the
      // client can finish sending before it sees our close.
      window_.Push(env_.router->HttpResponse(line, NowMs()));
      discard_input_ = true;
      close_after_flush_ = true;
      framer_.Clear();
      return;
    }
    case RequestRouter::LineClass::kSolve: {
      std::string reason;
      if (!env_.router->AdmitSolve(id_, &reason)) {
        ++rejected_;
        log_->Emit(LogLevel::kWarn, "request.reject",
                   {LogField::Num("line", lines_),
                    LogField::Str("reason", reason)});
        window_.Push(env_.router->RejectRecord(lines_, reason, NowMs()) +
                     "\n");
        return;
      }
      SubmitSolve(std::move(line), lines_);
      return;
    }
  }
}

void Connection::HandleBytes(const char* data, size_t n) {
  if (discard_input_) return;
  framer_.Feed(std::string_view(data, n));
  std::string line;
  while (!discard_input_) {
    const LineFramer::Frame frame = framer_.Next(&line);
    if (frame == LineFramer::Frame::kNone) return;
    if (frame == LineFramer::Frame::kLine) {
      HandleLine(std::move(line));
      continue;
    }
    // Answered the moment the cap trips; the framer eats the rest of the
    // line as it streams in, so it never holds much past the cap.
    const int64_t cap = env_.options->max_line_bytes;
    ++lines_;
    log_->Emit(LogLevel::kWarn, "request.reject",
               {LogField::Num("line", lines_),
                LogField::Str("reason", "line too long"),
                LogField::Num("cap_bytes", cap)});
    window_.Push(
        env_.router->RejectRecord(
            lines_, "line exceeds " + std::to_string(cap) + " bytes",
            NowMs()) +
        "\n");
    ++rejected_;
  }
}

void Connection::CollectCompletions() {
  std::string response;
  while (window_.TryTake(&response)) {
    if (!fatal_) outbuf_ += response;
    ++responses_;
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
    const bool quiescent = window_.empty();
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
            ServeOptions::kMaxOutbufBytes;

    pollfd fds[2];
    fds[0].fd = wake_.fd();
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = fd_;
    fds[1].events = static_cast<short>((want_read ? POLLIN : 0) |
                                       (!flushed ? POLLOUT : 0));
    fds[1].revents = 0;
    ::poll(fds, 2, env_.options->poll_tick_ms);

    if (fds[0].revents & POLLIN) wake_.Drain();
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
  // immediately), then wait for in-flight solves — pool tasks never touch
  // the socket, only the window, so this is safe; and they are
  // deadline-capped, so it is bounded.
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_closed_ = true;
  window_.AwaitAll();
  fatal_ = true;  // anything still undelivered is discarded, not written
  CollectCompletions();
  partial_tail_bytes_ = static_cast<int64_t>(framer_.partial_bytes());

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
