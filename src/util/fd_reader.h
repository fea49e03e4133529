// FdReader: a std::streambuf that reads a POSIX file descriptor (a pipe,
// a terminal or a file), for std::getline and the rest of std::istream.
//
// Each refill is one read(2) into a fixed 64 KiB buffer. A read returns
// what the producer has written so far, so a line is handed on as soon as
// its bytes are in, never held back until the buffer fills. It replaces
// std::cin, which libstdc++ keeps synced with stdio and reads with one
// locked getc() per byte.
//
// Its owner can also act while it waits: after Wake(), called from any
// thread, a refill that waits for input runs the on-wake callback on the
// reading thread, then waits again. Batch writes the answers that landed
// this way while it waits for the next line.

#ifndef PEBBLEJOIN_UTIL_FD_READER_H_
#define PEBBLEJOIN_UTIL_FD_READER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <streambuf>
#include <utility>

namespace pebblejoin {

class FdReader : public std::streambuf {
 public:
  static constexpr size_t kBufferBytes = size_t{64} << 10;

  // `fd` is borrowed and stays open.
  explicit FdReader(int fd);
  ~FdReader() override;

  FdReader(const FdReader&) = delete;
  FdReader& operator=(const FdReader&) = delete;

  // The callback a waiting refill runs after Wake(); null waits on the
  // descriptor alone. Set it on the reading thread, between reads. An
  // exception it throws leaves the refill.
  void OnWake(std::function<void()> on_wake) { on_wake_ = std::move(on_wake); }

  // Thread-safe: makes a waiting refill, or the next one, run the
  // callback.
  void Wake();

 protected:
  int_type underflow() override;

 private:
  const int fd_;
  int wake_fds_[2] = {-1, -1};  // non-blocking pipe; [0] polled
  std::function<void()> on_wake_;
  std::unique_ptr<char[]> buffer_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_FD_READER_H_
