#include "util/fd_reader.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>

#include "util/check.h"

namespace pebblejoin {

FdReader::FdReader(int fd) : fd_(fd), buffer_(new char[kBufferBytes]) {
  JP_CHECK_MSG(::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) == 0,
               "pipe2() failed");
}

FdReader::~FdReader() {
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void FdReader::Wake() {
  const char byte = 1;
  // A full pipe already holds a pending wake-up; EAGAIN is success.
  (void)!::write(wake_fds_[1], &byte, 1);
}

FdReader::int_type FdReader::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  for (;;) {
    if (on_wake_) {
      pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
      if (::poll(fds, 2, -1) < 0) {
        if (errno == EINTR) continue;
        // Any other poll failure falls through to a plain blocking read,
        // which reports its own error.
      } else {
        if (fds[1].revents != 0) {
          char drain[64];
          while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
          }
          on_wake_();
        }
        if (fds[0].revents == 0) continue;
      }
    }
    const ssize_t n = ::read(fd_, buffer_.get(), kBufferBytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return traits_type::eof();
    setg(buffer_.get(), buffer_.get(), buffer_.get() + n);
    return traits_type::to_int_type(*gptr());
  }
}

}  // namespace pebblejoin
