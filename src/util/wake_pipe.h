// WakePipe: the self-pipe a poll() loop watches so that any thread can
// wake it (batch's reader when an answer lands, a serve connection when a
// solve lands, the acceptor at drain). Non-blocking and close-on-exec.

#ifndef PEBBLEJOIN_UTIL_WAKE_PIPE_H_
#define PEBBLEJOIN_UTIL_WAKE_PIPE_H_

#include <fcntl.h>
#include <unistd.h>

#include "util/check.h"

namespace pebblejoin {

class WakePipe {
 public:
  WakePipe() {
    JP_CHECK_MSG(::pipe2(fds_, O_NONBLOCK | O_CLOEXEC) == 0, "pipe2() failed");
  }
  ~WakePipe() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  // The end to poll for POLLIN.
  int fd() const { return fds_[0]; }

  // Thread-safe: fd() stays readable until the next Drain(). A full pipe
  // already holds a pending wake-up, so EAGAIN is success.
  void Wake() {
    const char byte = 1;
    (void)!::write(fds_[1], &byte, 1);
  }

  void Drain() {
    char drain[64];
    while (::read(fds_[0], drain, sizeof(drain)) > 0) {
    }
  }

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_WAKE_PIPE_H_
