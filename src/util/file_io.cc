#include "util/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pebblejoin {

std::string FileStatus::Message(const std::string& path) const {
  const std::string reason = std::strerror(error);
  if (stage == kOpen) return "cannot open '" + path + "': " + reason;
  return (stage == kRead ? "reading '" : "writing '") + path +
         "' failed: " + reason;
}

int ReadFdToString(int fd, std::string* out) {
  char chunk[1 << 16];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) != 0;) {
    if (n > 0) {
      out->append(chunk, static_cast<size_t>(n));
    } else if (errno != EINTR) {
      return errno;
    }
  }
  return 0;
}

FileStatus ReadFileToString(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {FileStatus::kOpen, errno};
  out->clear();
  const FileStatus status{FileStatus::kRead, ReadFdToString(fd, out)};
  ::close(fd);
  return status;
}

FileStatus WriteStringToFile(const std::string& path, std::string_view text) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return {FileStatus::kOpen, errno};
  FileStatus status{FileStatus::kWrite, 0};
  while (!text.empty() && status.ok()) {
    const ssize_t n = ::write(fd, text.data(), text.size());
    if (n >= 0) {
      text.remove_prefix(static_cast<size_t>(n));
    } else if (errno != EINTR) {
      status.error = errno;
    }
  }
  if (::close(fd) != 0 && status.ok() && errno != EINTR) status.error = errno;
  return status;
}

}  // namespace pebblejoin
