// util/file_io: the one way to read an input to its end and to replace an
// output file. A failure keeps its errno and prints, after "error: ", as
// "cannot open '<path>': <reason>", "reading '<path>' failed: <reason>" or
// "writing '<path>' failed: <reason>". Reads and writes retry EINTR (serve's
// signal handlers do not restart system calls); writes loop over short
// writes. Streamed outputs (batch --out, the journal) keep a std::ostream.

#ifndef PEBBLEJOIN_UTIL_FILE_IO_H_
#define PEBBLEJOIN_UTIL_FILE_IO_H_

#include <string>
#include <string_view>

namespace pebblejoin {

// The stage a file operation reached and its errno there (0: success).
// An open failure is told apart from a read failure so that a missing
// input keeps its own exit code.
struct FileStatus {
  enum Stage { kOpen, kRead, kWrite };
  Stage stage = kOpen;
  int error = 0;

  bool ok() const { return error == 0; }
  std::string Message(const std::string& path) const;
};

// Appends the bytes of `fd` up to EOF to `*out`. Returns 0, or the errno
// of the read(2) that failed.
int ReadFdToString(int fd, std::string* out);

// Replaces `*out` with the bytes of the file at `path`.
FileStatus ReadFileToString(const std::string& path, std::string* out);

// Creates or truncates the file at `path` and writes `text` into it; a
// failed close(2) is a failed write.
FileStatus WriteStringToFile(const std::string& path, std::string_view text);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_FILE_IO_H_
