// LineFramer: bytes in, owned complete lines out — what a JSONL line is
// for batch, serve and the loopback client alike.
//
// A line ends at '\n', which is stripped; every other byte, '\r' and NUL
// included, stays in it. With a byte cap, a line is reported too long
// once, as soon as more than the cap of it is in, and its bytes up to the
// next newline are dropped as they arrive, so the framer holds at most
// the cap plus one fed chunk. Bytes after the last newline wait for more;
// the caller decides what they are at EOF (batch answers them as a line,
// as std::getline does; serve drops and counts them). One thread uses it.

#ifndef PEBBLEJOIN_UTIL_LINE_FRAMER_H_
#define PEBBLEJOIN_UTIL_LINE_FRAMER_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace pebblejoin {

class LineFramer {
 public:
  enum class Frame { kNone, kLine, kTooLong };

  // `max_line_bytes` 0 frames lines of any length.
  explicit LineFramer(size_t max_line_bytes = 0) : cap_(max_line_bytes) {}

  void Feed(std::string_view bytes) { buf_.append(bytes); }

  // The next complete line into `*line` (kLine); kTooLong once per line
  // past the cap; kNone when no complete line is buffered.
  Frame Next(std::string* line) {
    for (;;) {
      const size_t newline = buf_.find('\n', scanned_);
      if (newline == std::string::npos) {
        scanned_ = buf_.size();
        if (!discarding_ && (cap_ == 0 || partial_bytes() <= cap_)) {
          buf_.erase(0, start_);  // keep only the partial line
          scanned_ -= start_;
          start_ = 0;
          return Frame::kNone;
        }
        const Frame frame = discarding_ ? Frame::kNone : Frame::kTooLong;
        Clear();
        discarding_ = true;
        return frame;
      }
      const size_t begin = start_;
      start_ = scanned_ = newline + 1;
      if (discarding_) {
        discarding_ = false;  // the end of a line already reported
      } else if (cap_ > 0 && newline - begin > cap_) {
        return Frame::kTooLong;
      } else {
        line->assign(buf_, begin, newline - begin);
        return Frame::kLine;
      }
    }
  }

  // Bytes fed and not yet framed; once Next() returned kNone, the partial
  // line after the last newline (0 while a line is dropped).
  size_t partial_bytes() const { return buf_.size() - start_; }

  // Drops every buffered byte, as at a fresh start.
  void Clear() {
    buf_.clear();
    start_ = scanned_ = 0;
    discarding_ = false;
  }

 private:
  size_t cap_;
  std::string buf_;
  size_t start_ = 0;         // first byte of the next line
  size_t scanned_ = 0;       // buf_[start_, scanned_) holds no newline
  bool discarding_ = false;  // dropping the rest of a too-long line
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_LINE_FRAMER_H_
