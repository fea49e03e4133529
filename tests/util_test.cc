#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/file_io.h"
#include "util/line_framer.h"
#include "util/parse_int.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace pebblejoin {
namespace {

// strtoll's rules, whole token only.
TEST(ParseIntTest, AcceptsWhatStrtollAcceptsOverTheWholeToken) {
  using std::string_literals::operator""s;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const struct {
    std::string token;
    std::optional<int64_t> value;
  } cases[] = {
      {"0", 0},
      {"-0", 0},
      {"+7", 7},
      {"007", 7},
      {" \t\n\v\f\r42", 42},
      {"-9223372036854775808", kMin},
      {"9223372036854775807", kMax},
      {"9223372036854775808", std::nullopt},
      {"-9223372036854775809", std::nullopt},
      {"18446744073709551616", std::nullopt},
      {"", std::nullopt},
      {" ", std::nullopt},
      {"+", std::nullopt},
      {"-", std::nullopt},
      {"+-1", std::nullopt},
      {"--1", std::nullopt},
      {"- 1", std::nullopt},
      {"1 ", std::nullopt},
      {"3x", std::nullopt},
      {"1e1", std::nullopt},
      {"0x1", std::nullopt},
      {"0\0zz"s, std::nullopt},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ParseInt(c.token), c.value) << "'" << c.token << "'";
  }
  EXPECT_EQ(ParseInt("5", 0, 5), 5);
  EXPECT_EQ(ParseInt("6", 0, 5), std::nullopt);
  EXPECT_EQ(ParseInt("-1", 0, 5), std::nullopt);
}

using Lines = std::vector<std::string>;

// What a framer reports after `bytes` are fed, a too-long line as "!".
Lines Frames(LineFramer* framer, std::string_view bytes) {
  framer->Feed(bytes);
  Lines frames;
  std::string line;
  for (LineFramer::Frame frame;
       (frame = framer->Next(&line)) != LineFramer::Frame::kNone;) {
    frames.push_back(frame == LineFramer::Frame::kLine ? line : "!");
  }
  return frames;
}

TEST(LineFramerTest, KeepsCarriageReturnsAndNulsInsideALine) {
  using std::string_literals::operator""s;
  LineFramer framer;
  EXPECT_EQ(Frames(&framer, "a\r\n\0b\r\0\n"s), Lines({"a\r", "\0b\r\0"s}));
}

TEST(LineFramerTest, ALineFedByteByByteFramesAsOneFedWhole) {
  const std::string input = "{\"graph\": \"1 2\"}\n\nsecond\n tail";
  LineFramer whole;
  const Lines expected = Frames(&whole, input);
  EXPECT_EQ(expected, Lines({"{\"graph\": \"1 2\"}", "", "second"}));
  LineFramer bytes;
  Lines got;
  for (const char& c : input) {
    for (std::string& line : Frames(&bytes, std::string_view(&c, 1))) {
      got.push_back(std::move(line));
    }
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(bytes.partial_bytes(), whole.partial_bytes());
}

TEST(LineFramerTest, ALineExactlyAtTheCapPasses) {
  LineFramer framer(4);
  EXPECT_EQ(Frames(&framer, "abcd"), Lines());
  EXPECT_EQ(Frames(&framer, "\nef\n"), Lines({"abcd", "ef"}));
}

TEST(LineFramerTest, ALineOverTheCapIsReportedOnceThenFramingResumes) {
  LineFramer framer(4);
  // Reported as soon as the fifth byte is in, before its newline.
  EXPECT_EQ(Frames(&framer, "ok\nabcde"), Lines({"ok", "!"}));
  EXPECT_EQ(framer.partial_bytes(), 0u);
  EXPECT_EQ(Frames(&framer, "fgh"), Lines());
  EXPECT_EQ(Frames(&framer, "ij\nnext\n"), Lines({"next"}));
  // Also once when its newline comes in the same chunk.
  EXPECT_EQ(Frames(&framer, "abcde\nx\n"), Lines({"!", "x"}));
}

TEST(LineFramerTest, ReportsThePartialTail) {
  LineFramer framer;
  EXPECT_EQ(Frames(&framer, "one\ntw"), Lines({"one"}));
  EXPECT_EQ(framer.partial_bytes(), 2u);
  EXPECT_EQ(Frames(&framer, "o"), Lines());
  EXPECT_EQ(framer.partial_bytes(), 3u);
  EXPECT_EQ(Frames(&framer, "\n"), Lines({"two"}));
  EXPECT_EQ(framer.partial_bytes(), 0u);
  framer.Feed("dropped\nbytes");
  framer.Clear();
  EXPECT_EQ(framer.partial_bytes(), 0u);
  EXPECT_EQ(Frames(&framer, "three\n"), Lines({"three"}));
}

TEST(SplitMix64Test, IsDeterministic) {
  uint64_t s1 = 42;
  uint64_t s2 = 42;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(SplitMix64(&s1), SplitMix64(&s2));
  }
}

TEST(SplitMix64Test, AdvancesState) {
  uint64_t s = 42;
  const uint64_t first = SplitMix64(&s);
  const uint64_t second = SplitMix64(&s);
  EXPECT_NE(first, second);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(7);
  Rng b(8);
  int differences = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 90);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntLoHiInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(4);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(7);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.5)) ++heads;
  }
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(8);
  const std::vector<int> perm = rng.Permutation(20);
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, PermutationOfZeroAndOne) {
  Rng rng(9);
  EXPECT_TRUE(rng.Permutation(0).empty());
  EXPECT_EQ(rng.Permutation(1), std::vector<int>{0});
}

TEST(RngTest, SubsetSizeAndSortedUnique) {
  Rng rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<int> s = rng.Subset(10, 4);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 10);
    }
    EXPECT_EQ(std::set<int>(s.begin(), s.end()).size(), 4u);
  }
}

TEST(RngTest, SubsetFullAndEmpty) {
  Rng rng(11);
  EXPECT_TRUE(rng.Subset(5, 0).empty());
  const std::vector<int> full = rng.Subset(5, 5);
  EXPECT_EQ(full, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(12);
  std::vector<int> v{1, 1, 2, 3, 5, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(StopwatchTest, MonotoneAndRestartable) {
  Stopwatch watch;
  const double first = watch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  volatile int busy = 0;
  for (int i = 0; i < 100000; ++i) busy = i;
  (void)busy;
  const double second = watch.ElapsedSeconds();
  EXPECT_GE(second, first);
  // ElapsedMicros truncates to whole microseconds, so a read taken *after*
  // `second` can trail it by strictly less than one microsecond.
  EXPECT_GT(watch.ElapsedMicros() + 1, static_cast<int64_t>(second * 1e6));
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), second + 1.0);
}

TEST(TablePrinterTest, RendersAlignedColumns) {
  TablePrinter t({"n", "value"});
  t.AddRow({"1", "short"});
  t.AddRow({"100", "a-much-longer-cell"});
  const std::string rendered = t.Render();
  EXPECT_NE(rendered.find("| n   "), std::string::npos);
  EXPECT_NE(rendered.find("a-much-longer-cell"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(TablePrinterTest, HeaderOnlyTableRenders) {
  TablePrinter t({"only"});
  const std::string rendered = t.Render();
  EXPECT_NE(rendered.find("only"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 0);
}

TEST(FormatHelpersTest, FormatInt) {
  EXPECT_EQ(FormatInt(0), "0");
  EXPECT_EQ(FormatInt(-12), "-12");
  EXPECT_EQ(FormatInt(123456789012345LL), "123456789012345");
}

TEST(FormatHelpersTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.25, 2), "1.25");
  EXPECT_EQ(FormatDouble(1.0, 4), "1.0000");
}

// A pipe delivers its bytes in pieces; the reader keeps going to EOF.
// Each piece is larger than the reader's 64 KiB chunk and the pipe buffer.
TEST(FileIoTest, APipeFedInLargePiecesReadsBackWhole) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string sent;
  for (char c = 'a'; c < 'd'; ++c) sent += std::string(200 << 10, c);
  std::thread writer([&sent, fd = fds[1]] {
    for (size_t at = 0; at < sent.size(); at += 150 << 10) {
      std::string_view piece = std::string_view(sent).substr(at, 150 << 10);
      while (!piece.empty()) {
        const ssize_t n = ::write(fd, piece.data(), piece.size());
        if (n <= 0) return;
        piece.remove_prefix(static_cast<size_t>(n));
      }
    }
    ::close(fd);
  });
  std::string got = "kept:";
  EXPECT_EQ(ReadFdToString(fds[0], &got), 0);
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(got, "kept:" + sent);
}

TEST(FileIoTest, AMissingPathIsAnOpenError) {
  std::string text;
  const FileStatus status =
      ReadFileToString("/nonexistent-dir/in.txt", &text);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.stage, FileStatus::kOpen);
  EXPECT_EQ(status.error, ENOENT);
  EXPECT_EQ(status.Message("/nonexistent-dir/in.txt"),
            "cannot open '/nonexistent-dir/in.txt': No such file or "
            "directory");
}

// A directory opens, but read(2) fails on it.
TEST(FileIoTest, ADirectoryIsAReadError) {
  std::string text;
  const FileStatus status = ReadFileToString(testing::TempDir(), &text);
  EXPECT_EQ(status.stage, FileStatus::kRead);
  EXPECT_EQ(status.error, EISDIR);
  EXPECT_EQ(status.Message("d"), "reading 'd' failed: Is a directory");
}

TEST(FileIoTest, WritingToDevFullFailsWithNoSpace) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const FileStatus status = WriteStringToFile("/dev/full", "x");
  EXPECT_EQ(status.stage, FileStatus::kWrite);
  EXPECT_EQ(status.error, ENOSPC);
  EXPECT_EQ(status.Message("/dev/full"),
            "writing '/dev/full' failed: No space left on device");
}

TEST(FileIoTest, WritingIntoAMissingDirectoryIsAnOpenError) {
  const FileStatus status =
      WriteStringToFile("/nonexistent-dir/out.txt", "x");
  EXPECT_EQ(status.stage, FileStatus::kOpen);
  EXPECT_EQ(status.error, ENOENT);
}

TEST(FileIoTest, AWriteTruncatesALongerFile) {
  const std::string path = testing::TempDir() + "/file_io_truncate.txt";
  ASSERT_TRUE(WriteStringToFile(path, "a much longer first version\n").ok());
  ASSERT_TRUE(WriteStringToFile(path, "short\n").ok());
  std::string text = "stale";
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  EXPECT_EQ(text, "short\n");
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace pebblejoin
