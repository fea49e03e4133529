#include <algorithm>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace pebblejoin {
namespace {

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

}  // namespace
}  // namespace pebblejoin
