// util/bitset.h: the flat word-scan sets the solver hot loops use.
//
// The Bitset checks are exhaustive over small widths, hit the 63/64/65
// word-boundary widths explicitly, and cross-check every operation against
// a std::set<size_t> reference model over randomized operation sequences —
// the word-scan shortcuts (ctz, popcount, `word &= word - 1`) must never
// diverge from the one-bit-at-a-time semantics.

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitset.h"

namespace pebblejoin {
namespace {

// The widths where word-boundary bugs live, plus a few mundane ones.
const size_t kWidths[] = {1, 2, 7, 8, 63, 64, 65, 127, 128, 129, 200};

TEST(BitsetTest, StartsEmpty) {
  for (size_t width : kWidths) {
    SCOPED_TRACE(width);
    Bitset b(width);
    EXPECT_EQ(b.size(), width);
    EXPECT_EQ(b.Count(), 0u);
    EXPECT_FALSE(b.AnySet());
    EXPECT_EQ(b.FindFirst(), -1);
    for (size_t i = 0; i < width; ++i) EXPECT_FALSE(b.Test(i));
  }
}

TEST(BitsetTest, SetResetSingleBitsExhaustive) {
  for (size_t width : kWidths) {
    SCOPED_TRACE(width);
    Bitset b(width);
    for (size_t i = 0; i < width; ++i) {
      b.Set(i);
      EXPECT_TRUE(b.Test(i));
      EXPECT_EQ(b.Count(), 1u);
      EXPECT_TRUE(b.AnySet());
      EXPECT_EQ(b.FindFirst(), static_cast<int64_t>(i));
      // No neighbor smearing across the word boundary.
      if (i > 0) {
        EXPECT_FALSE(b.Test(i - 1));
      }
      if (i + 1 < width) {
        EXPECT_FALSE(b.Test(i + 1));
      }
      b.Reset(i);
      EXPECT_FALSE(b.Test(i));
      EXPECT_EQ(b.Count(), 0u);
    }
  }
}

TEST(BitsetTest, SetAllKeepsTailZero) {
  for (size_t width : kWidths) {
    SCOPED_TRACE(width);
    Bitset b(width);
    b.SetAll();
    EXPECT_EQ(b.Count(), width);
    for (size_t i = 0; i < width; ++i) EXPECT_TRUE(b.Test(i));
    // The unused tail of the last word must stay zero, or Count/scans of
    // later operations would see ghost bits.
    if ((width & 63) != 0) {
      const uint64_t tail_word = b.words()[b.num_words() - 1];
      EXPECT_EQ(tail_word >> (width & 63), 0u);
    }
    b.ResetAll();
    EXPECT_EQ(b.Count(), 0u);
    EXPECT_FALSE(b.AnySet());
  }
}

TEST(BitsetTest, AssignWithValueTrue) {
  for (size_t width : kWidths) {
    SCOPED_TRACE(width);
    Bitset b;
    b.Assign(width, true);
    EXPECT_EQ(b.size(), width);
    EXPECT_EQ(b.Count(), width);
    b.Assign(width / 2, false);
    EXPECT_EQ(b.size(), width / 2);
    EXPECT_EQ(b.Count(), 0u);
  }
}

TEST(BitsetTest, FindNextAcrossWordBoundaries) {
  Bitset b(200);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(65);
  b.Set(199);
  EXPECT_EQ(b.FindFirst(), 0);
  EXPECT_EQ(b.FindNext(1), 63);
  EXPECT_EQ(b.FindNext(63), 63);
  EXPECT_EQ(b.FindNext(64), 64);
  EXPECT_EQ(b.FindNext(65), 65);
  EXPECT_EQ(b.FindNext(66), 199);
  EXPECT_EQ(b.FindNext(200), -1);
  b.Reset(199);
  EXPECT_EQ(b.FindNext(66), -1);
}

TEST(BitsetTest, ForEachSetBitVisitsAscending) {
  Bitset b(130);
  const std::vector<size_t> expected = {0, 1, 62, 63, 64, 65, 127, 128, 129};
  for (size_t i : expected) b.Set(i);
  std::vector<size_t> seen;
  b.ForEachSetBit([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

// Randomized differential run against std::set — every mutation and query
// must agree with the reference model at every step.
TEST(BitsetTest, MatchesStdSetUnderRandomOperations) {
  for (size_t width : {63u, 64u, 65u, 300u}) {
    SCOPED_TRACE(width);
    std::mt19937_64 rng(width * 7919);
    Bitset b(width);
    std::set<size_t> model;
    for (int step = 0; step < 4000; ++step) {
      const size_t i = rng() % width;
      switch (rng() % 4) {
        case 0:
          b.Set(i);
          model.insert(i);
          break;
        case 1:
          b.Reset(i);
          model.erase(i);
          break;
        case 2: {
          const bool value = rng() & 1;
          b.SetTo(i, value);
          if (value) model.insert(i);
          else model.erase(i);
          break;
        }
        case 3:
          ASSERT_EQ(b.Test(i), model.count(i) == 1);
          break;
      }
      ASSERT_EQ(b.Count(), model.size());
      ASSERT_EQ(b.AnySet(), !model.empty());
      ASSERT_EQ(b.FindFirst(),
                model.empty() ? -1 : static_cast<int64_t>(*model.begin()));
      // FindNext from a random origin == lower_bound in the model.
      const size_t from = rng() % (width + 1);
      const auto it = model.lower_bound(from);
      ASSERT_EQ(b.FindNext(from),
                it == model.end() ? -1 : static_cast<int64_t>(*it));
    }
    // Full scan parity at the end of the run.
    std::vector<size_t> scanned;
    b.ForEachSetBit([&](size_t i) { scanned.push_back(i); });
    ASSERT_EQ(scanned, std::vector<size_t>(model.begin(), model.end()));
  }
}

}  // namespace
}  // namespace pebblejoin
