// Parameterized property sweeps over the window machinery: the
// discretization algebra of §3.1.2 must hold for every (size, slide)
// combination, and the interval-join bounds of O1 must agree with the
// window-pair semantics for every timestamp offset.

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "asp/interval_join.h"
#include "asp/window.h"

namespace cep2asp {
namespace {

struct WindowParam {
  std::string name;
  Timestamp size;
  Timestamp slide;
};

class WindowSweepTest : public ::testing::TestWithParam<WindowParam> {};

TEST_P(WindowSweepTest, EveryTimestampInExactlyItsOverlapCount) {
  SlidingWindowSpec spec{GetParam().size, GetParam().slide};
  ASSERT_TRUE(spec.valid());
  for (Timestamp ts : {Timestamp{0}, Timestamp{1}, spec.slide - 1, spec.slide,
                       spec.size - 1, spec.size, 10 * spec.size + 7}) {
    int64_t first = spec.FirstWindow(ts);
    int64_t last = spec.LastWindow(ts);
    // A timestamp is covered by floor(size/slide) or floor(size/slide)+1
    // windows (exactly size/slide when slide divides size).
    int64_t count = last - first + 1;
    EXPECT_GE(count, spec.size / spec.slide) << "ts=" << ts;
    EXPECT_LE(count, spec.size / spec.slide + 1) << "ts=" << ts;
    if (spec.size % spec.slide == 0) {
      EXPECT_EQ(count, spec.size / spec.slide) << "ts=" << ts;
    }
    // Containment is exact at the range edges.
    EXPECT_GE(ts, spec.WindowStart(first));
    EXPECT_LT(ts, spec.WindowEnd(first));
    EXPECT_GE(ts, spec.WindowStart(last));
    EXPECT_LT(ts, spec.WindowEnd(last));
    // Neighbours do not contain it.
    EXPECT_GE(spec.WindowStart(last + 1), ts + 1);
    EXPECT_LE(spec.WindowEnd(first - 1), ts);
  }
}

TEST_P(WindowSweepTest, InterWindowSemanticsAdvanceBySlide) {
  SlidingWindowSpec spec{GetParam().size, GetParam().slide};
  for (int64_t k = -3; k < 10; ++k) {
    EXPECT_EQ(spec.WindowStart(k + 1) - spec.WindowStart(k), spec.slide);
    EXPECT_EQ(spec.WindowEnd(k) - spec.WindowStart(k), spec.size);
  }
}

TEST_P(WindowSweepTest, CanFireExactlyAtWindowEnd) {
  SlidingWindowSpec spec{GetParam().size, GetParam().slide};
  for (int64_t k : {int64_t{0}, int64_t{5}, int64_t{117}}) {
    EXPECT_FALSE(spec.CanFire(k, spec.WindowEnd(k) - 1));
    EXPECT_TRUE(spec.CanFire(k, spec.WindowEnd(k)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, WindowSweepTest,
    ::testing::Values(WindowParam{"tumbling", 10, 10},
                      WindowParam{"half", 10, 5},
                      WindowParam{"slide1", 10, 1},
                      WindowParam{"uneven", 15, 4},
                      WindowParam{"minute", 15 * kMillisPerMinute,
                                  kMillisPerMinute},
                      WindowParam{"prime", 17, 3}),
    [](const auto& info) { return info.param.name; });

// --- Interval bounds -------------------------------------------------------------

TEST(IntervalBoundsTest, SequenceBoundsMatchPairSemantics) {
  // (e1.ts + 0, e1.ts + W) strict: exactly the pairs a SEQ within W forms.
  const Timestamp w = 100;
  IntervalBounds bounds = IntervalBounds::ForSequence(w);
  const Timestamp left = 1000;
  for (Timestamp offset = -5; offset <= w + 5; ++offset) {
    bool expected = offset > 0 && offset < w;  // e1.ts < e2.ts && diff < W
    EXPECT_EQ(bounds.Contains(left, left + offset), expected)
        << "offset=" << offset;
  }
}

TEST(IntervalBoundsTest, ConjunctionBoundsSymmetric) {
  const Timestamp w = 100;
  IntervalBounds bounds = IntervalBounds::ForConjunction(w);
  const Timestamp left = 1000;
  for (Timestamp offset = -w - 5; offset <= w + 5; ++offset) {
    bool expected = offset > -w && offset < w;  // |diff| < W
    EXPECT_EQ(bounds.Contains(left, left + offset), expected)
        << "offset=" << offset;
  }
}

TEST(IntervalBoundsTest, RightRangeIsExactlyTheContainedRows) {
  // The interval join takes each left's partners as RightRange over the
  // sorted right times; it must select exactly the rows Contains accepts,
  // with duplicates, rows on both bounds and lower == upper.
  std::mt19937_64 rng(0xb0a4d5);
  for (int iter = 0; iter < 4000; ++iter) {
    IntervalBounds bounds;
    bounds.lower = static_cast<Timestamp>(rng() % 41) - 20;
    const Timestamp width = static_cast<Timestamp>(rng() % 30);
    bounds.upper = bounds.lower + (rng() % 4 == 0 ? 0 : width);
    std::vector<Timestamp> times(rng() % 25);
    for (Timestamp& t : times) t = static_cast<Timestamp>(rng() % 40);
    std::sort(times.begin(), times.end());
    const Timestamp left = static_cast<Timestamp>(rng() % 60) - 10;
    const auto [first, last] =
        bounds.RightRange(times, 0, times.size(), left);
    for (size_t r = 0; r < times.size(); ++r) {
      EXPECT_EQ(r >= first && r < last, bounds.Contains(left, times[r]))
          << "iter " << iter << " left=" << left << " right=" << times[r]
          << " bounds=" << bounds.lower << "," << bounds.upper;
    }
    EXPECT_LE(first, last);
  }
}

}  // namespace
}  // namespace cep2asp
