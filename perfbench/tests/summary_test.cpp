#include "summary.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: summarize sorts
  return v;
}

TEST(Summary, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.tail_pct, 0.0);
}

TEST(Summary, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(summarize({3.0, 1.0, 2.0}).median, 2.0);
  EXPECT_EQ(summarize({4.0, 1.0, 3.0, 2.0}).median, 2.5);
  EXPECT_EQ(summarize({7.0}).median, 7.0);
}

TEST(Summary, ReportsTheSampleCount) {
  EXPECT_EQ(summarize(ramp(37)).count, 37u);
}

TEST(Summary, NoTailBelowTwentySamples) {
  // p50 of 19 samples is rank 10, leaving only 9 beyond it.
  const Summary s = summarize(ramp(19));
  EXPECT_EQ(s.tail_pct, 0.0);
  EXPECT_EQ(s.median, 10.0);
}

TEST(Summary, TailIsTheHighestPercentileWithTenBeyond) {
  // 20 samples: p50 (rank 10) leaves 10 beyond; p75 (rank 15) leaves 5.
  Summary s = summarize(ramp(20));
  EXPECT_EQ(s.tail_pct, 50.0);
  EXPECT_EQ(s.tail, 10.0);
  // 100 samples: p90 is rank 90 with 10 beyond; p95 leaves 5.
  s = summarize(ramp(100));
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_EQ(s.tail, 90.0);
  // 1000 samples: p99 is rank 990 with exactly 10 beyond.
  s = summarize(ramp(1000));
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  // 10000 samples reach p99.9 (rank 9990).
  s = summarize(ramp(10000));
  EXPECT_EQ(s.tail_pct, 99.9);
  EXPECT_EQ(s.tail, 9990.0);
}

TEST(Summary, TailJustBelowABoundaryFallsBack) {
  // 999 samples: p99 is rank 990 with 9 beyond, so p95 (rank 950) it is.
  const Summary s = summarize(ramp(999));
  EXPECT_EQ(s.tail_pct, 95.0);
  EXPECT_EQ(s.tail, 950.0);
}

}  // namespace
}  // namespace perfbench
