#include "bgpcmp/stats/bootstrap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/stats/quantile.h"

namespace bgpcmp::stats {
namespace {

// Reference: the copy-and-select resample the kernel must match bit for bit.
// Each resample copies the drawn values, places the lower middle with
// nth_element and, for even n, takes the upper middle as the tail minimum.
namespace reference {

double median_inplace(std::vector<double>& v) {
  if (v.size() == 1) return v[0];
  const std::size_t lo = (v.size() - 1) / 2;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 != 0) return *mid;
  const double upper = *std::min_element(mid + 1, v.end());
  return *mid + 0.5 * (upper - *mid);
}

double resample_median(std::span<const double> values, SplitMixRng& rng,
                       std::vector<double>& scratch) {
  scratch.resize(values.size());
  for (double& slot : scratch) {
    slot = values[static_cast<std::size_t>(rng.below(values.size()))];
  }
  return median_inplace(scratch);
}

ConfidenceInterval interval_from(std::vector<double>& stats, double point,
                                 double confidence) {
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - confidence) / 2.0;
  return ConfidenceInterval{quantile_sorted(stats, alpha), point,
                            quantile_sorted(stats, 1.0 - alpha)};
}

ConfidenceInterval median_ci(std::span<const double> values, SplitMixRng& rng,
                             const BootstrapOptions& opts) {
  std::vector<double> scratch;
  std::vector<double> medians;
  for (int i = 0; i < opts.resamples; ++i) {
    medians.push_back(resample_median(values, rng, scratch));
  }
  return interval_from(medians, median(values), opts.confidence);
}

ConfidenceInterval median_diff_ci(std::span<const double> a,
                                  std::span<const double> b, SplitMixRng& rng,
                                  const BootstrapOptions& opts) {
  std::vector<double> scratch;
  std::vector<double> diffs;
  for (int i = 0; i < opts.resamples; ++i) {
    const double ma = resample_median(a, rng, scratch);
    const double mb = resample_median(b, rng, scratch);
    diffs.push_back(ma - mb);
  }
  return interval_from(diffs, median(a) - median(b), opts.confidence);
}

}  // namespace reference

bool same_bits(const ConfidenceInterval& x, const ConfidenceInterval& y) {
  const double xs[3] = {x.lower, x.point, x.upper};
  const double ys[3] = {y.lower, y.point, y.upper};
  return std::memcmp(xs, ys, sizeof xs) == 0;
}

// Sample shapes: distinct values sorted and unsorted, ties from rounding,
// all equal, and two values only (sorted and unsorted).
enum class Shape { kSorted, kUnsorted, kTied, kAllEqual, kTwoValued, kTwoValuedSorted };
constexpr Shape kShapes[] = {Shape::kSorted,   Shape::kUnsorted,
                             Shape::kTied,     Shape::kAllEqual,
                             Shape::kTwoValued, Shape::kTwoValuedSorted};

std::vector<double> sample(Shape shape, int n, Rng& gen) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) {
    switch (shape) {
      case Shape::kSorted:
      case Shape::kUnsorted: v.push_back(gen.normal(50, 10)); break;
      case Shape::kTied: v.push_back(std::round(gen.normal(50, 10) / 4.0) * 4.0); break;
      case Shape::kAllEqual: v.push_back(7.25); break;
      case Shape::kTwoValued:
      case Shape::kTwoValuedSorted: v.push_back(gen.chance(0.4) ? 8.5 : 3.0); break;
    }
  }
  if (shape == Shape::kSorted || shape == Shape::kTwoValuedSorted) {
    std::sort(v.begin(), v.end());
  }
  return v;
}

TEST(BootstrapExact, MedianCiMatchesCopyAndSelectBitForBit) {
  Rng gen{21};
  for (const Shape shape : kShapes) {
    for (int n = 1; n <= 64; ++n) {
      const auto v = sample(shape, n, gen);
      for (const int resamples : {1, 20, 60, 200}) {
        const BootstrapOptions opts{resamples, 0.95};
        const std::uint64_t seed = gen.engine()();
        SplitMixRng mine{seed};
        SplitMixRng ref{seed};
        const auto got = bootstrap_median_ci(v, mine, opts);
        const auto want = reference::median_ci(v, ref, opts);
        ASSERT_TRUE(same_bits(got, want))
            << "shape " << static_cast<int>(shape) << " n=" << n
            << " resamples=" << resamples;
        ASSERT_EQ(mine.next(), ref.next()) << "stream position differs";
      }
    }
  }
}

TEST(BootstrapExact, MedianDiffCiMatchesCopyAndSelectBitForBit) {
  Rng gen{22};
  for (const Shape shape_a : kShapes) {
    for (int n = 1; n <= 64; ++n) {
      // The other side walks the shapes and sizes out of step with this one.
      const Shape shape_b = kShapes[static_cast<std::size_t>(n) % std::size(kShapes)];
      const auto a = sample(shape_a, n, gen);
      const auto b = sample(shape_b, 65 - n, gen);
      for (const int resamples : {1, 20, 60, 200}) {
        const BootstrapOptions opts{resamples, 0.95};
        const std::uint64_t seed = gen.engine()();
        SplitMixRng mine{seed};
        SplitMixRng ref{seed};
        const auto got = bootstrap_median_diff_ci(a, b, mine, opts);
        const auto want = reference::median_diff_ci(a, b, ref, opts);
        ASSERT_TRUE(same_bits(got, want))
            << "shapes " << static_cast<int>(shape_a) << "/"
            << static_cast<int>(shape_b) << " n=" << n << " resamples=" << resamples;
        ASSERT_EQ(mine.next(), ref.next()) << "stream position differs";
      }
    }
  }
}

TEST(BootstrapExact, SameSideTwiceMatchesReference) {
  // Both spans alias one buffer, as IdenticalSamplesStraddleZero does.
  Rng gen{23};
  const auto v = sample(Shape::kUnsorted, 33, gen);
  SplitMixRng mine{24};
  SplitMixRng ref{24};
  const BootstrapOptions opts{60, 0.95};
  EXPECT_TRUE(same_bits(bootstrap_median_diff_ci(v, v, mine, opts),
                        reference::median_diff_ci(v, v, ref, opts)));
  EXPECT_EQ(mine.next(), ref.next());
}

TEST(BootstrapExact, GoldenIntervals) {
  // Captured when the resampling draws moved onto SplitMixRng (the first
  // triple kept its old value: its endpoints are the same order statistics);
  // any change here moves every Fig-1 band and the study fingerprints with it.
  Rng gen{31};
  const auto odd = sample(Shape::kUnsorted, 21, gen);
  const auto sorted_a = sample(Shape::kSorted, 40, gen);
  const auto sorted_b = sample(Shape::kSorted, 17, gen);
  const auto tied = sample(Shape::kTied, 10, gen);
  SplitMixRng rng{32};
  const auto one = bootstrap_median_ci(odd, rng, {200, 0.95});
  const auto two = bootstrap_median_diff_ci(sorted_a, sorted_b, rng, {60, 0.95});
  const auto three = bootstrap_median_diff_ci(tied, odd, rng, {20, 0.90});
  EXPECT_TRUE(same_bits(one, {0x1.3d9251ece9b9ap+5, 0x1.6a66603ec2caep+5,
                               0x1.854c93a6f2d39p+5}));
  EXPECT_TRUE(same_bits(two, {-0x1.5a5f90d1438b5p+1, 0x1.1a20df4c76e3p+2,
                               0x1.212d1120ae486p+3}));
  EXPECT_TRUE(same_bits(three, {-0x1.187644066c52fp+2, -0x1.4ccc07d8595cp+0,
                                 0x1.f0129cd510b6p+2}));
}

TEST(Bootstrap, CiContainsSampleMedian) {
  SplitMixRng rng{1};
  std::vector<double> v;
  Rng gen{2};
  for (int i = 0; i < 40; ++i) v.push_back(gen.normal(20, 4));
  const auto ci = bootstrap_median_ci(v, rng);
  EXPECT_DOUBLE_EQ(ci.point, median(v));
  EXPECT_TRUE(ci.contains(ci.point));
  EXPECT_LE(ci.lower, ci.upper);
}

TEST(Bootstrap, DegenerateSampleHasZeroWidth) {
  SplitMixRng rng{3};
  const std::vector<double> v(20, 7.0);
  const auto ci = bootstrap_median_ci(v, rng);
  EXPECT_DOUBLE_EQ(ci.lower, 7.0);
  EXPECT_DOUBLE_EQ(ci.upper, 7.0);
  EXPECT_DOUBLE_EQ(ci.width(), 0.0);
}

TEST(Bootstrap, WidthShrinksWithSampleSize) {
  Rng gen{4};
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 10; ++i) small.push_back(gen.normal(0, 5));
  for (int i = 0; i < 1000; ++i) large.push_back(gen.normal(0, 5));
  SplitMixRng rng_a{5};
  SplitMixRng rng_b{5};
  const auto ci_small = bootstrap_median_ci(small, rng_a);
  const auto ci_large = bootstrap_median_ci(large, rng_b);
  EXPECT_LT(ci_large.width(), ci_small.width());
}

TEST(Bootstrap, DeterministicGivenRng) {
  Rng gen{6};
  std::vector<double> v;
  for (int i = 0; i < 30; ++i) v.push_back(gen.uniform(0, 10));
  SplitMixRng a{7};
  SplitMixRng b{7};
  const auto ci_a = bootstrap_median_ci(v, a);
  const auto ci_b = bootstrap_median_ci(v, b);
  EXPECT_DOUBLE_EQ(ci_a.lower, ci_b.lower);
  EXPECT_DOUBLE_EQ(ci_a.upper, ci_b.upper);
}

TEST(Bootstrap, HigherConfidenceWidensInterval) {
  Rng gen{8};
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(gen.normal(0, 3));
  SplitMixRng a{9};
  SplitMixRng b{9};
  BootstrapOptions narrow{200, 0.80};
  BootstrapOptions wide{200, 0.99};
  EXPECT_LE(bootstrap_median_ci(v, a, narrow).width(),
            bootstrap_median_ci(v, b, wide).width());
}

TEST(BootstrapDiff, PointIsMedianDifference) {
  const std::vector<double> a{1, 2, 3, 4, 100};
  const std::vector<double> b{0, 1, 2, 3, 4};
  SplitMixRng rng{10};
  const auto ci = bootstrap_median_diff_ci(a, b, rng);
  EXPECT_DOUBLE_EQ(ci.point, median(a) - median(b));
}

TEST(BootstrapDiff, SeparatedSamplesExcludeZero) {
  Rng gen{11};
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(gen.normal(100, 1));
    b.push_back(gen.normal(10, 1));
  }
  SplitMixRng rng{12};
  const auto ci = bootstrap_median_diff_ci(a, b, rng);
  EXPECT_GT(ci.lower, 0.0);  // a is clearly larger
  EXPECT_FALSE(ci.contains(0.0));
}

TEST(BootstrapDiff, IdenticalSamplesStraddleZero) {
  Rng gen{13};
  std::vector<double> a;
  for (int i = 0; i < 60; ++i) a.push_back(gen.normal(50, 5));
  SplitMixRng rng{14};
  const auto ci = bootstrap_median_diff_ci(a, a, rng);
  EXPECT_TRUE(ci.contains(0.0));
}

// Runs `call` and requires it to fail the check whose message is `message`.
template <typename Call>
void expect_check(const Call& call, const std::string& message) {
  ScopedCheckThrows guard;
  try {
    call();
    ADD_FAILURE() << "no check fired; expected: " << message;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
  }
}

TEST(BootstrapChecks, NonFiniteSampleIsRejected) {
  const std::string message = "bootstrap sample holds a non-finite value";
  const std::vector<double> good{1.0, 2.0, 3.0};
  const std::vector<double> with_nan{1.0, std::nan(""), 3.0};
  const std::vector<double> with_inf{1.0, 2.0, HUGE_VAL};
  SplitMixRng rng{40};
  expect_check([&] { (void)bootstrap_median_ci(with_nan, rng); }, message);
  expect_check([&] { (void)bootstrap_median_ci(with_inf, rng); }, message);
  expect_check([&] { (void)bootstrap_median_diff_ci(with_nan, good, rng); }, message);
  expect_check([&] { (void)bootstrap_median_diff_ci(good, with_inf, rng); }, message);
}

TEST(BootstrapChecks, ConfidenceOutsideUnitIntervalIsRejected) {
  const std::string message = "bootstrap confidence must lie in (0, 1)";
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  SplitMixRng rng{41};
  for (const double confidence : {0.0, 1.0, -0.5, 1.5, std::nan("")}) {
    const BootstrapOptions opts{20, confidence};
    expect_check([&] { (void)bootstrap_median_ci(v, rng, opts); }, message);
    expect_check([&] { (void)bootstrap_median_diff_ci(v, v, rng, opts); }, message);
  }
}

TEST(ConfidenceInterval, ContainsAndWidth) {
  const ConfidenceInterval ci{1.0, 2.0, 3.0};
  EXPECT_TRUE(ci.contains(1.0));
  EXPECT_TRUE(ci.contains(3.0));
  EXPECT_FALSE(ci.contains(0.99));
  EXPECT_DOUBLE_EQ(ci.width(), 2.0);
}

}  // namespace
}  // namespace bgpcmp::stats
