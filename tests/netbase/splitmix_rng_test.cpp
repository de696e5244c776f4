// SplitMixRng: raw outputs against Vigna's reference, unbiased bounded draws
// (Lemire's multiply-shift with its rejection step), bucket uniformity, and
// the seed derivation it shares with Rng::fork.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/rng.h"

namespace bgpcmp {
namespace {

// Vigna's splitmix64.c next(), kept here so the engine is checked against
// the published algorithm rather than against itself.
std::uint64_t reference_next(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Lemire's bounded draw in its plain form: redraw while the low word of the
// product falls below 2^64 mod n. Counts the redraws in `rejected`.
std::uint64_t reference_below(std::uint64_t& x, std::uint64_t n, int& rejected) {
  const std::uint64_t surplus = (std::uint64_t{0} - n) % n;
  for (;;) {
    const unsigned __int128 m = static_cast<unsigned __int128>(reference_next(x)) * n;
    if (static_cast<std::uint64_t>(m) >= surplus) {
      return static_cast<std::uint64_t>(m >> 64);
    }
    ++rejected;
  }
}

constexpr std::uint64_t kBounds[] = {1,
                                     2,
                                     3,
                                     40,
                                     (std::uint64_t{1} << 32) + 1,
                                     (std::uint64_t{1} << 63) + 1};

TEST(SplitMixRng, RawOutputsMatchVignaReference) {
  // The first output from state 0 is the value the published code prints.
  EXPECT_EQ(SplitMixRng{0}.next(), 0xe220a8397b1dcdafULL);
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
                                   std::uint64_t{0xdeadbeef}, ~std::uint64_t{0}}) {
    SplitMixRng rng{seed};
    std::uint64_t x = seed;
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rng.next(), reference_next(x)) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(SplitMixRng, BelowStaysInRange) {
  SplitMixRng rng{7};
  for (const std::uint64_t n : kBounds) {
    for (int i = 0; i < 20000; ++i) {
      ASSERT_LT(rng.below(n), n) << "n=" << n;
    }
  }
}

TEST(SplitMixRng, BelowMatchesLemireReference) {
  // Same outputs and same stream position as the plain rejection loop. At
  // n = 2^63 + 1 about half of all products are surplus, so the engine must
  // take its rejection path there, and the count proves it did.
  for (const std::uint64_t n : kBounds) {
    SplitMixRng rng{99};
    std::uint64_t x = 99;
    int rejected = 0;
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(rng.below(n), reference_below(x, n, rejected)) << "n=" << n;
    }
    ASSERT_EQ(rng.next(), reference_next(x)) << "stream position differs, n=" << n;
    if (n == (std::uint64_t{1} << 63) + 1) {
      EXPECT_GT(rejected, 1000) << "rejection path not taken";
    }
    if (n <= 40) {
      EXPECT_EQ(rejected, 0) << "n=" << n;  // surplus / 2^64 < 1e-17
    }
  }
}

TEST(SplitMixRng, EmptyBoundIsRejected) {
  ScopedCheckThrows guard;
  SplitMixRng rng{1};
  try {
    (void)rng.below(0);
    ADD_FAILURE() << "no check fired";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot draw below an empty bound"),
              std::string::npos)
        << e.what();
  }
}

// Chi-square CDF with k degrees of freedom: the regularized lower incomplete
// gamma P(k/2, x/2), summed as its power series (converges for every x > 0).
double chi_square_cdf(double x, int k) {
  const double a = k / 2.0;
  const double half = x / 2.0;
  double term = 1.0 / a;
  double sum = term;
  for (int n = 1; n < 10000 && term > sum * 1e-17; ++n) {
    term *= half / (a + n);
    sum += term;
  }
  return sum * std::exp(-half + a * std::log(half) - std::lgamma(a));
}

TEST(SplitMixRng, BucketsAreUniform) {
  // Tabulated points of chi-square(39) pin the CDF helper first.
  EXPECT_NEAR(chi_square_cdf(72.055, 39), 0.999, 1e-5);
  EXPECT_NEAR(chi_square_cdf(17.262, 39), 0.001, 1e-5);

  // 40 buckets (Study 1's largest per-side sample), 1000 draws expected in
  // each. Under uniformity the statistic follows chi-square(39); a fixed seed
  // fails either 0.1% tail with probability 0.002. The lower tail catches a
  // draw that is too even to be random (a counter modulo n).
  constexpr int kBuckets = 40;
  constexpr int kPerBucket = 1000;
  std::array<int, kBuckets> counts{};
  SplitMixRng rng{2024};
  for (int i = 0; i < kBuckets * kPerBucket; ++i) ++counts[rng.below(kBuckets)];
  double stat = 0.0;
  for (const int c : counts) {
    const double d = c - kPerBucket;
    stat += d * d / kPerBucket;
  }
  const double p = chi_square_cdf(stat, kBuckets - 1);
  EXPECT_GT(p, 0.001) << "chi-square " << stat << " too small";
  EXPECT_LT(p, 0.999) << "chi-square " << stat << " too large";
}

TEST(SplitMixRng, ForkSplitmixSharesForkSeedDerivation) {
  // fork_splitmix(label) seeds the SplitMix state with the seed fork(label)
  // gives its Rng, without building that Rng.
  const Rng root{7};
  for (const char* label : {"internet", "ci-3-1-0", "ci-3-1-1"}) {
    SplitMixRng child = root.fork_splitmix(label);
    std::uint64_t x = root.fork(label).base_seed();
    EXPECT_EQ(child.next(), reference_next(x)) << label;
  }
  EXPECT_NE(root.fork_splitmix("ci-3-1-0").next(), root.fork_splitmix("ci-3-1-1").next());
}

}  // namespace
}  // namespace bgpcmp
