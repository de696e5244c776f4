#include "bgpcmp/stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/stats/quantile.h"

namespace bgpcmp::stats {

namespace {

/// One bootstrap side in rank order, built once per call. A resample is
/// then a histogram of drawn ranks instead of a copy of the drawn values:
/// each draw increments counts[rank[i]], and the median is read by walking
/// the cumulative counts to the ranks holding order statistics (n-1)/2 and,
/// for even n, n/2. The draws are the same n bounded draws in the same
/// order, so the stream advances exactly as a copy-and-select resample does,
/// and the order statistics are the values nth_element would place there:
/// tied values are equal, and the check below keeps NaN, whose order is
/// undefined, out. The result is therefore bit-identical to copy +
/// nth_element + tail minimum, without the copy, the selection or the tail
/// scan. (A sample holding both -0.0 and +0.0 is the one exception: which
/// zero each method picks may differ in sign.)
class RankedSample {
 public:
  /// Sorted input (Study 1 sorts each window's samples for its median
  /// first) is used in place and its ranks are its indices. Otherwise a
  /// stable sort of an index permutation gives the sorted copy and ranks.
  explicit RankedSample(std::span<const double> values) : input_(values) {
    bool in_order = true;
    for (std::size_t i = 0; i < values.size(); ++i) {
      BGPCMP_CHECK(std::isfinite(values[i]),
                   "bootstrap sample holds a non-finite value at index ", i);
      if (i > 0 && values[i] < values[i - 1]) in_order = false;
    }
    if (in_order) return;
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return values[x] < values[y];
    });
    copy_.resize(values.size());
    rank_.resize(values.size());
    for (std::size_t r = 0; r < order.size(); ++r) {
      copy_[r] = values[order[r]];
      rank_[order[r]] = r;
    }
  }

  /// The sample median, as quantile_sorted computes it.
  [[nodiscard]] double median() const { return quantile_sorted(sorted(), 0.5); }

  /// One resample's median. `counts` is caller-owned scratch, reused so a
  /// resample never allocates.
  double resample_median(SplitMixRng& rng, std::vector<std::size_t>& counts) const {
    const std::span<const double> sorted = this->sorted();
    const std::size_t n = sorted.size();
    counts.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto drawn = static_cast<std::size_t>(rng.below(n));
      ++counts[rank_.empty() ? drawn : rank_[drawn]];
    }
    const std::size_t lo = (n - 1) / 2;
    std::size_t r = 0;
    std::size_t seen = counts[0];
    while (seen <= lo) seen += counts[++r];
    const double mid = sorted[r];
    if (n % 2 != 0) return mid;
    while (seen <= lo + 1) seen += counts[++r];
    const double upper = sorted[r];
    return mid + 0.5 * (upper - mid);
  }

 private:
  [[nodiscard]] std::span<const double> sorted() const {
    return rank_.empty() ? input_ : std::span<const double>{copy_};
  }

  std::span<const double> input_;
  std::vector<double> copy_;       ///< sorted values when the input was not
  std::vector<std::size_t> rank_;  ///< input index -> rank; empty when sorted
};

void check_options(const BootstrapOptions& opts) {
  BGPCMP_CHECK_GT(opts.resamples, 0, "bootstrap needs at least one resample");
  BGPCMP_CHECK(opts.confidence > 0.0 && opts.confidence < 1.0,
               "bootstrap confidence must lie in (0, 1), got ", opts.confidence);
}

ConfidenceInterval interval_from(std::vector<double>& stats, double point,
                                 double confidence) {
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - confidence) / 2.0;
  return ConfidenceInterval{quantile_sorted(stats, alpha), point,
                            quantile_sorted(stats, 1.0 - alpha)};
}

}  // namespace

ConfidenceInterval bootstrap_median_ci(std::span<const double> values,
                                       SplitMixRng& rng,
                                       const BootstrapOptions& opts) {
  BGPCMP_CHECK(!values.empty(), "bootstrap of an empty sample");
  check_options(opts);
  const RankedSample sample{values};
  std::vector<std::size_t> counts;
  counts.reserve(values.size());
  std::vector<double> medians;
  medians.reserve(static_cast<std::size_t>(opts.resamples));
  for (int i = 0; i < opts.resamples; ++i) {
    medians.push_back(sample.resample_median(rng, counts));
  }
  return interval_from(medians, sample.median(), opts.confidence);
}

ConfidenceInterval bootstrap_median_diff_ci(std::span<const double> a,
                                            std::span<const double> b,
                                            SplitMixRng& rng,
                                            const BootstrapOptions& opts) {
  BGPCMP_CHECK(!a.empty() && !b.empty(), "bootstrap difference needs both samples");
  check_options(opts);
  const RankedSample side_a{a};
  const RankedSample side_b{b};
  std::vector<std::size_t> counts;
  counts.reserve(std::max(a.size(), b.size()));
  std::vector<double> diffs;
  diffs.reserve(static_cast<std::size_t>(opts.resamples));
  for (int i = 0; i < opts.resamples; ++i) {
    const double ma = side_a.resample_median(rng, counts);
    const double mb = side_b.resample_median(rng, counts);
    diffs.push_back(ma - mb);
  }
  return interval_from(diffs, side_a.median() - side_b.median(), opts.confidence);
}

}  // namespace bgpcmp::stats
