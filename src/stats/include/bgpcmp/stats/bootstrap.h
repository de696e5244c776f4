// Bootstrap confidence intervals.
//
// Figure 1's shaded region is "the distribution of the lower and upper bounds
// of the confidence intervals around the performance difference". We compute
// percentile-bootstrap CIs for the median of small per-window samples.
//
// The resampling draws come from a SplitMixRng, not an Rng: Study 1 gives
// each <pair, window> CI its own stream (Rng::fork_splitmix), so the CI
// never advances the session-sampling streams, and a bounded SplitMix draw
// costs a fraction of an mt19937_64 draw through a distribution.
//
// A resample is a count of draws per rank of the sorted sample, not a copy of
// the drawn values; its median is read from the cumulative counts. That is
// bit-identical to copying the draws and selecting the middle, with the same
// draws in the same order, so the stream ends where a copy-and-select
// resample leaves it. Sorted input is used in place (the fast path Study 1
// takes); other input is ranked once per call by a stable index sort.
// Samples must be finite and the confidence level must lie in (0, 1).
#pragma once

#include <span>

#include "bgpcmp/netbase/rng.h"

namespace bgpcmp::stats {

struct ConfidenceInterval {
  double lower = 0.0;
  double point = 0.0;
  double upper = 0.0;

  [[nodiscard]] double width() const { return upper - lower; }
  [[nodiscard]] bool contains(double v) const { return lower <= v && v <= upper; }
};

struct BootstrapOptions {
  int resamples = 200;
  double confidence = 0.95;  ///< two-sided level, e.g. 0.95 -> [2.5%, 97.5%]
};

/// Percentile-bootstrap CI for the median of `values`. Deterministic given
/// the stream. Requires non-empty, finite input.
[[nodiscard]] ConfidenceInterval bootstrap_median_ci(std::span<const double> values,
                                                     SplitMixRng& rng,
                                                     const BootstrapOptions& opts = {});

/// CI for the *difference of medians* median(a) - median(b), resampling both
/// sides independently. Requires both inputs non-empty and finite.
[[nodiscard]] ConfidenceInterval bootstrap_median_diff_ci(
    std::span<const double> a, std::span<const double> b, SplitMixRng& rng,
    const BootstrapOptions& opts = {});

}  // namespace bgpcmp::stats
