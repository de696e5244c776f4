// Sample summaries: a timing is reported as its median plus the highest
// percentile that still has at least ten samples beyond it, with the sample
// count, so a tail figure is never read off a handful of points.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  /// Highest percentile from {50, 75, 90, 95, 99, 99.9} with at least ten
  /// samples strictly above its nearest-rank position; 0 when no percentile
  /// qualifies (fewer than 20 samples).
  double tail_pct = 0.0;
  double tail = 0.0;  ///< value at tail_pct (nearest rank); 0 when tail_pct is 0
};

/// Summarize `samples` (any order). An empty input gives a zero Summary.
[[nodiscard]] Summary summarize(std::vector<double> samples);

}  // namespace perfbench
