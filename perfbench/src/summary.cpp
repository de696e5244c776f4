#include "summary.h"

#include <algorithm>

namespace perfbench {

namespace {

/// Percentiles in tenths of a percent, highest first (integer ranks, no
/// floating-point rounding at the boundaries).
constexpr std::size_t kLadder[] = {999, 990, 950, 900, 750, 500};
constexpr std::size_t kBeyond = 10;

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  out.median =
      n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  for (const std::size_t tenths : kLadder) {
    // Nearest rank, 1-based: the smallest rank covering the percentile.
    const std::size_t rank = (tenths * n + 999) / 1000;
    if (rank >= 1 && n - rank >= kBeyond) {
      out.tail_pct = static_cast<double>(tenths) / 10.0;
      out.tail = samples[rank - 1];
      break;
    }
  }
  return out;
}

}  // namespace perfbench
