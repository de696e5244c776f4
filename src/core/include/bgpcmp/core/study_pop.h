// Study 1 (§3.1): performance-aware egress routing vs BGP at every PoP.
//
// Reproduces the Facebook analysis: for each <PoP, prefix>, sampled sessions
// are sprayed over BGP's top-k egress routes in every 15-minute window;
// per-window medians compare BGP's preferred route against the best
// alternative, traffic-weighted. The stored per-route time series also feeds
// the degrade-together decomposition (E6), the footprint ablation (E7), and
// the beyond-median analysis (E10).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgpcmp/core/scenario.h"
#include "bgpcmp/stats/bootstrap.h"
#include "bgpcmp/stats/cdf.h"
#include "bgpcmp/traffic/sessions.h"

namespace bgpcmp::core {

struct PopStudyConfig {
  std::uint64_t seed = 1001;
  double days = 10.0;   ///< the paper's dataset covers ten days
  int window_stride = 2;  ///< evaluate every n-th 15-minute window
  int top_k_routes = 3;   ///< spray over BGP's top-k preferred routes (>= 2)
  traffic::SessionConfig sessions;
  stats::BootstrapOptions bootstrap{/*resamples=*/60, /*confidence=*/0.95};
};

/// Metadata of one ranked egress route at a PoP.
struct EgressRouteInfo {
  topo::AsIndex neighbor = topo::kNoAs;
  topo::NeighborRole role = topo::NeighborRole::Peer;
  topo::LinkKind kind = topo::LinkKind::Transit;
  topo::LinkId link = topo::kNoLink;
  std::uint16_t as_path_len = 0;
};

/// Per-<PoP, prefix> measurement series across all windows.
struct PopPrefixSeries {
  cdn::PopId pop = cdn::kNoPop;
  traffic::PrefixId prefix = 0;
  std::vector<EgressRouteInfo> routes;  ///< policy-ranked; [0] is BGP preferred
  std::vector<float> volume;            ///< bytes per window
  /// medians[r][w]: median sampled MinRTT of route r in window w (ms).
  std::vector<std::vector<float>> medians;
  /// Bootstrap CI bounds of (BGP - best alternate) per window.
  std::vector<float> ci_lower;
  std::vector<float> ci_upper;

  /// BGP-preferred minus best-alternate median in window w.
  [[nodiscard]] float diff(std::size_t w) const;
};

struct PopStudyResult {
  std::vector<TimeWindow> windows;  ///< the evaluated windows
  std::vector<PopPrefixSeries> series;

  /// Fig 1: traffic-weighted CDF of (BGP - best alternate); positive means an
  /// alternate path beats BGP. `bound` selects the point estimate or a CI
  /// bound (the figure's shaded region).
  enum class Fig1Bound { Point, Lower, Upper };
  [[nodiscard]] stats::WeightedCdf fig1_cdf(Fig1Bound bound = Fig1Bound::Point) const;

  /// Fig 2 solid line: (best peering route) - (best transit route) median,
  /// over <pair, window> with both classes present.
  [[nodiscard]] stats::WeightedCdf fig2_peer_vs_transit() const;
  /// Fig 2 dashed line: (best private peer) - (best public peer).
  [[nodiscard]] stats::WeightedCdf fig2_private_vs_public() const;

  /// §3.1 headline: fraction of traffic whose median MinRTT an omniscient
  /// controller improves by at least `threshold_ms`.
  [[nodiscard]] double improvable_traffic_fraction(double threshold_ms) const;
};

/// Fig 1's (diff, volume) points of `series` over `window_count` windows,
/// in pair-major, window-minor order; `bound` puts a CI bound in place of
/// the diff. The streaming study stores exactly these, chunk by chunk.
[[nodiscard]] std::vector<stats::Weighted> fig1_points(
    std::span<const PopPrefixSeries> series, std::size_t window_count,
    PopStudyResult::Fig1Bound bound = PopStudyResult::Fig1Bound::Point);

/// The §3.1 headline fold over Fig-1 points: the share of their weight whose
/// diff is at least `threshold_ms`. Points are added span by span in
/// pair-major, window-minor order. Both Study-1 results fold through this,
/// so their fractions are the same additions in the same order: bit-equal.
struct ImprovableFold {
  double threshold_ms = 0.0;
  double improvable = 0.0;
  double total = 0.0;

  void add(std::span<const stats::Weighted> points);
  [[nodiscard]] double fraction() const {
    return total > 0.0 ? improvable / total : 0.0;
  }
};

/// The evaluated windows of a study config (strided 15-minute grid) — shared
/// by the eager study, the streaming scale study, and shard workers.
[[nodiscard]] std::vector<TimeWindow> study_windows(const PopStudyConfig& config);

/// Study 1's one warm -> plan -> measure body, over a contiguous run of
/// client prefixes: `prefixes[i]` has global id first_prefix + i and static
/// popularity `popularity[i]`. Warms a RouteCache over only their origins,
/// plans every <PoP, prefix> pair (core/pop_pair.h), and returns the series
/// of the pairs with at least two routes, in prefix order. Per-AS route
/// tables and per-pair RNG streams make every byte independent of which run
/// — chunk, process, or thread — computes a pair.
[[nodiscard]] std::vector<PopPrefixSeries> run_pop_pairs(
    const ScaleWorld& world, const PopStudyConfig& config,
    const std::vector<TimeWindow>& windows,
    std::span<const traffic::ClientPrefix> prefixes, traffic::PrefixId first_prefix,
    std::span<const double> popularity);

/// Run the study on a scenario: run_pop_pairs over the whole resident client
/// base, keeping every series. Deterministic in (scenario, config).
[[nodiscard]] PopStudyResult run_pop_study(const Scenario& scenario,
                                           const PopStudyConfig& config = {});

}  // namespace bgpcmp::core
