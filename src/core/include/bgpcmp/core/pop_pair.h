// The per-<PoP, prefix> unit of Study 1: the plan and measure kernels that
// run_pop_pairs (study_pop.h) fans out over a run of client prefixes. Both
// Study-1 drivers reach them only through run_pop_pairs;
// tests/core/scale_study_test.cpp pins their output against golden values.
#pragma once

#include <vector>

#include "bgpcmp/bgp/route.h"
#include "bgpcmp/cdn/provider.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/latency/delay.h"
#include "bgpcmp/latency/rtt_sampler.h"
#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/traffic/clients.h"

namespace bgpcmp::core {

/// The ranked egress routes and their realized paths for one <PoP, prefix>.
struct PairPlan {
  cdn::PopId pop = cdn::kNoPop;
  traffic::PrefixId prefix = 0;
  std::vector<EgressRouteInfo> routes;
  std::vector<lat::GeoPath> paths;

  /// A pair is measurable only when BGP had a real choice to make.
  [[nodiscard]] bool measurable() const { return routes.size() >= 2; }
};

/// Plan one pair: pick the serving PoP, rank the egress routes by BGP policy,
/// realize top-k paths. Reads only immutable world state plus the origin's
/// route table, so planning fans out over any axis (pairs, chunks, shards).
/// Pairs with fewer than two usable routes come back with routes cleared.
/// Requires top_k >= 2: fewer routes leave nothing to compare.
[[nodiscard]] PairPlan plan_pop_pair(const topo::AsGraph& graph,
                                     const topo::CityDb& db,
                                     const cdn::ContentProvider& provider,
                                     const traffic::ClientPrefix& client,
                                     traffic::PrefixId prefix,
                                     const bgp::RouteTable& table, int top_k);

/// Measure one planned pair across the windows: spray sampled sessions over
/// every route, keep per-window medians and the bootstrap CI of
/// (BGP - best alternate). `popularity` and `lon_deg` feed
/// traffic::diurnal_volume, the one definition of the per-window volume.
/// Deterministic in its arguments: the sampling stream is forked from `root`
/// by <prefix, pop>, never by call order, and each window's CI draws from
/// its own SplitMixRng forked by <prefix, pop, window>, so the bootstrap
/// settings never move a sample.
[[nodiscard]] PopPrefixSeries measure_pop_pair(
    const PairPlan& plan, const traffic::ClientPrefix& client,
    const std::vector<TimeWindow>& windows, double popularity, double lon_deg,
    const traffic::DemandConfig& demand, const lat::LatencyModel& latency,
    const lat::RttSampler& sampler, const Rng& root, const PopStudyConfig& config);

}  // namespace bgpcmp::core
