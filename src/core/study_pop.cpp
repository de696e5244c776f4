#include "bgpcmp/core/study_pop.h"

#include <algorithm>

#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/core/pop_pair.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/rtt_sampler.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::core {

float PopPrefixSeries::diff(std::size_t w) const {
  float best_alt = medians[1][w];
  for (std::size_t r = 2; r < medians.size(); ++r) {
    best_alt = std::min(best_alt, medians[r][w]);
  }
  return medians[0][w] - best_alt;
}

std::vector<TimeWindow> study_windows(const PopStudyConfig& config) {
  const auto grid = fifteen_minute_grid(config.days);
  std::vector<TimeWindow> windows;
  for (std::size_t i = 0; i < grid.size();
       i += static_cast<std::size_t>(std::max(1, config.window_stride))) {
    windows.push_back(grid[i]);
  }
  return windows;
}

std::vector<PopPrefixSeries> run_pop_pairs(
    const ScaleWorld& world, const PopStudyConfig& config,
    const std::vector<TimeWindow>& windows,
    std::span<const traffic::ClientPrefix> prefixes, traffic::PrefixId first_prefix,
    std::span<const double> popularity) {
  BGPCMP_CHECK_EQ(popularity.size(), prefixes.size(), "one popularity per prefix");
  BGPCMP_CHECK_GE(config.top_k_routes, 2,
                  "a pair needs at least two routes to compare");
  const auto& graph = world.internet.graph;
  const topo::CityDb& db = world.internet.city_db();

  // Route tables per client origin AS (shared across that AS's prefixes):
  // warm every distinct origin over the pool, then plan against the
  // read-only cache — the warm-then-plan pattern from docs/PARALLELISM.md.
  // Table memory is bounded by this run's origins, not the world's.
  bgp::RouteCache tables{&graph};
  std::vector<topo::AsIndex> origins;
  origins.reserve(prefixes.size());
  for (const auto& client : prefixes) origins.push_back(client.origin_as);
  tables.warm(origins, exec::global_pool());

  // Plan every <PoP, prefix> pair with at least two egress routes. Each pair
  // reads only the immutable world and the warmed cache, so planning fans
  // out too; under-routed pairs come back empty and are dropped in order.
  auto planned = exec::parallel_map(prefixes.size(), [&](std::size_t i) {
    const auto& client = prefixes[i];
    return plan_pop_pair(graph, db, world.provider, client,
                         first_prefix + static_cast<traffic::PrefixId>(i),
                         *tables.find(client.origin_as), config.top_k_routes);
  });
  std::vector<PairPlan> plans;
  for (auto& plan : planned) {
    if (plan.measurable()) plans.push_back(std::move(plan));
  }

  // Measure: spray sessions over each route in every window. Plans are
  // independent by construction — each forks its own RNG streams keyed by
  // <prefix, pop> (and the window, for the CI) and reads only immutable
  // world state (the congestion field's lazy access cache is internally
  // synchronized) — so they fan out over the exec pool, collected in plan
  // order. Output is byte-identical for any thread count;
  // tools/determinism_audit --compare-threads checks.
  const lat::RttSampler sampler;
  const Rng root{config.seed};
  return exec::parallel_map(plans.size(), [&](std::size_t p) {
    const PairPlan& plan = plans[p];
    const std::size_t i = plan.prefix - first_prefix;
    const auto& client = prefixes[i];
    return measure_pop_pair(plan, client, windows, popularity[i],
                            db.at(client.city).location.lon_deg, world.config.demand,
                            world.latency, sampler, root, config);
  });
}

PopStudyResult run_pop_study(const Scenario& scenario, const PopStudyConfig& config) {
  PopStudyResult result;
  result.windows = study_windows(config);
  result.series = run_pop_pairs(scenario, config, result.windows,
                                scenario.clients.prefixes(), 0,
                                scenario.demand.popularities());
  return result;
}

std::vector<stats::Weighted> fig1_points(std::span<const PopPrefixSeries> series,
                                         std::size_t window_count,
                                         PopStudyResult::Fig1Bound bound) {
  using Bound = PopStudyResult::Fig1Bound;
  std::vector<stats::Weighted> points;
  points.reserve(series.size() * window_count);
  for (const auto& s : series) {
    for (std::size_t w = 0; w < window_count; ++w) {
      const float value = bound == Bound::Lower   ? s.ci_lower[w]
                          : bound == Bound::Upper ? s.ci_upper[w]
                                                  : s.diff(w);
      points.push_back({value, s.volume[w]});
    }
  }
  return points;
}

void ImprovableFold::add(std::span<const stats::Weighted> points) {
  for (const auto& p : points) {
    total += p.weight;
    if (p.value >= threshold_ms) improvable += p.weight;
  }
}

stats::WeightedCdf PopStudyResult::fig1_cdf(Fig1Bound bound) const {
  stats::WeightedCdf cdf;
  cdf.add_all(fig1_points(series, windows.size(), bound));
  return cdf;
}

namespace {

/// Weighted CDF of (best class-A median) - (best class-B median) over
/// <pair, window> entries where both classes exist.
template <typename ClassOf>
stats::WeightedCdf class_diff_cdf(const PopStudyResult& result, ClassOf class_of) {
  stats::WeightedCdf cdf;
  for (const auto& s : result.series) {
    std::vector<std::size_t> class_a;
    std::vector<std::size_t> class_b;
    for (std::size_t r = 0; r < s.routes.size(); ++r) {
      const int c = class_of(s.routes[r]);
      if (c == 0) class_a.push_back(r);
      if (c == 1) class_b.push_back(r);
    }
    if (class_a.empty() || class_b.empty()) continue;
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
      auto best = [&](const std::vector<std::size_t>& idx) {
        float m = s.medians[idx[0]][w];
        for (const auto r : idx) m = std::min(m, s.medians[r][w]);
        return m;
      };
      cdf.add(best(class_a) - best(class_b), s.volume[w]);
    }
  }
  return cdf;
}

}  // namespace

stats::WeightedCdf PopStudyResult::fig2_peer_vs_transit() const {
  return class_diff_cdf(*this, [](const EgressRouteInfo& r) {
    return r.role == topo::NeighborRole::Peer ? 0
           : r.role == topo::NeighborRole::Provider ? 1
                                                    : -1;
  });
}

stats::WeightedCdf PopStudyResult::fig2_private_vs_public() const {
  return class_diff_cdf(*this, [](const EgressRouteInfo& r) {
    if (r.role != topo::NeighborRole::Peer) return -1;
    return r.kind == topo::LinkKind::PrivatePeering ? 0 : 1;
  });
}

double PopStudyResult::improvable_traffic_fraction(double threshold_ms) const {
  ImprovableFold fold{threshold_ms};
  fold.add(fig1_points(series, windows.size()));
  return fold.fraction();
}

}  // namespace bgpcmp::core
