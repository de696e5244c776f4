// E16 (§3.3.2): "Does the public Internet performance observed to Google
// cloud data centers depend on Google paying Tier-1 providers for high-end
// service, or do we observe similar performance to other destinations? ...
// it is also possible that a route will often stay on a single large network
// for most of the way towards Google simply as an artifact of standard
// valley-free BGP policy."
//
// Test: compare vantage paths toward the cloud's Standard-tier announcement
// against paths toward ordinary stub networks homed in the same metro. If
// inflation and single-network fractions look alike, the cloud gets nothing
// special from the Tier-1s — valley-free policy alone produces the
// single-WAN-carries-it-most-of-the-way behavior.
#include <cstdio>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/stats/quantile.h"
#include "bgpcmp/wan/tiers.h"
#include "bgpcmp/wan/transit_wan.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  tools::bench_flags(argc, argv);
  std::fputs(core::banner("E16: is public-Internet performance to the cloud "
                          "special, or valley-free physics?")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::google_like());
  const auto& g = scenario->internet.graph;
  const auto& db = scenario->internet.city_db();
  wan::CloudTiers tiers{&scenario->internet, &scenario->provider};
  const SimTime t = SimTime::hours(12);

  // Ordinary destinations: stubs homed within 800 km of the DC metro.
  std::vector<topo::AsIndex> ordinary;
  for (const auto st : scenario->internet.stubs) {
    if (db.distance(g.node(st).hub, tiers.dc_city()).value() <= 800.0) {
      ordinary.push_back(st);
    }
  }
  std::printf("ordinary destinations near the DC: %zu stubs; cloud destination: "
              "Standard tier at %s\n\n",
              ordinary.size(), db.at(tiers.dc_city()).name.data());
  if (ordinary.empty()) {
    std::fputs("no stub near the DC in this world; nothing to compare\n", stdout);
    return 0;
  }
  std::vector<bgp::RouteTable> ordinary_tables;
  ordinary_tables.reserve(ordinary.size());
  for (const auto st : ordinary) {
    ordinary_tables.push_back(bgp::compute_routes(g, st));
  }

  // Weighted vantage sample; for each, inflation (RTT / geodesic floor) and
  // largest-single-network fraction toward both destination kinds.
  std::vector<double> cloud_inflation;
  std::vector<double> cloud_fraction;
  std::vector<double> ordinary_inflation;
  std::vector<double> ordinary_fraction;
  Rng rng{16001};
  std::vector<double> weights;
  for (traffic::PrefixId id = 0; id < scenario->clients.size(); ++id) {
    weights.push_back(scenario->clients.at(id).user_weight);
  }
  for (int i = 0; i < 600; ++i) {
    const auto id = static_cast<traffic::PrefixId>(rng.weighted_index(weights));
    const auto& client = scenario->clients.at(id);
    const double floor_ms =
        rtt_floor(db.distance(client.city, tiers.dc_city())).value() +
        client.access.base_rtt_ms;
    if (floor_ms <= 1.0) continue;

    const auto stan = tiers.standard(client);
    if (stan.valid()) {
      const double ms =
          tiers.rtt(stan, scenario->latency, t, client).value();
      cloud_inflation.push_back(ms / floor_ms);
      cloud_fraction.push_back(
          wan::largest_single_network_fraction(stan.access_path));
    }

    const std::size_t k = rng.index(ordinary.size());
    const auto& table = ordinary_tables[k];
    if (!table.reachable(client.origin_as)) continue;
    const auto as_path = table.path(client.origin_as);
    const auto dest_hub = g.node(ordinary[k]).hub;
    const auto path = lat::build_geo_path(g, db, as_path, client.city, dest_hub);
    if (!path.valid()) continue;
    const double floor2 =
        rtt_floor(db.distance(client.city, dest_hub)).value() +
        client.access.base_rtt_ms;
    if (floor2 <= 1.0) continue;
    const double ms = scenario->latency
                          .rtt(path, t, client.access, client.origin_as, client.city)
                          .total()
                          .value();
    ordinary_inflation.push_back(ms / floor2);
    ordinary_fraction.push_back(wan::largest_single_network_fraction(path));
  }

  std::fputs("Latency inflation over the geodesic floor (median / p90):\n", stdout);
  std::fputs(core::headline("to the cloud (Standard tier)",
                            stats::median(cloud_inflation), "x")
                 .c_str(),
             stdout);
  std::fputs(core::headline("to ordinary stubs in the same metro",
                            stats::median(ordinary_inflation), "x")
                 .c_str(),
             stdout);
  std::fputs(core::headline("cloud p90", stats::quantile(cloud_inflation, 0.9), "x")
                 .c_str(),
             stdout);
  std::fputs(core::headline("ordinary p90",
                            stats::quantile(ordinary_inflation, 0.9), "x")
                 .c_str(),
             stdout);
  std::fputs("\nFraction of the journey on the largest single network (median):\n",
             stdout);
  std::fputs(core::headline("to the cloud", stats::median(cloud_fraction)).c_str(),
             stdout);
  std::fputs(core::headline("to ordinary stubs", stats::median(ordinary_fraction))
                 .c_str(),
             stdout);
  std::fputs("\nReading: the model gives the cloud no preferential Tier-1 "
             "treatment, so matching inflation here shows valley-free policy "
             "alone reproduces the 'single WAN carries it most of the way' "
             "behavior — the paper's alternative hypothesis.\n",
             stdout);
  return 0;
}
