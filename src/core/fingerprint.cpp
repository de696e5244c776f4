#include "bgpcmp/core/fingerprint.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/bgp/table_dump.h"
#include "bgpcmp/cdn/anycast_cdn.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/serving.h"
#include "bgpcmp/core/snapshot.h"
#include "bgpcmp/core/study_anycast.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/core/study_wan.h"
#include "bgpcmp/netbase/fnv.h"
#include "bgpcmp/stats/table.h"
#include "bgpcmp/wan/tiers.h"

namespace bgpcmp::core {
namespace {

// Sample grid shared by the demand / latency probes below: a handful of
// prefixes spread across the population, at fixed simulation instants.
constexpr std::size_t kSamplePrefixes = 32;
constexpr double kSampleHours[] = {0.5, 7.25, 13.0, 21.75};

/// The "ases=... ixps=N" counts prefix shared by the scenario and
/// topology-only renderings (the scenario one appends " clients=N" before the
/// newline, so existing fingerprints are unchanged).
std::string topology_counts(const topo::Internet& internet) {
  const auto& g = internet.graph;
  return "ases=" + std::to_string(g.as_count()) +
         " edges=" + std::to_string(g.edge_count()) +
         " links=" + std::to_string(g.link_count()) +
         " ixps=" + std::to_string(internet.ixps.size());
}

std::string per_class_table(const topo::AsGraph& g) {
  stats::Table t{{"class", "count", "mean degree", "mean presence"}};
  for (const auto cls :
       {topo::AsClass::Tier1, topo::AsClass::Transit, topo::AsClass::Eyeball,
        topo::AsClass::Stub, topo::AsClass::Content}) {
    const auto members = g.of_class(cls);
    if (members.empty()) continue;
    double degree = 0.0;
    double presence = 0.0;
    for (const auto m : members) {
      degree += static_cast<double>(g.node(m).edges.size());
      presence += static_cast<double>(g.node(m).presence.size());
    }
    const auto n = static_cast<double>(members.size());
    t.add_row({std::string(topo::as_class_name(cls)), std::to_string(members.size()),
               stats::fmt(degree / n, 3), stats::fmt(presence / n, 3)});
  }
  return t.render();
}

void append_topology(const Scenario& sc, std::string& out) {
  out += banner("topology");
  out += topology_counts(sc.internet) +
         " clients=" + std::to_string(sc.clients.size()) + "\n";
  out += per_class_table(sc.internet.graph);
}

void append_routes(const Scenario& sc, std::string& out) {
  const auto& g = sc.internet.graph;
  out += banner("provider routes");
  const auto table = bgp::compute_routes(g, sc.provider.as_index());
  out += bgp::dump_table(g, table, /*limit=*/40);
}

void append_catchment(const Scenario& sc, const cdn::AnycastCdn& cdn,
                      std::string& out) {
  out += banner("anycast catchment");
  const auto& db = sc.internet.city_db();
  std::map<cdn::PopId, std::pair<double, std::size_t>> per_pop;
  double total = 0.0;
  for (traffic::PrefixId id = 0; id < sc.clients.size(); ++id) {
    const auto route = cdn.anycast_route(sc.clients.at(id));
    if (!route.valid()) continue;
    per_pop[route.pop].first += sc.clients.at(id).user_weight;
    per_pop[route.pop].second += 1;
    total += sc.clients.at(id).user_weight;
  }
  stats::Table t{{"PoP", "user share", "client /24s"}};
  for (const auto& [pop, acc] : per_pop) {
    t.add_row({std::string(db.at(sc.provider.pop(pop).city).name),
               stats::fmt(100.0 * acc.first / total, 4),
               std::to_string(acc.second)});
  }
  out += t.render();
}

void append_demand_and_latency(const Scenario& sc, const cdn::AnycastCdn& cdn,
                               std::string& out) {
  out += banner("demand and latency samples");
  const std::size_t stride =
      sc.clients.size() > kSamplePrefixes ? sc.clients.size() / kSamplePrefixes : 1;
  stats::Table t{{"prefix", "popularity", "volume@13h", "rtt (ms)", "bw (gbps)"}};
  for (traffic::PrefixId id = 0; id < sc.clients.size(); id += stride) {
    const auto& client = sc.clients.at(id);
    std::string rtts;
    std::string bw = "-";
    const auto route = cdn.anycast_route(client);
    if (route.valid()) {
      for (const double h : kSampleHours) {
        const auto breakdown =
            sc.latency.rtt(route.path, SimTime::hours(h), client.access,
                           client.origin_as, client.city);
        if (!rtts.empty()) rtts += "/";
        rtts += stats::fmt(breakdown.total().value(), 3);
      }
      bw = stats::fmt(
          sc.latency.available_bandwidth(route.path, SimTime::hours(13.0)).value(),
          3);
    }
    t.add_row({client.prefix.str(), stats::fmt(sc.demand.popularity(id), 6),
               stats::fmt(sc.demand.volume(id, SimTime::hours(13.0)).value(), 1),
               rtts, bw});
  }
  out += t.render();
}

// Scaled-down study runs: deep enough to flow through every study code path,
// small enough that auditing the whole registry stays interactive.
void append_pop_study(const Scenario& sc, std::string& out) {
  out += banner("pop study (scaled down)");
  PopStudyConfig cfg;
  cfg.days = 1.0;
  cfg.window_stride = 8;
  cfg.top_k_routes = 2;
  cfg.bootstrap.resamples = 20;
  const auto result = run_pop_study(sc, cfg);
  out += "series=" + std::to_string(result.series.size()) +
         " windows=" + std::to_string(result.windows.size()) + "\n";
  const auto cdf = result.fig1_cdf();
  if (cdf.count() > 0) {
    out += render_cdfs("diff_ms", {"fig1"}, {&cdf}, -20.0, 20.0, 11);
  }
  out += headline("improvable traffic fraction",
                  result.improvable_traffic_fraction(5.0));
}

void append_anycast_study(const Scenario& sc, const cdn::AnycastCdn& cdn,
                          std::string& out) {
  out += banner("anycast study (scaled down)");
  AnycastStudyConfig cfg;
  cfg.beacon_rounds = 1;
  cfg.eval_windows = 2;
  const auto result = run_anycast_study(sc, cdn, cfg);
  out += render_cdfs("gap_ms", {"world"}, {&result.fig3_world}, 0.0, 100.0, 11,
                     /*ccdf=*/true);
  out += headline("within 10ms", result.frac_within_10ms);
  out += headline("unicast 100ms faster", result.frac_unicast_100ms_faster);
  out += headline("fig4 improved", result.fig4_improved_fraction);
  out += headline("fig4 worse", result.fig4_worse_fraction);
}

void append_wan_study(const Scenario& sc, std::string& out) {
  out += banner("wan study (scaled down)");
  wan::CloudTiers tiers{&sc.internet, &sc.provider};
  WanStudyConfig cfg;
  cfg.fleet.daily_vantage_points = 60;
  cfg.fleet.rounds_per_day = 2;
  cfg.fleet.pings_per_measurement = 2;
  cfg.campaign.days = 2.0;
  cfg.min_country_samples = 5;
  const auto result = run_wan_study(sc, tiers, cfg);
  out += "samples=" + std::to_string(result.total_samples) + "/" +
         std::to_string(result.filtered_samples) + "\n";
  stats::Table t{{"country", "median S-P (ms)", "samples"}};
  for (const auto& row : result.countries) {
    t.add_row({row.country, stats::fmt(row.median_diff_ms, 4),
               std::to_string(row.samples)});
  }
  out += t.render();
  out += headline("premium near ingress", result.premium_ingress_near_fraction);
  out += headline("standard near ingress", result.standard_ingress_near_fraction);
}

/// Deterministic churn drive: warm a RouteCache over strided eyeball origins,
/// then push three structured event waves (withdraw, restore+prepend,
/// flap+clear) through the parallel reconverge path. Events are derived from
/// CSR edge order — no RNG — so two runs diverge only if the delta code
/// leaks scheduling or iteration order into results.
std::string render_churn_tables(const ScenarioConfig& config) {
  const auto internet = topo::build_internet(config.internet);
  const auto& g = internet.graph;
  std::string out;
  out += banner("churn (world only)");
  out += topology_counts(internet) + "\n";

  std::vector<topo::AsIndex> origins;
  const auto& eyes = internet.eyeballs;
  const std::size_t stride = eyes.size() > 16 ? eyes.size() / 16 : 1;
  for (std::size_t i = 0; i < eyes.size(); i += stride) origins.push_back(eyes[i]);
  bgp::RouteCache cache{&g};
  cache.warm(origins, exec::global_pool());

  const topo::EdgeIndex& idx = g.edge_index();
  stats::Table waves{{"wave", "origin", "sessions", "invalidated", "pops", "changed"}};
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<bgp::OriginChurn> batch;
    for (const topo::AsIndex o : origins) {
      const auto edges = idx.edges_of(o);
      bgp::OriginChurn oc;
      oc.origin = o;
      const topo::EdgeId e = edges[static_cast<std::size_t>(wave) % edges.size()];
      switch (wave) {
        case 0:
          oc.events.push_back(bgp::ChurnEvent::withdraw(e));
          break;
        case 1:
          oc.events.push_back(bgp::ChurnEvent::announce(edges.front()));
          oc.events.push_back(bgp::ChurnEvent::prepend_set(e, 3));
          break;
        default: {
          const auto& links = g.edge(e).links;
          if (!links.empty()) {
            oc.events.push_back(bgp::ChurnEvent::link_flap(links.front()));
          }
          oc.events.push_back(
              bgp::ChurnEvent::prepend_set(edges[1 % edges.size()], 0));
          break;
        }
      }
      batch.push_back(std::move(oc));
    }
    const auto stats = cache.reconverge(batch, exec::global_pool());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      waves.add_row({std::to_string(wave), std::string(g.node(batch[i].origin).name),
                     std::to_string(stats[i].changed_sessions),
                     std::to_string(stats[i].invalidated()),
                     std::to_string(stats[i].worklist_pops),
                     std::to_string(stats[i].changed_routes)});
    }
  }
  out += waves.render();

  // Final per-origin table digests: the full post-churn tables, hashed, so a
  // divergence anywhere in a delta is visible even when the stats agree.
  stats::Table digests{{"origin", "table digest"}};
  for (const topo::AsIndex o : origins) {
    const bgp::RouteTable* table = cache.find(o);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(bgp::dump_table(g, *table, /*limit=*/0))));
    digests.add_row({std::string(g.node(o).name), buf});
  }
  out += digests.render();
  return out;
}

/// Serving round-trip: build a ServingWorld, snapshot it to a temp file named
/// by the config fingerprint (no wall clock, no RNG — two runs reuse and
/// overwrite the same path with identical bytes), load it back, and answer
/// one deterministic query batch from both worlds. The rendering carries both
/// digests and an explicit equality line, so fresh-vs-loaded divergence fails
/// the audit even within a single run.
std::string render_serving_tables(const ScenarioConfig& config) {
  std::string out;
  out += banner("serving (snapshot vs fresh)");

  ServingConfig serving;
  serving.warm_origins = 24;
  const auto fresh = ServingWorld::build(config, serving);
  out += topology_counts(fresh->scenario().internet) +
         " clients=" + std::to_string(fresh->scenario().clients.size()) +
         " warmed=" + std::to_string(fresh->warmed().size()) + "\n";

  const char* tmpdir = std::getenv("TMPDIR");
  char name[48];
  std::snprintf(name, sizeof name, "/bgpcmp_serving_%016llx.snap",
                static_cast<unsigned long long>(scenario_config_fingerprint(config)));
  const std::string path =
      std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") + name;
  fresh->save(path);
  // kFull: the audit is exactly where the deep world-fingerprint pin earns
  // its cost (see topo::SnapshotVerify) — every CI run re-verifies that the
  // materialized world matches the stored fingerprint bit for bit.
  const auto loaded = ServingWorld::load(path, config, topo::SnapshotVerify::kFull);
  std::remove(path.c_str());

  const auto queries = fresh->generate_queries(/*count=*/96, /*seed=*/2026);
  const QueryServer fresh_server{fresh.get(), &exec::global_pool()};
  const QueryServer loaded_server{loaded.get(), &exec::global_pool()};
  const auto fresh_answers = fresh_server.answer_batch(queries);
  const auto loaded_answers = loaded_server.answer_batch(queries);

  stats::Table sampled{{"query", "answer"}};
  for (std::size_t i = 0; i < fresh_answers.size(); i += 12) {
    sampled.add_row({std::to_string(i), fresh_answers[i]});
  }
  out += sampled.render();

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(answers_digest(fresh_answers)));
  out += "fresh digest=" + std::string(digest) + "\n";
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(answers_digest(loaded_answers)));
  out += "loaded digest=" + std::string(digest) + "\n";
  out += std::string("fresh equals loaded=") +
         (fresh_answers == loaded_answers ? "1" : "0") + "\n";
  return out;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view data) {
  Fnv1a hash;
  hash.bytes(data);
  return hash.value();
}

std::string render_result_tables(const ScenarioConfig& config, FingerprintKind kind) {
  if (kind == FingerprintKind::Serving) return render_serving_tables(config);
  if (kind == FingerprintKind::Churn) return render_churn_tables(config);
  if (kind == FingerprintKind::Topology) {
    // World generation only — no provider, clients, or studies. The canonical
    // structural hash stands in for the table dumps a full scenario gets.
    const auto internet = topo::build_internet(config.internet);
    std::string out;
    out += banner("topology (world only)");
    out += topology_counts(internet) + "\n";
    out += per_class_table(internet.graph);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(topo::internet_fingerprint(internet)));
    out += "world fingerprint=" + std::string(buf) + "\n";
    return out;
  }
  const auto scenario = Scenario::make(config);
  const cdn::AnycastCdn cdn{&scenario->internet, &scenario->provider};
  std::string out;
  append_topology(*scenario, out);
  append_routes(*scenario, out);
  append_catchment(*scenario, cdn, out);
  append_demand_and_latency(*scenario, cdn, out);
  if (kind == FingerprintKind::Studies) {
    append_pop_study(*scenario, out);
    append_anycast_study(*scenario, cdn, out);
    append_wan_study(*scenario, out);
  }
  return out;
}

std::uint64_t scenario_fingerprint(const ScenarioConfig& config, FingerprintKind kind) {
  return fnv1a64(render_result_tables(config, kind));
}

}  // namespace bgpcmp::core
