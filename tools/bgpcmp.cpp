// bgpcmp — command-line explorer for the simulated Internet.
//
//   bgpcmp topology [--seed N]                 world summary
//   bgpcmp route <ASN> [--from <ASN>]          routes toward an AS
//   bgpcmp rib <ASN> --at <ASN>                what one AS hears (Adj-RIB-in)
//   bgpcmp catchment [--preset ms|fb|goog]     anycast catchment per PoP
//   bgpcmp pops [--preset ...]                 provider PoPs and sessions
//   bgpcmp trace <ASN> <city> <city>           geographic path across one AS
//   bgpcmp lookup <ip>                         who serves this address
//   bgpcmp snapshot --out PATH                 write a serving snapshot
//   bgpcmp serve [--snapshot PATH]             resident query server
//   bgpcmp shard --shards N [--check]          streaming study across N
//                                              worker processes, merged
//                                              deterministically
//
// Every subcommand accepts --threads N (or the BGPCMP_THREADS environment
// variable) to size the exec thread pool used for route warm-up. Arguments
// go through tools/flags.h: a malformed, out-of-range or unknown one exits 2
// with a diagnostic and the subcommand's usage line.
//
// Every subcommand builds the same deterministic world the benches use, so
// output here explains bench results line by line. snapshot/serve share the
// same config flags plus --scale N (multiply all four AS-class counts) and
// --warm K (origins to warm); a world loaded with `serve --snapshot` answers
// byte-identically to one built fresh from the same flags — compare the
// --digest lines.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/bgp/table_dump.h"
#include "bgpcmp/cdn/anycast_cdn.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/serving.h"
#include "bgpcmp/core/shard.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/path_model.h"
#include "bgpcmp/netbase/check.h"
#include "bgpcmp/stats/table.h"
#include "flags.h"
#include "shard_util.h"

using namespace bgpcmp;

namespace {

core::ScenarioConfig preset_config(const tools::Flags& flags) {
  const std::string preset = flags.text("preset", "fb");
  if (preset != "fb" && preset != "ms" && preset != "goog") {
    flags.fail("--preset needs fb, ms or goog, got '" + preset + "'");
  }
  core::ScenarioConfig cfg = preset == "ms"     ? core::ScenarioConfig::microsoft_like()
                             : preset == "goog" ? core::ScenarioConfig::google_like()
                                                : core::ScenarioConfig::facebook_like();
  if (flags.has("seed")) {
    cfg = core::ScenarioConfig::with_master_seed(
        flags.number<std::uint64_t>("seed", 0, 0));
  }
  const int k = flags.number("scale", 1);
  auto& net = cfg.internet;
  for (int* count : {&net.tier1_count, &net.transit_count, &net.eyeball_count,
                     &net.stub_count}) {
    if (*count > INT_MAX / k) {
      flags.fail("--scale " + std::to_string(k) + " is too large");
    }
    *count *= k;
  }
  return cfg;
}

core::ServingConfig serving_config(const tools::Flags& flags) {
  core::ServingConfig serving;
  serving.warm_origins = flags.number<std::size_t>("warm", serving.warm_origins, 0);
  return serving;
}

topo::AsIndex find_asn_or_die(const topo::AsGraph& graph, std::uint32_t asn) {
  const auto idx = graph.find_asn(Asn{asn});
  if (!idx) {
    std::fprintf(stderr, "no AS%u in this world\n", asn);
    std::exit(1);
  }
  return *idx;
}

/// The leading <ASN> positional as an AS of this world.
topo::AsIndex asn_arg(const topo::AsGraph& graph, const tools::Flags& flags) {
  return find_asn_or_die(graph, flags.positional<std::uint32_t>(0, "ASN", 0));
}

int cmd_topology(const core::Scenario& sc, const tools::Flags& /*flags*/) {
  const auto& g = sc.internet.graph;
  std::printf("world: %zu ASes, %zu edges, %zu links, %zu IXPs, %zu client /24s\n",
              g.as_count(), g.edge_count(), g.link_count(), sc.internet.ixps.size(),
              sc.clients.size());
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
               stats::fmt(degree / n, 1), stats::fmt(presence / n, 1)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_route(const core::Scenario& sc, const tools::Flags& flags) {
  const auto& g = sc.internet.graph;
  const auto table = bgp::compute_routes(g, asn_arg(g, flags));
  if (flags.has("from")) {
    const auto from = find_asn_or_die(g, flags.number<std::uint32_t>("from", 0));
    std::fputs((bgp::dump_route(g, table, from) + "\n").c_str(), stdout);
    return 0;
  }
  const auto limit = flags.number<std::size_t>("limit", 40, 0);
  std::fputs(bgp::dump_table(g, table, limit).c_str(), stdout);
  return 0;
}

int cmd_rib(const core::Scenario& sc, const tools::Flags& flags) {
  if (!flags.has("at")) flags.fail("missing --at <viewer ASN>");
  const auto& g = sc.internet.graph;
  const auto table = bgp::compute_routes(g, asn_arg(g, flags));
  const auto at = find_asn_or_die(g, flags.number<std::uint32_t>("at", 0));
  std::fputs(bgp::dump_rib_in(g, table, at).c_str(), stdout);
  return 0;
}

int cmd_catchment(const core::Scenario& sc, const tools::Flags& /*flags*/) {
  cdn::AnycastCdn cdn{&sc.internet, &sc.provider};
  const auto& db = sc.internet.city_db();
  std::map<cdn::PopId, std::pair<double, std::size_t>> per_pop;  // weight, prefixes
  double total = 0.0;
  for (traffic::PrefixId id = 0; id < sc.clients.size(); ++id) {
    const auto route = cdn.anycast_route(sc.clients.at(id));
    if (!route.valid()) continue;
    per_pop[route.pop].first += sc.clients.at(id).user_weight;
    per_pop[route.pop].second += 1;
    total += sc.clients.at(id).user_weight;
  }
  stats::Table t{{"PoP", "user share", "client /24s"}};
  for (const auto& [pop, stats_pair] : per_pop) {
    t.add_row({std::string(db.at(sc.provider.pop(pop).city).name),
               stats::fmt(100.0 * stats_pair.first / total, 1) + "%",
               std::to_string(stats_pair.second)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_pops(const core::Scenario& sc, const tools::Flags& /*flags*/) {
  const auto& g = sc.internet.graph;
  const auto& db = sc.internet.city_db();
  stats::Table t{{"PoP", "sessions", "PNI", "public", "transit"}};
  for (const auto& pop : sc.provider.pops()) {
    int pni = 0;
    int pub = 0;
    int transit = 0;
    for (const auto l : pop.links) {
      switch (g.link(l).kind) {
        case topo::LinkKind::PrivatePeering: ++pni; break;
        case topo::LinkKind::PublicPeering: ++pub; break;
        case topo::LinkKind::Transit: ++transit; break;
      }
    }
    t.add_row({std::string(db.at(pop.city).name), std::to_string(pop.links.size()),
               std::to_string(pni), std::to_string(pub), std::to_string(transit)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_lookup(const core::Scenario& sc, const tools::Flags& flags) {
  const auto addr = Ipv4Address::parse(flags.positionals()[0]);
  if (!addr) flags.fail("not an IPv4 address: '" + flags.positionals()[0] + "'");
  const auto map = sc.clients.prefix_map();
  const auto* hit = map.lookup(*addr);
  if (hit == nullptr) {
    std::printf("%s is not in any client prefix of this world\n",
                addr->str().c_str());
    return 0;
  }
  const auto& g = sc.internet.graph;
  const auto& db = sc.internet.city_db();
  const auto& client = sc.clients.at(*hit);
  std::printf("%s -> %s in %s (%s), origin %s (%s), user weight %.2f, "
              "last mile %.1f ms\n",
              addr->str().c_str(), client.prefix.str().c_str(),
              db.at(client.city).name.data(), db.at(client.city).country.data(),
              g.node(client.origin_as).name.c_str(),
              g.node(client.origin_as).asn.str().c_str(), client.user_weight,
              client.access.base_rtt_ms);
  const auto pop = sc.provider.serving_pop(g, db, client.origin_as, client.city);
  std::printf("served from the %s PoP\n",
              db.at(sc.provider.pop(pop).city).name.data());
  return 0;
}

int cmd_trace(const core::Scenario& sc, const tools::Flags& flags) {
  const auto& g = sc.internet.graph;
  const auto& db = sc.internet.city_db();
  const auto as = asn_arg(g, flags);
  const auto from = db.find(flags.positionals()[1]);
  const auto to = db.find(flags.positionals()[2]);
  if (!from || !to) {
    std::fputs("unknown city\n", stderr);
    return 1;
  }
  if (!g.has_presence(as, *from) || !g.has_presence(as, *to)) {
    std::printf("%s has no presence at one endpoint\n", g.node(as).name.c_str());
    return 1;
  }
  const topo::AsIndex path[] = {as};
  const auto geo = lat::build_geo_path(g, db, path, *from, *to);
  std::printf("%s %s -> %s: %.0f km geodesic, %.0f km inflated, %.2f ms RTT floor\n",
              g.node(as).name.c_str(), db.at(*from).name.data(),
              db.at(*to).name.data(), geo.geo_distance().value(),
              geo.inflated_distance().value(),
              rtt_floor(geo.geo_distance(), geo.segments[0].inflation).value());
  return 0;
}

int cmd_snapshot(const tools::Flags& flags) {
  const std::string out = flags.text("out");
  if (out.empty()) flags.fail("missing --out PATH");
  const auto world =
      core::ServingWorld::build(preset_config(flags), serving_config(flags));
  world->save(out);
  std::printf("wrote %s: %zu ASes, %zu warmed origins\n", out.c_str(),
              world->scenario().internet.graph.as_count(), world->warmed().size());
  return 0;
}

int cmd_serve(const tools::Flags& flags) {
  const auto cfg = preset_config(flags);
  const auto count = flags.number<std::size_t>("queries", 100, 0);
  const auto qseed = flags.number<std::uint64_t>("qseed", 2026, 0);
  std::unique_ptr<core::ServingWorld> world;
  if (flags.has("snapshot")) {
    // A snapshot that fails its load checks (missing, truncated, corrupted,
    // version-skewed, or built from another config) is a diagnostic, not an
    // abort: core/snapshot.h's documented ScopedCheckThrows path.
    const std::string path = flags.text("snapshot");
    try {
      const ScopedCheckThrows throws;
      world = core::ServingWorld::load(path, cfg);
    } catch (const CheckError& e) {
      std::fprintf(stderr, "bgpcmp serve: cannot load snapshot '%s': %s\n",
                   path.c_str(), e.what());
      return 1;
    }
  } else {
    world = core::ServingWorld::build(cfg, serving_config(flags));
  }
  const auto queries = world->generate_queries(count, qseed);
  const core::QueryServer server{world.get(), &exec::global_pool()};
  const auto answers = server.answer_batch(queries);
  if (!flags.has("digest")) {
    for (const auto& a : answers) std::printf("%s\n", a.c_str());
  }
  std::printf("served=%zu warmed=%zu digest=%016llx\n", answers.size(),
              world->warmed().size(),
              static_cast<unsigned long long>(core::answers_digest(answers)));
  return 0;
}

/// `bgpcmp shard`: the streaming Study-1 window split across worker
/// processes. Each worker owns a contiguous block of client chunks
/// (core::run_scale_shard) and writes it to a file; the parent merges them
/// back in chunk order against the stream's chunk count — a result
/// byte-identical to the single-process run, which --check verifies.
int cmd_shard(const tools::Flags& flags) {
  const auto world_cfg = preset_config(flags);
  const int shards = flags.number("shards", 2);
  const double threshold = flags.number("threshold", 2.0);
  core::ScaleStudyConfig scfg;
  scfg.study.days = flags.number("days", scfg.study.days);
  scfg.study.window_stride = flags.number("stride", scfg.study.window_stride);
  scfg.chunk_origins = flags.number("chunk-origins", scfg.chunk_origins);

  if (flags.has("worker")) {
    const int worker = flags.number("worker", 0, 0);
    const std::string out = flags.text("out");
    if (out.empty() || worker >= shards) {
      flags.fail("worker mode needs --out and a --worker index below --shards");
    }
    const auto world = core::ScaleWorld::make(world_cfg);
    return tools::write_worker_output(out, [&](std::ostream& file) {
      core::run_scale_shard(*world, scfg, shards, worker, file);
    });
  }

  const auto texts = tools::run_workers(flags.args(), shards, "study");
  if (!texts) return 1;
  const auto result = core::merge_scale_shards(*texts, core::study_windows(scfg.study));
  std::printf("chunks=%zu pairs=%zu windows=%zu improvable(>=%.1fms)=%.4f "
              "fingerprint=%016llx shards=%d\n",
              result.chunks.size(), result.pair_count(), result.windows.size(),
              threshold, result.improvable_traffic_fraction(threshold),
              static_cast<unsigned long long>(result.fingerprint()), shards);

  if (flags.has("check")) {
    const auto world = core::ScaleWorld::make(world_cfg);
    const auto local = core::run_scale_study(*world, scfg);
    if (local.fingerprint() != result.fingerprint()) {
      std::fprintf(stderr, "DIVERGED: sharded %016llx != in-process %016llx\n",
                   static_cast<unsigned long long>(result.fingerprint()),
                   static_cast<unsigned long long>(local.fingerprint()));
      return 1;
    }
    std::printf("check ok: sharded run equals in-process run\n");
  }
  return 0;
}

/// One subcommand: what it accepts besides the world flags (--preset,
/// --seed, --scale) and --threads, and how it runs. Explorer commands run
/// on the deterministic scenario the benches use; the others manage their
/// own world (a ServingWorld, possibly loaded from disk, or a ScaleWorld).
struct Command {
  std::string_view name;
  std::string_view usage;  ///< arguments after the command name
  std::vector<std::string_view> valued;
  std::vector<std::string_view> switches;
  std::size_t positionals = 0;
  int (*explore)(const core::Scenario&, const tools::Flags&) = nullptr;
  int (*run)(const tools::Flags&) = nullptr;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"topology", "", {}, {}, 0, &cmd_topology},
      {"route", "<ASN> [--from ASN] [--limit N]", {"from", "limit"}, {}, 1, &cmd_route},
      {"rib", "<ASN> --at ASN", {"at"}, {}, 1, &cmd_rib},
      {"catchment", "", {}, {}, 0, &cmd_catchment},
      {"pops", "", {}, {}, 0, &cmd_pops},
      {"trace", "<ASN> <from-city> <to-city>", {}, {}, 3, &cmd_trace},
      {"lookup", "<ipv4 address>", {}, {}, 1, &cmd_lookup},
      {"snapshot", "--out PATH [--warm K]", {"out", "warm"}, {}, 0, nullptr,
       &cmd_snapshot},
      {"serve", "[--snapshot PATH] [--warm K] [--queries N] [--qseed S] [--digest]",
       {"snapshot", "warm", "queries", "qseed"}, {"digest"}, 0, nullptr, &cmd_serve},
      // --worker/--out are the hidden worker flags tools::run_workers appends.
      {"shard",
       "[--shards N] [--days D] [--stride S] [--chunk-origins K] [--threshold MS] "
       "[--check]",
       {"shards", "days", "stride", "chunk-origins", "threshold", "worker", "out"},
       {"check"}, 0, nullptr, &cmd_shard},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  for (const Command& c : commands()) {
    if (c.name != name) continue;
    const std::string tool = "bgpcmp " + std::string(name);
    const std::string args = c.usage.empty() ? "" : " " + std::string(c.usage);
    tools::Syntax syntax{tool,
                         "usage: " + tool + args +
                             " [--preset fb|ms|goog] [--seed N] [--scale N]"
                             " [--threads N]\n",
                         c.valued, c.switches, c.positionals, c.positionals};
    syntax.valued.insert(syntax.valued.end(), {"preset", "seed", "scale"});
    const tools::Flags flags{std::move(syntax), argc, argv, 2};
    if (c.run != nullptr) return c.run(flags);
    return c.explore(*core::Scenario::make(preset_config(flags)), flags);
  }
  if (!name.empty()) std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
  std::fputs("usage: bgpcmp <topology|route|rib|catchment|pops|trace|lookup|"
             "snapshot|serve|shard> [--preset fb|ms|goog] [--seed N] ...\n",
             stderr);
  return 2;
}
