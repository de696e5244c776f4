#include "bgpcmp/core/snapshot.h"

#include <utility>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/fnv.h"
#include "bgpcmp/topology/world_snapshot.h"

namespace bgpcmp::core {
namespace {

constexpr std::uint32_t kServingSections =
    topo::kSectionWorld | topo::kSectionProvider | topo::kSectionClients |
    topo::kSectionTables;

}  // namespace

std::uint64_t scenario_config_fingerprint(const ScenarioConfig& config) {
  // FNV-1a over typed fields; this declaration-order walk is the
  // fingerprint's definition.
  Fnv1a fp;
  // internet: the existing non-seed knob fingerprint (with its own field-count
  // tripwire test) plus the seed.
  fp.u64(topo::internet_config_fingerprint(config.internet));
  fp.u64(config.internet.seed);
  // provider, declaration order.
  const auto& p = config.provider;
  fp.u64(p.seed);
  fp.str(p.name);
  fp.u64(p.asn);
  fp.u64(p.pop_count);
  fp.u64(p.extra_pop_cities.size());
  for (const auto city : p.extra_pop_cities) fp.str(city);
  fp.f64(p.pni_eyeball_fraction);
  fp.f64(p.ixp_peer_prob);
  fp.f64(p.transit_peer_scale);
  fp.f64(p.public_session_density);
  fp.u64(p.pni_max_links);
  fp.u64(static_cast<std::uint64_t>(p.transit_provider_count));
  fp.u64(p.transit_session_pops);
  fp.f64(p.pni_capacity_gbps);
  fp.f64(p.public_capacity_gbps);
  fp.f64(p.transit_capacity_gbps);
  fp.f64(p.backbone_inflation);
  // clients.
  const auto& c = config.clients;
  fp.u64(c.seed);
  fp.u64(static_cast<std::uint64_t>(c.prefixes_per_eyeball_city));
  fp.boolean(c.include_stubs);
  fp.f64(c.access_base_rtt_min_ms);
  fp.f64(c.access_base_rtt_max_ms);
  // demand.
  const auto& d = config.demand;
  fp.u64(d.seed);
  fp.f64(d.zipf_exponent);
  fp.f64(d.mean_bytes_per_window);
  fp.f64(d.diurnal_amplitude);
  // congestion.
  const auto& g = config.congestion;
  fp.f64(g.horizon_days);
  fp.f64(g.base_util_min);
  fp.f64(g.base_util_max);
  fp.f64(g.diurnal_amplitude);
  fp.f64(g.event_rate_per_day);
  fp.f64(g.event_duration_mean_hours);
  fp.f64(g.event_extra_util_mean);
  fp.f64(g.queue_scale_ms);
  fp.f64(g.queue_cap_ms);
  fp.f64(g.access_event_rate_per_day);
  fp.f64(g.access_event_duration_mean_hours);
  fp.f64(g.access_event_delay_mean_ms);
  fp.f64(g.access_diurnal_peak_ms);
  // latency.
  fp.f64(config.latency.per_hop_processing_ms);
  return fp.value();
}

void save_serving_snapshot(const std::string& path, const Scenario& scenario,
                           std::span<const topo::AsIndex> warmed,
                           const bgp::RouteCache& tables) {
  topo::SnapshotWriter w;
  topo::serialize_internet(scenario.internet, w);

  // Provider section.
  w.u32(scenario.provider.as_index());
  const auto pops = scenario.provider.pops();
  w.u32(static_cast<std::uint32_t>(pops.size()));
  for (const cdn::Pop& pop : pops) {
    w.u32(pop.id);
    w.u16(pop.city);
    w.u32(static_cast<std::uint32_t>(pop.links.size()));
    for (const topo::LinkId l : pop.links) w.u32(l);
  }

  // Clients section.
  w.u32(static_cast<std::uint32_t>(scenario.clients.size()));
  for (const traffic::ClientPrefix& client : scenario.clients.prefixes()) {
    w.u32(client.prefix.network().bits());
    w.u8(client.prefix.length());
    w.u32(client.origin_as);
    w.u16(client.city);
    w.f64(client.user_weight);
    w.f64(client.access.base_rtt_ms);
  }

  // Tables section: every warmed origin's full per-AS route rows.
  w.u32(static_cast<std::uint32_t>(warmed.size()));
  for (const topo::AsIndex origin : warmed) {
    const bgp::RouteTable* table = tables.find(origin);
    BGPCMP_CHECK(table != nullptr, "saving a serving snapshot with an unwarmed origin");
    w.u32(origin);
    w.u32(static_cast<std::uint32_t>(table->size()));
    for (topo::AsIndex as = 0; as < table->size(); ++as) {
      const bgp::BestRoute& route = table->at(as);
      w.u8(static_cast<std::uint8_t>(route.cls));
      w.u16(route.length);
      w.u32(route.next_hop);
      w.u32(route.via_edge);
    }
  }

  topo::SnapshotHeader header;
  header.sections = kServingSections;
  header.config_fp = scenario_config_fingerprint(scenario.config);
  header.world_fp = topo::internet_fingerprint(scenario.internet);
  topo::write_snapshot_file(path, header, w.bytes());
}

ServingState load_serving_snapshot(const std::string& path,
                                   const ScenarioConfig& config,
                                   topo::SnapshotVerify verify) {
  const topo::SnapshotFile f = topo::read_snapshot_file(path);
  BGPCMP_CHECK_EQ(f.header().sections, kServingSections,
                  "expected a full serving snapshot");
  BGPCMP_CHECK_EQ(f.header().config_fp, scenario_config_fingerprint(config),
                  "serving snapshot was built from a different ScenarioConfig");
  topo::SnapshotReader r(f.payload());

  topo::Internet world = topo::deserialize_internet(r);
  if (verify == topo::SnapshotVerify::kFull) {
    BGPCMP_CHECK_EQ(topo::internet_fingerprint(world), f.header().world_fp,
                    "materialized world does not match the stored fingerprint");
  }

  // Provider: the AS and its links are already in the replayed world; restore
  // only the provider-side bookkeeping and sanity-bind it to the config.
  const topo::AsIndex provider_as = r.u32();
  BGPCMP_CHECK_LT(provider_as, world.graph.as_count(),
                  "snapshot provider AS outside the world");
  BGPCMP_CHECK_EQ(world.graph.node(provider_as).asn.value(), config.provider.asn,
                  "snapshot provider AS does not carry the configured ASN");
  const std::uint32_t pop_count = r.u32();
  std::vector<cdn::Pop> pops;
  pops.reserve(pop_count);
  for (std::uint32_t i = 0; i < pop_count; ++i) {
    cdn::Pop pop;
    pop.id = r.u32();
    pop.city = r.u16();
    const std::uint32_t links = r.u32();
    pop.links.reserve(links);
    for (std::uint32_t l = 0; l < links; ++l) {
      const topo::LinkId link = r.u32();
      BGPCMP_CHECK_LT(link, world.graph.link_count(), "snapshot PoP link out of range");
      pop.links.push_back(link);
    }
    pops.push_back(std::move(pop));
  }
  cdn::ContentProvider provider =
      cdn::ContentProvider::restore(provider_as, std::move(pops), config.provider);

  // Clients.
  const std::uint32_t prefix_count = r.u32();
  std::vector<traffic::ClientPrefix> prefixes;
  prefixes.reserve(prefix_count);
  for (std::uint32_t i = 0; i < prefix_count; ++i) {
    traffic::ClientPrefix client;
    const std::uint32_t bits = r.u32();
    const std::uint8_t length = r.u8();
    BGPCMP_CHECK_LE(length, 32, "snapshot prefix length out of range");
    client.prefix = Prefix::make(Ipv4Address{bits}, length);
    client.origin_as = r.u32();
    BGPCMP_CHECK_LT(client.origin_as, world.graph.as_count(),
                    "snapshot client origin out of range");
    client.city = r.u16();
    client.user_weight = r.f64();
    client.access.base_rtt_ms = r.f64();
    prefixes.push_back(client);
  }
  traffic::ClientBase clients = traffic::ClientBase::restore(std::move(prefixes));

  ServingState state;
  state.scenario = Scenario::restore(config, std::move(world), std::move(provider),
                                     std::move(clients));
  // Tables decode against the scenario's (now final) graph address.
  const topo::AsGraph* graph = &state.scenario->internet.graph;
  const std::uint32_t table_count = r.u32();
  state.warmed.reserve(table_count);
  state.tables.reserve(table_count);
  for (std::uint32_t i = 0; i < table_count; ++i) {
    const topo::AsIndex origin = r.u32();
    BGPCMP_CHECK_LT(origin, graph->as_count(), "snapshot table origin out of range");
    const std::uint32_t rows = r.u32();
    BGPCMP_CHECK_EQ(rows, graph->as_count(),
                    "snapshot route table does not cover every AS");
    std::vector<bgp::BestRoute> routes;
    routes.reserve(rows);
    for (std::uint32_t as = 0; as < rows; ++as) {
      bgp::BestRoute route;
      const std::uint8_t cls = r.u8();
      BGPCMP_CHECK_LE(cls, static_cast<std::uint8_t>(bgp::RouteClass::Provider),
                      "snapshot route class out of range");
      route.cls = static_cast<bgp::RouteClass>(cls);
      route.length = r.u16();
      route.next_hop = r.u32();
      route.via_edge = r.u32();
      // RouteTable::path() indexes by next_hop unchecked, so a hostile file
      // must fail here, not crash there. Only unreachable and origin rows
      // have no next hop and no edge.
      const bool terminal =
          route.cls == bgp::RouteClass::None || route.cls == bgp::RouteClass::Origin;
      if (!terminal || route.next_hop != topo::kNoAs) {
        BGPCMP_CHECK_LT(route.next_hop, graph->as_count(),
                        "snapshot route next hop out of range");
      }
      if (!terminal || route.via_edge != topo::kNoEdge) {
        BGPCMP_CHECK_LT(route.via_edge, graph->edge_count(),
                        "snapshot route edge out of range");
      }
      routes.push_back(route);
    }
    state.warmed.push_back(origin);
    state.tables.emplace_back(graph, origin, std::move(routes));
  }
  BGPCMP_CHECK(r.done(), "trailing bytes after the tables section");
  return state;
}

}  // namespace bgpcmp::core
