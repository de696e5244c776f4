#include "bgpcmp/bgp/rib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/cdn/provider.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::bgp {
namespace {

using topo::AsClass;

/// The edge walk candidate_routes_at used before it climbed the origin's
/// up-closure, kept as the reference it is pinned against: every edge of the
/// viewer, each far end put through the announce, reachability, split-horizon,
/// export and loop filters, sorted by (ASN, index).
std::vector<CandidateRoute> reference_candidates(const AsGraph& graph,
                                                 const RouteTable& table,
                                                 const OriginSpec& origin_spec,
                                                 AsIndex viewer) {
  std::vector<CandidateRoute> out;
  for (const topo::EdgeId e : graph.edges_of(viewer)) {
    CandidateRoute cand;
    cand.neighbor = graph.other_end(e, viewer);
    cand.edge = e;
    cand.neighbor_role = graph.role_of_other(e, viewer);
    if (cand.neighbor == table.origin()) {
      if (!origin_spec.announces_on(graph, e)) continue;
      cand.neighbor_class = RouteClass::Origin;
      cand.length = static_cast<std::uint16_t>(1 + origin_spec.prepend_on(e));
      cand.as_path = {cand.neighbor};
      out.push_back(std::move(cand));
      continue;
    }
    const BestRoute& nbest = table.at(cand.neighbor);
    if (!nbest.reachable() || nbest.next_hop == viewer) continue;
    const bool exports =
        graph.role_of_other(e, cand.neighbor) == topo::NeighborRole::Customer ||
        nbest.cls == RouteClass::Customer;
    if (!exports) continue;
    auto path = table.path(cand.neighbor);
    if (std::find(path.begin(), path.end(), viewer) != path.end()) continue;
    cand.neighbor_class = nbest.cls;
    cand.length = static_cast<std::uint16_t>(nbest.length + 1);
    cand.as_path = std::move(path);
    out.push_back(std::move(cand));
  }
  std::sort(out.begin(), out.end(),
            [&](const CandidateRoute& a, const CandidateRoute& b) {
              const Asn asn_a = graph.node(a.neighbor).asn;
              const Asn asn_b = graph.node(b.neighbor).asn;
              return asn_a != asn_b ? asn_a < asn_b : a.neighbor < b.neighbor;
            });
  return out;
}

/// Field-by-field equality with the first difference named.
::testing::AssertionResult same_candidates(const std::vector<CandidateRoute>& got,
                                           const std::vector<CandidateRoute>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " candidates, reference has " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const CandidateRoute& g = got[i];
    const CandidateRoute& w = want[i];
    if (g.neighbor != w.neighbor || g.edge != w.edge ||
        g.neighbor_role != w.neighbor_role || g.neighbor_class != w.neighbor_class ||
        g.length != w.length || g.as_path != w.as_path) {
      return ::testing::AssertionFailure()
             << "candidate " << i << ": neighbor " << g.neighbor << " vs " << w.neighbor
             << ", edge " << g.edge << " vs " << w.edge;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Compares every viewer in `viewers` with the reference for one table,
/// stopping at the first mismatch, and adds the reference's candidate count
/// to `compared` (so a pin can show it compared something).
::testing::AssertionResult matches_reference(const AsGraph& graph,
                                             const RouteTable& table,
                                             const OriginSpec& spec,
                                             std::span<const AsIndex> viewers,
                                             std::size_t& compared) {
  for (const AsIndex v : viewers) {
    const auto want = reference_candidates(graph, table, spec, v);
    auto same = same_candidates(candidate_routes_at(graph, table, spec, v), want);
    if (!same) return same << " (origin " << table.origin() << ", viewer " << v << ")";
    compared += want.size();
  }
  return ::testing::AssertionSuccess();
}

std::vector<AsIndex> all_ases(const AsGraph& graph) {
  std::vector<AsIndex> out(graph.as_count());
  for (AsIndex i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

/// A generated world at `scale` times the default counts, with the content
/// provider attached.
struct ProviderWorld {
  topo::Internet net;
  AsIndex provider = kNoAs;
};

ProviderWorld provider_world(int scale) {
  topo::InternetConfig cfg;
  cfg.tier1_count *= scale;
  cfg.transit_count *= scale;
  cfg.eyeball_count *= scale;
  cfg.stub_count *= scale;
  ProviderWorld w{topo::build_internet(cfg)};
  w.provider = cdn::ContentProvider::attach(w.net, cdn::ProviderConfig{}).as_index();
  return w;
}

/// Pins `viewers` against the reference for every origin of the graph, whose
/// tables come from the batch kernel 64 origins at a time.
::testing::AssertionResult all_origins_match(const AsGraph& graph,
                                             std::span<const AsIndex> viewers,
                                             std::size_t& compared) {
  const std::vector<AsIndex> origins = all_ases(graph);
  for (std::size_t first = 0; first < origins.size(); first += kMaxBatchOrigins) {
    const std::size_t n = std::min(kMaxBatchOrigins, origins.size() - first);
    for (const RouteTable& table :
         compute_routes_batch(graph, std::span(origins).subspan(first, n))) {
      auto same = matches_reference(
          graph, table, OriginSpec::everywhere(table.origin()), viewers, compared);
      if (!same) return same;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Content provider CP multihomed to T1a+T1b (transit), peering with TRa and
/// directly with eyeball EBa. Origin under test: EBa's prefix.
///
///    T1a ==== T1b
///    /   \   /
///  TRa    CP
///   |    /  \.
///  EBa--+    (CP peers TRa, PNI with EBa)
class RibTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t1a_ = g_.add_as(Asn{10}, AsClass::Tier1, "T1a", {0, 1});
    t1b_ = g_.add_as(Asn{11}, AsClass::Tier1, "T1b", {0, 1});
    tra_ = g_.add_as(Asn{20}, AsClass::Transit, "TRa", {0, 1});
    eba_ = g_.add_as(Asn{30}, AsClass::Eyeball, "EBa", {0});
    cp_ = g_.add_as(Asn{60001}, AsClass::Content, "CP", {0, 1});

    auto link = [&](topo::EdgeId e, topo::CityId c, topo::LinkKind k) {
      g_.add_link(e, c, k, GigabitsPerSecond{100});
    };
    link(g_.connect_peering(t1a_, t1b_), 0, topo::LinkKind::PrivatePeering);
    link(g_.connect_transit(t1a_, tra_), 0, topo::LinkKind::Transit);
    link(g_.connect_transit(t1a_, cp_), 0, topo::LinkKind::Transit);
    link(g_.connect_transit(t1b_, cp_), 1, topo::LinkKind::Transit);
    link(g_.connect_transit(tra_, eba_), 0, topo::LinkKind::Transit);
    link(g_.connect_peering(tra_, cp_), 0, topo::LinkKind::PublicPeering);
    link(g_.connect_peering(eba_, cp_), 0, topo::LinkKind::PrivatePeering);
  }

  topo::AsGraph g_;
  topo::AsIndex t1a_, t1b_, tra_, eba_, cp_;
};

TEST_F(RibTest, AllExportingNeighborsAppear) {
  const auto table = compute_routes(g_, eba_);
  const auto candidates = candidate_routes_at(g_, table, cp_);
  // CP hears EBa's prefix from: EBa (direct peer), TRa (customer route,
  // exported to peers), T1a (transit provider), T1b (transit provider).
  ASSERT_EQ(candidates.size(), 4u);
}

TEST_F(RibTest, DirectRouteHasOriginClass) {
  const auto table = compute_routes(g_, eba_);
  const auto candidates = candidate_routes_at(g_, table, cp_);
  bool found = false;
  for (const auto& c : candidates) {
    if (c.neighbor == eba_) {
      found = true;
      EXPECT_EQ(c.neighbor_class, RouteClass::Origin);
      EXPECT_EQ(c.length, 1);
      EXPECT_EQ(c.as_path, std::vector<topo::AsIndex>{eba_});
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RibTest, PathsEndAtOrigin) {
  const auto table = compute_routes(g_, eba_);
  for (const auto& c : candidate_routes_at(g_, table, cp_)) {
    ASSERT_FALSE(c.as_path.empty());
    EXPECT_EQ(c.as_path.front(), c.neighbor);
    EXPECT_EQ(c.as_path.back(), eba_);
    EXPECT_EQ(c.length, c.as_path.size());
  }
}

TEST_F(RibTest, LengthsMatchNeighborTable) {
  const auto table = compute_routes(g_, eba_);
  for (const auto& c : candidate_routes_at(g_, table, cp_)) {
    if (c.neighbor == eba_) continue;
    EXPECT_EQ(c.length, table.at(c.neighbor).length + 1);
  }
}

TEST_F(RibTest, PeersWithholdNonCustomerRoutes) {
  // Origin = CP itself. TRa's route to CP is a *peer* route, so TRa would
  // never export it to another peer/provider; but the viewer here is EBa,
  // whose only CP route should be the direct PNI plus its provider TRa...
  // which must NOT offer its peer route.
  const auto table = compute_routes(g_, cp_);
  const auto at_eba = candidate_routes_at(g_, table, eba_);
  // EBa hears: CP directly (peer session), and TRa (TRa is EBa's *provider*,
  // so TRa exports everything it uses, including its peer route).
  ASSERT_EQ(at_eba.size(), 2u);
  // Flip side: at T1a, TRa must not offer its peer route to CP (T1a is TRa's
  // provider; peer-learned routes are not exported upward).
  const auto at_t1a = candidate_routes_at(g_, table, t1a_);
  for (const auto& c : at_t1a) {
    EXPECT_NE(c.neighbor, tra_);
  }
}

TEST_F(RibTest, SplitHorizonExcludesRoutesThroughViewer) {
  // Origin = EBa. T1b's best route to EBa runs through T1a (peer), not
  // through CP; but if we ask for candidates at T1a, T1b's route must not be
  // offered if it runs via T1a itself.
  const auto table = compute_routes(g_, eba_);
  for (const auto& c : candidate_routes_at(g_, table, t1a_)) {
    for (const auto as : c.as_path) {
      EXPECT_NE(as, t1a_);
    }
  }
}

TEST_F(RibTest, CandidatesSortedByNeighborAsn) {
  const auto table = compute_routes(g_, eba_);
  const auto candidates = candidate_routes_at(g_, table, cp_);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LT(g_.node(candidates[i - 1].neighbor).asn,
              g_.node(candidates[i].neighbor).asn);
  }
}

TEST_F(RibTest, ScopedOriginFiltersDirectCandidate) {
  // Announce EBa's prefix only on the TRa session: CP must not list the
  // direct EBa candidate anymore.
  const auto eba_tra = g_.find_edge(tra_, eba_);
  ASSERT_TRUE(eba_tra);
  const auto spec = OriginSpec::scoped(eba_, g_.edge(*eba_tra).links);
  const auto table = compute_routes(g_, spec);
  const auto candidates = candidate_routes_at(g_, table, spec, cp_);
  for (const auto& c : candidates) {
    EXPECT_NE(c.neighbor, eba_);
  }
  EXPECT_FALSE(candidates.empty());
}

TEST_F(RibTest, ScopedSpecsMatchReference) {
  // Every origin, every viewer, under an announce subset (one edge's links),
  // a prepend and a suppressed session on each of the origin's edges.
  std::size_t compared = 0;
  const std::vector<AsIndex> viewers = all_ases(g_);
  for (const AsIndex o : viewers) {
    std::vector<OriginSpec> specs{OriginSpec::everywhere(o)};
    for (const topo::EdgeId e : g_.edges_of(o)) {
      specs.push_back(OriginSpec::scoped(o, g_.edge(e).links));
      OriginSpec prepended = OriginSpec::everywhere(o);
      prepended.prepend[e] = 2;
      specs.push_back(prepended);
      OriginSpec suppressed = OriginSpec::everywhere(o);
      suppressed.suppress.insert(e);
      specs.push_back(suppressed);
    }
    for (const OriginSpec& spec : specs) {
      ASSERT_TRUE(
          matches_reference(g_, compute_routes(g_, spec), spec, viewers, compared));
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(RibGolden, ScopedSpecsMatchReferenceOnGeneratedWorld) {
  // Grooming on a generated world: per origin, prepend 3 on its first
  // session, suppress its second, and scope it to its last session's links.
  const ProviderWorld w = provider_world(1);
  const AsGraph& graph = w.net.graph;
  const std::vector<AsIndex> viewers = all_ases(graph);
  std::size_t compared = 0;
  for (AsIndex o = 0; o < graph.as_count(); o += 11) {
    const auto edges = graph.edges_of(o);
    ASSERT_FALSE(edges.empty());
    OriginSpec groomed = OriginSpec::everywhere(o);
    groomed.prepend[edges.front()] = 3;
    if (edges.size() > 1) groomed.suppress.insert(edges[1]);
    const OriginSpec scoped = OriginSpec::scoped(o, graph.edge(edges.back()).links);
    for (const OriginSpec& spec : {groomed, scoped}) {
      ASSERT_TRUE(matches_reference(graph, compute_routes(graph, spec), spec, viewers,
                                    compared));
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(RibGolden, EveryPairOfThe1xWorld) {
  const ProviderWorld w = provider_world(1);
  const std::vector<AsIndex> viewers = all_ases(w.net.graph);
  std::size_t compared = 0;
  ASSERT_TRUE(all_origins_match(w.net.graph, viewers, compared));
  EXPECT_GT(compared, 0u);
}

TEST(RibGolden, ProviderViewOfEveryOriginOnA10xWorld) {
  const ProviderWorld w = provider_world(10);
  const AsIndex viewer[] = {w.provider};
  std::size_t compared = 0;
  ASSERT_TRUE(all_origins_match(w.net.graph, viewer, compared));
  EXPECT_GT(compared, 0u);
}

TEST(RibGolden, DuplicateAsnsSortByIndex) {
  // adopt() takes duplicate ASNs. O is a customer of A and B, which share
  // ASN 100; B's edges to O and to V come before A's, and V buys transit
  // from T (ASN 50). V must list T, then A, then B: ASN first, AS index
  // second, whatever the edge order.
  topo::AsGraph built;
  const AsIndex o = built.add_as(Asn{300}, AsClass::Stub, "O", {0});
  const AsIndex a = built.add_as(Asn{100}, AsClass::Transit, "A", {0});
  const AsIndex b = built.add_as(Asn{101}, AsClass::Transit, "B", {0});
  const AsIndex t = built.add_as(Asn{50}, AsClass::Tier1, "T", {0});
  const AsIndex v = built.add_as(Asn{200}, AsClass::Content, "V", {0});
  auto link = [&](topo::EdgeId e, topo::LinkKind k) {
    built.add_link(e, 0, k, GigabitsPerSecond{100});
  };
  link(built.connect_transit(b, o), topo::LinkKind::Transit);
  link(built.connect_transit(a, o), topo::LinkKind::Transit);
  link(built.connect_transit(t, a), topo::LinkKind::Transit);
  link(built.connect_peering(v, b), topo::LinkKind::PrivatePeering);
  link(built.connect_peering(v, a), topo::LinkKind::PrivatePeering);
  link(built.connect_transit(t, v), topo::LinkKind::Transit);

  std::vector<topo::AsNode> nodes(built.nodes().begin(), built.nodes().end());
  nodes[b].asn = Asn{100};
  topo::AsGraph g;
  g.adopt(std::move(nodes), {built.edges().begin(), built.edges().end()},
          {built.links().begin(), built.links().end()});

  const RouteTable table = compute_routes(g, o);
  const auto candidates = candidate_routes_at(g, table, v);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].neighbor, t);
  EXPECT_EQ(candidates[1].neighbor, a);
  EXPECT_EQ(candidates[2].neighbor, b);
  EXPECT_TRUE(same_candidates(
      candidates, reference_candidates(g, table, OriginSpec::everywhere(o), v)));
}

TEST_F(RibTest, RouteDiversityOnGeneratedInternet) {
  // The paper: "the PoP serving the client has at least three routes" for
  // most clients. Verify the content provider in a generated world hears
  // multiple routes for most eyeball prefixes.
  topo::InternetConfig cfg;
  cfg.seed = 77;
  cfg.tier1_count = 6;
  cfg.transit_count = 18;
  cfg.eyeball_count = 40;
  cfg.stub_count = 10;
  auto net = topo::build_internet(cfg);
  // Use a generated transit as a stand-in multi-homed viewer.
  const topo::AsIndex viewer = net.transits.front();
  int multi = 0;
  int total = 0;
  for (const auto eb : net.eyeballs) {
    const auto table = compute_routes(net.graph, eb);
    const auto candidates = candidate_routes_at(net.graph, table, viewer);
    ++total;
    if (candidates.size() >= 2) ++multi;
  }
  EXPECT_GT(multi, total / 2);
}

}  // namespace
}  // namespace bgpcmp::bgp
