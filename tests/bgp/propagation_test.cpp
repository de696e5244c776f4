#include "bgpcmp/bgp/propagation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bgpcmp/bgp/validate.h"
#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::bgp {
namespace {

using topo::AsClass;
using topo::AsGraph;
using topo::LinkKind;

/// Field-by-field equality of two tables: class, length, next hop, and the
/// edge the route was learned on must all match — the "byte-identical"
/// golden the worklist algorithm is pinned to.
void expect_identical(const RouteTable& got, const RouteTable& want,
                      const AsGraph& g) {
  ASSERT_EQ(got.size(), want.size());
  for (topo::AsIndex i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.at(i).cls, want.at(i).cls) << g.node(i).name;
    EXPECT_EQ(got.at(i).length, want.at(i).length) << g.node(i).name;
    EXPECT_EQ(got.at(i).next_hop, want.at(i).next_hop) << g.node(i).name;
    EXPECT_EQ(got.at(i).via_edge, want.at(i).via_edge) << g.node(i).name;
  }
}

/// compute_routes_batch over `origins` in batches of `width`, each table
/// pinned to compute_routes_reference.
void expect_batches_match_reference(const AsGraph& g,
                                    const std::vector<topo::AsIndex>& origins,
                                    std::size_t width = kMaxBatchOrigins) {
  for (std::size_t first = 0; first < origins.size(); first += width) {
    const std::span<const topo::AsIndex> batch =
        std::span{origins}.subspan(first, std::min(width, origins.size() - first));
    const std::vector<RouteTable> tables = compute_routes_batch(g, batch);
    ASSERT_EQ(tables.size(), batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      EXPECT_EQ(tables[k].origin(), batch[k]);
      expect_identical(tables[k],
                       compute_routes_reference(g, OriginSpec::everywhere(batch[k])), g);
    }
  }
}

std::vector<topo::AsIndex> all_origins(const AsGraph& g) {
  std::vector<topo::AsIndex> out(g.as_count());
  for (topo::AsIndex i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

/// A copy of `g` with the edges in `drop` physically removed: AS indices
/// stay, later edge ids shift down. The batch kernel announces everywhere,
/// so this is how it sees a suppressed session.
AsGraph without_edges(const AsGraph& g, std::initializer_list<topo::EdgeId> drop) {
  AsGraph out;
  for (const topo::AsNode& node : g.nodes()) {
    out.add_as(node.asn, node.cls, node.name, node.presence, node.hub,
               node.backbone_inflation);
  }
  for (topo::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (std::find(drop.begin(), drop.end(), e) != drop.end()) continue;
    const topo::AsEdge& edge = g.edge(e);
    const topo::EdgeId copy = edge.rel == topo::Relationship::ProviderCustomer
                                  ? out.connect_transit(edge.a, edge.b)
                                  : out.connect_peering(edge.a, edge.b);
    for (const topo::LinkId l : edge.links) {
      const topo::InterconnectLink& link = g.link(l);
      out.add_link(copy, link.city, link.kind, link.capacity);
    }
  }
  return out;
}

/// Hand-built textbook topology:
///
///        T1a ===== T1b          (Tier-1 peer mesh)
///        /  |        |
///      TRa  TRb     TRc         (transits: customers of Tier-1s)
///      /      |     /  |
///    EBa     EBb  EBb  EBc      (eyeballs; TRb and TRc both serve EBb)
///
/// TRa -- TRb peer; EBa -- EBb peer.
class PropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t1a_ = g_.add_as(Asn{10}, AsClass::Tier1, "T1a", {0, 1, 2});
    t1b_ = g_.add_as(Asn{11}, AsClass::Tier1, "T1b", {0, 1, 2});
    tra_ = g_.add_as(Asn{20}, AsClass::Transit, "TRa", {0, 1});
    trb_ = g_.add_as(Asn{21}, AsClass::Transit, "TRb", {1, 2});
    trc_ = g_.add_as(Asn{22}, AsClass::Transit, "TRc", {0, 2});
    eba_ = g_.add_as(Asn{30}, AsClass::Eyeball, "EBa", {0, 1});
    ebb_ = g_.add_as(Asn{31}, AsClass::Eyeball, "EBb", {0, 1, 2});
    ebc_ = g_.add_as(Asn{32}, AsClass::Eyeball, "EBc", {2});

    auto transit = [&](topo::AsIndex p, topo::AsIndex c, topo::CityId city) {
      const auto e = g_.connect_transit(p, c);
      g_.add_link(e, city, LinkKind::Transit, GigabitsPerSecond{100});
      return e;
    };
    auto peer = [&](topo::AsIndex a, topo::AsIndex b, topo::CityId city) {
      const auto e = g_.connect_peering(a, b);
      g_.add_link(e, city, LinkKind::PublicPeering, GigabitsPerSecond{100});
      return e;
    };
    peer(t1a_, t1b_, 0);
    transit(t1a_, tra_, 0);
    transit(t1a_, trb_, 1);
    transit(t1b_, trc_, 2);
    e_tra_eba_ = transit(tra_, eba_, 0);
    transit(trb_, ebb_, 1);
    transit(trc_, ebb_, 2);
    transit(trc_, ebc_, 2);
    peer(tra_, trb_, 1);
    e_eba_ebb_ = peer(eba_, ebb_, 0);  // direct eyeball peering
  }

  AsGraph g_;
  topo::AsIndex t1a_, t1b_, tra_, trb_, trc_, eba_, ebb_, ebc_;
  topo::EdgeId e_tra_eba_ = topo::kNoEdge;
  topo::EdgeId e_eba_ebb_ = topo::kNoEdge;
};

TEST_F(PropagationTest, OriginSelectsItself) {
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(eba_).cls, RouteClass::Origin);
  EXPECT_EQ(table.at(eba_).length, 0);
}

TEST_F(PropagationTest, EveryoneReachesTheOrigin) {
  const auto table = compute_routes(g_, eba_);
  for (topo::AsIndex i = 0; i < g_.as_count(); ++i) {
    EXPECT_TRUE(table.reachable(i)) << g_.node(i).name;
  }
}

TEST_F(PropagationTest, ProviderLearnsCustomerRoute) {
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(tra_).cls, RouteClass::Customer);
  EXPECT_EQ(table.at(tra_).length, 1);
  EXPECT_EQ(table.at(tra_).next_hop, eba_);
  EXPECT_EQ(table.at(t1a_).cls, RouteClass::Customer);
  EXPECT_EQ(table.at(t1a_).length, 2);
}

TEST_F(PropagationTest, PeerRoutePreferredOverProviderRoute) {
  // EBb can reach EBa via its direct peering (peer, len 1) or via its
  // providers (provider, len >= 2). LocalPref must pick the peer route.
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(ebb_).cls, RouteClass::Peer);
  EXPECT_EQ(table.at(ebb_).next_hop, eba_);
}

TEST_F(PropagationTest, CustomerRoutePreferredEvenIfLonger) {
  // T1b has a peer route via T1a (len 3: T1a->TRa->EBa) and a customer route
  // via TRc? TRc has no route to EBa below it... so T1b uses the peer route.
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(t1b_).cls, RouteClass::Peer);
  EXPECT_EQ(table.at(t1b_).next_hop, t1a_);
}

TEST_F(PropagationTest, ProviderRouteDescends) {
  // EBc's only route is via its provider TRc -> T1b -> T1a -> TRa -> EBa.
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(ebc_).cls, RouteClass::Provider);
  const auto path = table.path(ebc_);
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(path.front(), ebc_);
  EXPECT_EQ(path.back(), eba_);
  EXPECT_TRUE(is_valley_free(g_, path));
}

TEST_F(PropagationTest, NoPeerRouteChaining) {
  // TRb peers with TRa (which has a customer route to EBa). TRb may use that
  // peer route, but TRb's peer route must NOT propagate onward to another
  // peer — T1b must not learn EBa via TRb.
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(trb_).cls, RouteClass::Peer);
  EXPECT_NE(table.at(t1b_).next_hop, trb_);
}

TEST_F(PropagationTest, AllPathsValleyFree) {
  for (const topo::AsIndex origin : {eba_, ebb_, ebc_, tra_, t1a_}) {
    const auto table = compute_routes(g_, origin);
    for (topo::AsIndex i = 0; i < g_.as_count(); ++i) {
      if (!table.reachable(i)) continue;
      EXPECT_TRUE(is_valley_free(g_, table.path(i)))
          << "origin " << g_.node(origin).name << " at " << g_.node(i).name;
    }
  }
}

TEST_F(PropagationTest, TableConsistencyInvariant) {
  for (const topo::AsIndex origin : {eba_, ebb_, ebc_, trc_}) {
    EXPECT_TRUE(table_is_consistent(g_, compute_routes(g_, origin)));
  }
}

TEST_F(PropagationTest, SuppressedEdgeIsNotUsed) {
  OriginSpec spec = OriginSpec::everywhere(eba_);
  spec.suppress.insert(e_eba_ebb_);  // withdraw from the EBb peering
  const auto table = compute_routes(g_, spec);
  // EBb must now route via providers instead of the direct peering.
  EXPECT_NE(table.at(ebb_).next_hop, eba_);
  EXPECT_TRUE(table.reachable(ebb_));
}

TEST_F(PropagationTest, PrependingDeflectsTies) {
  // Prepending on the announcement to TRa lengthens every path through TRa.
  OriginSpec plain = OriginSpec::everywhere(eba_);
  OriginSpec groomed = OriginSpec::everywhere(eba_);
  groomed.prepend[e_tra_eba_] = 4;
  const auto before = compute_routes(g_, plain);
  const auto after = compute_routes(g_, groomed);
  EXPECT_EQ(before.at(tra_).length, 1);
  EXPECT_EQ(after.at(tra_).length, 5);
  // T1a's customer route through TRa lengthens accordingly.
  EXPECT_EQ(after.at(t1a_).length, before.at(t1a_).length + 4);
}

TEST_F(PropagationTest, ScopedAnnouncementRestrictsOrigin) {
  // Announce only on the TRa session: EBb's direct peering no longer hears it.
  const auto links = g_.edge(e_tra_eba_).links;
  const auto spec = OriginSpec::scoped(eba_, links);
  const auto table = compute_routes(g_, spec);
  EXPECT_EQ(table.at(ebb_).cls, RouteClass::Provider);  // via its providers
  EXPECT_NE(table.at(ebb_).next_hop, eba_);
  EXPECT_TRUE(table.reachable(ebc_));
}

TEST_F(PropagationTest, TiebreakPrefersLowerAsn) {
  // EBb hears EBa's prefix from its two providers TRb (ASN 21) and TRc (ASN
  // 22) when the peering is suppressed... TRb route: len 3 via T1a? Actually
  // compare two provider routes of equal length; the lower-ASN neighbor wins.
  OriginSpec spec = OriginSpec::everywhere(eba_);
  spec.suppress.insert(e_eba_ebb_);
  const auto table = compute_routes(g_, spec);
  const auto& route = table.at(ebb_);
  ASSERT_EQ(route.cls, RouteClass::Provider);
  // TRb reaches via peer TRa (len 2); TRc via T1b,T1a,TRa (len 4).
  EXPECT_EQ(route.next_hop, trb_);
}

TEST_F(PropagationTest, UnreachableWhenFullyCut) {
  OriginSpec spec = OriginSpec::everywhere(ebc_);
  // EBc's only session is with TRc; suppressing it isolates the prefix.
  const auto edge = g_.find_edge(trc_, ebc_);
  ASSERT_TRUE(edge);
  spec.suppress.insert(*edge);
  const auto table = compute_routes(g_, spec);
  for (topo::AsIndex i = 0; i < g_.as_count(); ++i) {
    if (i == ebc_) continue;
    EXPECT_FALSE(table.reachable(i)) << g_.node(i).name;
  }
}

TEST_F(PropagationTest, WorklistMatchesReferenceForEveryOrigin) {
  for (topo::AsIndex origin = 0; origin < g_.as_count(); ++origin) {
    const OriginSpec spec = OriginSpec::everywhere(origin);
    expect_identical(compute_routes(g_, spec), compute_routes_reference(g_, spec),
                     g_);
  }
}

TEST_F(PropagationTest, WorklistMatchesReferenceUnderSpecVariants) {
  // Suppression, prepending, and scoped announcements all reroute traffic;
  // the worklist must track the reference through each.
  OriginSpec suppressed = OriginSpec::everywhere(eba_);
  suppressed.suppress.insert(e_eba_ebb_);
  OriginSpec prepended = OriginSpec::everywhere(eba_);
  prepended.prepend[e_tra_eba_] = 4;
  const OriginSpec scoped = OriginSpec::scoped(eba_, g_.edge(e_tra_eba_).links);
  for (const OriginSpec& spec : {suppressed, prepended, scoped}) {
    expect_identical(compute_routes(g_, spec), compute_routes_reference(g_, spec),
                     g_);
  }
}

TEST_F(PropagationTest, ConcurrentComputeOnColdGraphIsRaceFree) {
  // First-touch of the lazy CSR index from many threads: losers of the build
  // race must adopt the winner's snapshot (tsan guards this path in CI). g_
  // is cold here — no compute has run in this fixture instance yet.
  std::vector<std::optional<RouteTable>> slots(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < slots.size(); ++t) {
    threads.emplace_back([&, t] { slots[t].emplace(compute_routes(g_, eba_)); });
  }
  for (auto& th : threads) th.join();
  const auto want = compute_routes_reference(g_, OriginSpec::everywhere(eba_));
  for (const auto& slot : slots) expect_identical(*slot, want, g_);
}

TEST_F(PropagationTest, BatchMatchesReferenceForEveryOrigin) {
  expect_batches_match_reference(g_, all_origins(g_));
}

TEST_F(PropagationTest, BatchTiebreakPrefersLowerAsn) {
  // TiebreakPrefersLowerAsn with the EBa--EBb session removed from the graph
  // instead of suppressed. It is the last edge added, so every edge id is
  // unchanged and the batch table must equal the suppressed-spec table.
  const AsGraph cut = without_edges(g_, {e_eba_ebb_});
  const std::vector<topo::AsIndex> origins{eba_};
  const std::vector<RouteTable> tables = compute_routes_batch(cut, origins);
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_EQ(tables[0].at(ebb_).cls, RouteClass::Provider);
  EXPECT_EQ(tables[0].at(ebb_).next_hop, trb_);
  OriginSpec spec = OriginSpec::everywhere(eba_);
  spec.suppress.insert(e_eba_ebb_);
  expect_identical(tables[0], compute_routes(g_, spec), g_);
  expect_batches_match_reference(cut, all_origins(cut));
}

TEST_F(PropagationTest, BatchUnreachableWhenFullyCut) {
  // UnreachableWhenFullyCut with EBc's only session removed from the graph.
  const auto edge = g_.find_edge(trc_, ebc_);
  ASSERT_TRUE(edge);
  const AsGraph cut = without_edges(g_, {*edge});
  const std::vector<topo::AsIndex> origins{ebc_, eba_};
  const std::vector<RouteTable> tables = compute_routes_batch(cut, origins);
  for (topo::AsIndex i = 0; i < cut.as_count(); ++i) {
    if (i == ebc_) continue;
    EXPECT_FALSE(tables[0].reachable(i)) << cut.node(i).name;
  }
  EXPECT_FALSE(tables[1].reachable(ebc_));
  EXPECT_EQ(tables[0].at(ebc_).cls, RouteClass::Origin);
  expect_batches_match_reference(cut, all_origins(cut));
}

TEST_F(PropagationTest, BatchRejectsMoreThan64Origins) {
  topo::InternetConfig cfg;
  cfg.seed = 3;
  const auto net = topo::build_internet(cfg);
  std::vector<topo::AsIndex> origins = all_origins(net.graph);
  origins.resize(kMaxBatchOrigins + 1);
  ScopedCheckThrows guard;
  try {
    (void)compute_routes_batch(net.graph, origins);
    FAIL() << "a 65-origin batch was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("route batch wider than its 64-bit lane mask"),
              std::string::npos)
        << e.what();
  }
  origins.pop_back();
  EXPECT_EQ(compute_routes_batch(net.graph, origins).size(), kMaxBatchOrigins);
}

TEST_F(PropagationTest, BatchRejectsARepeatedOrigin) {
  const std::vector<topo::AsIndex> origins{eba_, ebb_, eba_};
  ScopedCheckThrows guard;
  try {
    (void)compute_routes_batch(g_, origins);
    FAIL() << "a batch repeating an origin was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("route batch repeats an origin"),
              std::string::npos)
        << e.what();
  }
}

TEST(PropagationBatch, EmptyBatchYieldsNoTables) {
  AsGraph g;
  g.add_as(Asn{1}, AsClass::Stub, "only", {0});
  EXPECT_TRUE(compute_routes_batch(g, {}).empty());
}

TEST(PropagationBatch, TiesBreakOnAsnNotOnIndex) {
  // ASNs fall as the AS index rises, unlike every generated world, so a
  // kernel that broke ties in index order would pick the other neighbor.
  //
  //         T(970)       X(960) peers with A and B
  //        /     |
  //     A(990)  B(980)   both providers of O and of C
  //        |   / |
  //        O(1000)  C(950)     D(940): customer of T and of X
  AsGraph g;
  const auto as = [&](std::uint32_t asn, const char* name) {
    return g.add_as(Asn{asn}, AsClass::Transit, name, {0});
  };
  const auto o = as(1000, "O");
  const auto a = as(990, "A");
  const auto b = as(980, "B");
  const auto t = as(970, "T");
  const auto x = as(960, "X");
  const auto c = as(950, "C");
  const auto d = as(940, "D");
  g.connect_transit(a, o);
  g.connect_transit(b, o);
  g.connect_transit(t, a);
  g.connect_transit(t, b);
  g.connect_peering(x, a);
  g.connect_peering(x, b);
  g.connect_transit(a, c);
  g.connect_transit(b, c);
  g.connect_transit(t, d);
  g.connect_transit(x, d);

  const std::vector<topo::AsIndex> origins{o};
  const RouteTable table = compute_routes_batch(g, origins).front();
  EXPECT_EQ(table.at(t).cls, RouteClass::Customer);
  EXPECT_EQ(table.at(t).next_hop, b);  // customer tie: B (980) over A (990)
  EXPECT_EQ(table.at(x).cls, RouteClass::Peer);
  EXPECT_EQ(table.at(x).next_hop, b);  // peer tie
  EXPECT_EQ(table.at(c).cls, RouteClass::Provider);
  EXPECT_EQ(table.at(c).next_hop, b);  // provider tie
  EXPECT_EQ(table.at(d).cls, RouteClass::Provider);
  EXPECT_EQ(table.at(d).length, 3);
  EXPECT_EQ(table.at(d).next_hop, x);  // a peer-routed X (960) beats T (970)
  expect_batches_match_reference(g, all_origins(g));
  expect_batches_match_reference(g, all_origins(g), 1);
}

/// Property suite over generated Internets: valley-freeness and consistency
/// hold for every origin in every seed.
class PropagationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropagationProperty, GeneratedInternetInvariants) {
  topo::InternetConfig cfg;
  cfg.seed = GetParam();
  cfg.tier1_count = 5;
  cfg.transit_count = 14;
  cfg.eyeball_count = 30;
  cfg.stub_count = 15;
  const auto net = topo::build_internet(cfg);
  int checked = 0;
  for (topo::AsIndex origin = 0; origin < net.graph.as_count(); origin += 7) {
    const auto table = compute_routes(net.graph, origin);
    EXPECT_TRUE(table_is_consistent(net.graph, table))
        << "origin " << net.graph.node(origin).name;
    // Everyone is connected in a generated Internet.
    for (topo::AsIndex i = 0; i < net.graph.as_count(); ++i) {
      EXPECT_TRUE(table.reachable(i));
    }
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

TEST_P(PropagationProperty, WorklistMatchesReferenceGolden) {
  topo::InternetConfig cfg;
  cfg.seed = GetParam();
  cfg.tier1_count = 5;
  cfg.transit_count = 14;
  cfg.eyeball_count = 30;
  cfg.stub_count = 15;
  const auto net = topo::build_internet(cfg);
  for (topo::AsIndex origin = 0; origin < net.graph.as_count(); origin += 5) {
    const OriginSpec spec = OriginSpec::everywhere(origin);
    expect_identical(compute_routes(net.graph, spec),
                     compute_routes_reference(net.graph, spec), net.graph);
  }
}

TEST_P(PropagationProperty, BatchMatchesReferenceGolden) {
  topo::InternetConfig cfg;
  cfg.seed = GetParam();
  cfg.tier1_count = 5;
  cfg.transit_count = 14;
  cfg.eyeball_count = 30;
  cfg.stub_count = 15;
  const auto net = topo::build_internet(cfg);
  expect_batches_match_reference(net.graph, all_origins(net.graph));
}

TEST_P(PropagationProperty, BatchWidthAndLaneOrderDoNotMatter) {
  topo::InternetConfig cfg;
  cfg.seed = GetParam();
  const auto net = topo::build_internet(cfg);
  std::vector<topo::AsIndex> origins = all_origins(net.graph);
  origins.resize(std::min<std::size_t>(origins.size(), 130));
  std::vector<RouteTable> want;
  for (const topo::AsIndex o : origins) want.push_back(compute_routes(net.graph, o));
  // A seeded shuffle of the same origins: lanes land in different bits.
  std::vector<topo::AsIndex> permuted = origins;
  Rng rng{GetParam()};
  for (std::size_t i = permuted.size(); i > 1; --i) {
    std::swap(permuted[i - 1],
              permuted[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (const std::vector<topo::AsIndex>* order : {&origins, &permuted}) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{63},
                                    std::size_t{64}}) {
      for (std::size_t first = 0; first < order->size(); first += width) {
        const std::span<const topo::AsIndex> batch = std::span{*order}.subspan(
            first, std::min(width, order->size() - first));
        const std::vector<RouteTable> got = compute_routes_batch(net.graph, batch);
        for (std::size_t k = 0; k < batch.size(); ++k) {
          expect_identical(got[k], want[batch[k]], net.graph);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationProperty,
                         ::testing::Values(1u, 7u, 42u, 2026u, 31337u));

TEST(PropagationBatch, MatchesReferenceOnA10xWorld) {
  // 1,024 origins of a 10x world (3,680 ASes): 16 full batches, strided so
  // every AS class and depth is sampled.
  topo::InternetConfig cfg;
  cfg.seed = 10;
  cfg.tier1_count *= 10;
  cfg.transit_count *= 10;
  cfg.eyeball_count *= 10;
  cfg.stub_count *= 10;
  const auto net = topo::build_internet(cfg);
  std::vector<topo::AsIndex> origins;
  for (topo::AsIndex i = 0; origins.size() < 1024; i = (i + 7) % net.graph.as_count()) {
    origins.push_back(i);
  }
  expect_batches_match_reference(net.graph, origins);
}

}  // namespace
}  // namespace bgpcmp::bgp
