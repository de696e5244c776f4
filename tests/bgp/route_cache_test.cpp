#include "bgpcmp/bgp/route_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::bgp {
namespace {

topo::Internet small_internet(std::uint64_t seed) {
  topo::InternetConfig cfg;
  cfg.seed = seed;
  cfg.tier1_count = 4;
  cfg.transit_count = 8;
  cfg.eyeball_count = 10;
  cfg.stub_count = 4;
  return topo::build_internet(cfg);
}

void expect_identical(const RouteTable& got, const RouteTable& want) {
  ASSERT_EQ(got.size(), want.size());
  for (topo::AsIndex i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.at(i).cls, want.at(i).cls);
    EXPECT_EQ(got.at(i).length, want.at(i).length);
    EXPECT_EQ(got.at(i).next_hop, want.at(i).next_hop);
    EXPECT_EQ(got.at(i).via_edge, want.at(i).via_edge);
  }
}

TEST(RouteCache, ComputesOncePerOrigin) {
  const auto net = small_internet(2);
  RouteCache cache{&net.graph};
  EXPECT_EQ(cache.size(), 0u);
  const auto& a = cache.toward(net.eyeballs[0]);
  const auto& b = cache.toward(net.eyeballs[0]);
  EXPECT_EQ(&a, &b);  // same table object, no recomputation
  EXPECT_EQ(cache.size(), 1u);
  (void)cache.toward(net.eyeballs[1]);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(RouteCache, MatchesDirectComputation) {
  const auto net = small_internet(3);
  RouteCache cache{&net.graph};
  const auto origin = net.eyeballs[2];
  const auto direct = compute_routes(net.graph, origin);
  const auto& cached = cache.toward(origin);
  for (topo::AsIndex i = 0; i < net.graph.as_count(); ++i) {
    EXPECT_EQ(cached.at(i).cls, direct.at(i).cls);
    EXPECT_EQ(cached.at(i).length, direct.at(i).length);
    EXPECT_EQ(cached.at(i).next_hop, direct.at(i).next_hop);
  }
}

TEST(RouteCache, WarmDedupsAndMatchesDirect) {
  const auto net = small_internet(5);
  RouteCache cache{&net.graph};
  const std::vector<topo::AsIndex> origins{net.eyeballs[0], net.eyeballs[1],
                                           net.eyeballs[0], net.eyeballs[2],
                                           net.eyeballs[1]};
  cache.warm(origins);
  EXPECT_EQ(cache.size(), 3u);  // duplicates computed once
  for (const auto o : {net.eyeballs[0], net.eyeballs[1], net.eyeballs[2]}) {
    const RouteTable* warmed = cache.find(o);
    ASSERT_NE(warmed, nullptr);
    expect_identical(*warmed, compute_routes(net.graph, o));
  }
  EXPECT_EQ(cache.find(net.eyeballs[3]), nullptr);  // never warmed
}

TEST(RouteCache, TowardAfterWarmReturnsTheWarmedTable) {
  const auto net = small_internet(5);
  RouteCache cache{&net.graph};
  const std::vector<topo::AsIndex> origins{net.eyeballs[0]};
  cache.warm(origins);
  const RouteTable* warmed = cache.find(net.eyeballs[0]);
  EXPECT_EQ(&cache.toward(net.eyeballs[0]), warmed);  // no recomputation
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RouteCache, ParallelWarmIdenticalToSerialAtAnyWidth) {
  const auto net = small_internet(7);
  std::vector<topo::AsIndex> origins{net.eyeballs.begin(), net.eyeballs.end()};
  RouteCache serial{&net.graph};
  serial.warm(origins);
  for (const int width : {1, 4}) {
    exec::ThreadPool pool{width};
    RouteCache parallel{&net.graph};
    parallel.warm(origins, pool);
    EXPECT_EQ(parallel.size(), serial.size());
    for (const auto o : origins) {
      ASSERT_NE(parallel.find(o), nullptr);
      expect_identical(*parallel.find(o), *serial.find(o));
    }
  }
}

TEST(RouteCache, BatchedWarmMatchesDirectAcrossBatchBoundaries) {
  // 130 requests for 120 distinct origins, two of them cached before the
  // call: the 118 missing ones split into a 64-origin batch and a 54-origin
  // one, and the repeated run distinct[60..67] straddles that boundary.
  topo::InternetConfig cfg;
  cfg.seed = 9;
  const auto net = topo::build_internet(cfg);
  std::vector<topo::AsIndex> distinct;
  for (topo::AsIndex i = 0; distinct.size() < 120; i += 3) distinct.push_back(i);
  const std::vector<topo::AsIndex> prewarm{distinct[0], distinct[119]};
  std::vector<topo::AsIndex> origins{distinct.begin(), distinct.begin() + 64};
  origins.insert(origins.end(), distinct.begin() + 60, distinct.begin() + 68);
  origins.insert(origins.end(), distinct.begin() + 64, distinct.end());
  origins.push_back(distinct[1]);
  origins.push_back(distinct[100]);
  ASSERT_EQ(origins.size(), 130u);

  const auto check = [&](RouteCache& cache) {
    EXPECT_EQ(cache.size(), distinct.size());
    for (const auto o : distinct) {
      ASSERT_NE(cache.find(o), nullptr) << o;
      expect_identical(*cache.find(o), compute_routes(net.graph, o));
    }
  };
  RouteCache serial{&net.graph};
  serial.warm(prewarm);
  serial.warm(origins);
  check(serial);
  for (const int width : {1, 3, 8}) {
    exec::ThreadPool pool{width};
    RouteCache parallel{&net.graph};
    parallel.warm(prewarm, pool);
    parallel.warm(origins, pool);
    check(parallel);
  }
}

TEST(RouteCache, WarmedTablesReadableFromConcurrentThreads) {
  const auto net = small_internet(7);
  std::vector<topo::AsIndex> origins{net.eyeballs.begin(), net.eyeballs.end()};
  exec::ThreadPool pool{4};
  RouteCache cache{&net.graph};
  cache.warm(origins, pool);
  // The read phase of warm-then-plan: concurrent find() on warmed origins
  // must be race-free (tsan guards this in CI).
  std::vector<std::thread> threads;
  std::vector<std::size_t> reachable(4, 0);
  for (std::size_t t = 0; t < reachable.size(); ++t) {
    threads.emplace_back([&, t] {
      std::size_t n = 0;
      for (const auto o : origins) {
        const RouteTable* table = cache.find(o);
        for (topo::AsIndex i = 0; i < net.graph.as_count(); ++i) {
          if (table->reachable(i)) ++n;
        }
      }
      reachable[t] = n;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < reachable.size(); ++t) {
    EXPECT_EQ(reachable[t], reachable[0]);
  }
}

}  // namespace
}  // namespace bgpcmp::bgp
