#include "bgpcmp/core/study_pop.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "../testutil.h"
#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/core/pop_pair.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::core {
namespace {

PopStudyConfig quick_config() {
  PopStudyConfig cfg;
  cfg.days = 0.5;
  cfg.window_stride = 2;
  return cfg;
}

class PopStudyTest : public ::testing::Test {
 protected:
  static const PopStudyResult& result() {
    static const PopStudyResult r =
        run_pop_study(test::small_scenario(), quick_config());
    return r;
  }
};

TEST_F(PopStudyTest, WindowsFollowTheGrid) {
  // 0.5 days = 48 windows, stride 2 = 24 evaluated.
  EXPECT_EQ(result().windows.size(), 24u);
  for (std::size_t i = 1; i < result().windows.size(); ++i) {
    EXPECT_GT(result().windows[i].begin, result().windows[i - 1].begin);
  }
}

TEST_F(PopStudyTest, SeriesShapeIsConsistent) {
  EXPECT_FALSE(result().series.empty());
  for (const auto& s : result().series) {
    ASSERT_GE(s.routes.size(), 2u);
    ASSERT_LE(s.routes.size(), 3u);  // top_k default
    ASSERT_EQ(s.medians.size(), s.routes.size());
    for (const auto& m : s.medians) {
      ASSERT_EQ(m.size(), result().windows.size());
      for (const float v : m) EXPECT_GT(v, 0.0f);
    }
    ASSERT_EQ(s.volume.size(), result().windows.size());
    ASSERT_EQ(s.ci_lower.size(), result().windows.size());
    ASSERT_EQ(s.ci_upper.size(), result().windows.size());
  }
}

TEST_F(PopStudyTest, BgpPreferredIsFirstAndRanked) {
  // [0] must never be a transit route while a peer route exists in the set.
  for (const auto& s : result().series) {
    bool has_peer = false;
    for (const auto& r : s.routes) {
      has_peer |= r.role == topo::NeighborRole::Peer;
    }
    if (has_peer) {
      EXPECT_EQ(s.routes[0].role, topo::NeighborRole::Peer);
    }
  }
}

TEST_F(PopStudyTest, CiBoundsBracketOrdered) {
  for (const auto& s : result().series) {
    for (std::size_t w = 0; w < result().windows.size(); ++w) {
      EXPECT_LE(s.ci_lower[w], s.ci_upper[w]);
    }
  }
}

TEST_F(PopStudyTest, Fig1CdfMassNearZero) {
  const auto cdf = result().fig1_cdf();
  ASSERT_FALSE(cdf.empty());
  // The central reproduction claim: most traffic sits within +/-10 ms.
  const double within =
      cdf.fraction_at_most(10.0) - cdf.fraction_at_most(-10.0);
  EXPECT_GT(within, 0.6);
}

TEST_F(PopStudyTest, Fig1BoundsOrdered) {
  const auto point = result().fig1_cdf(PopStudyResult::Fig1Bound::Point);
  const auto lower = result().fig1_cdf(PopStudyResult::Fig1Bound::Lower);
  const auto upper = result().fig1_cdf(PopStudyResult::Fig1Bound::Upper);
  // ci_lower <= diff <= ci_upper implies stochastic ordering of the CDFs.
  for (const double x : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    EXPECT_GE(lower.fraction_at_most(x) + 1e-9, point.fraction_at_most(x));
    EXPECT_LE(upper.fraction_at_most(x) - 1e-9, point.fraction_at_most(x));
  }
}

TEST_F(PopStudyTest, ImprovableFractionMonotoneInThreshold) {
  double prev = 1.0;
  for (const double th : {0.0, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const double frac = result().improvable_traffic_fraction(th);
    EXPECT_LE(frac, prev + 1e-12);
    EXPECT_GE(frac, 0.0);
    prev = frac;
  }
}

TEST_F(PopStudyTest, ImprovableFractionIsSmallMinority) {
  EXPECT_LT(result().improvable_traffic_fraction(5.0), 0.25);
}

TEST_F(PopStudyTest, Fig2CurvesCenteredNearZero) {
  const auto pt = result().fig2_peer_vs_transit();
  if (!pt.empty()) {
    EXPECT_LT(std::abs(pt.quantile(0.5)), 8.0);
  }
  const auto pp = result().fig2_private_vs_public();
  if (!pp.empty()) {
    EXPECT_LT(std::abs(pp.quantile(0.5)), 8.0);
  }
}

TEST_F(PopStudyTest, DiffUsesBestAlternate) {
  const auto& s = result().series.front();
  for (std::size_t w = 0; w < result().windows.size(); ++w) {
    float best_alt = s.medians[1][w];
    for (std::size_t r = 2; r < s.medians.size(); ++r) {
      best_alt = std::min(best_alt, s.medians[r][w]);
    }
    EXPECT_FLOAT_EQ(s.diff(w), s.medians[0][w] - best_alt);
  }
}

TEST(PopStudy, DeterministicGivenSeed) {
  const auto a = run_pop_study(test::small_scenario(), quick_config());
  const auto b = run_pop_study(test::small_scenario(), quick_config());
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); i += 11) {
    EXPECT_EQ(a.series[i].prefix, b.series[i].prefix);
    EXPECT_EQ(a.series[i].medians, b.series[i].medians);
  }
}

TEST(PopStudy, IdenticalAcrossThreadCounts) {
  // The per-plan measurement loop fans out over the exec pool; every value
  // (medians, volume, bootstrap CIs) must be bit-identical whether the study
  // ran on one thread or several — the PR's determinism contract.
  PopStudyConfig cfg = quick_config();
  cfg.days = 0.25;
  exec::set_thread_count(1);
  const auto seq = run_pop_study(test::small_scenario(), cfg);
  exec::set_thread_count(4);
  const auto par = run_pop_study(test::small_scenario(), cfg);
  exec::set_thread_count(0);
  ASSERT_EQ(seq.series.size(), par.series.size());
  for (std::size_t i = 0; i < seq.series.size(); ++i) {
    EXPECT_EQ(seq.series[i].prefix, par.series[i].prefix);
    EXPECT_EQ(seq.series[i].medians, par.series[i].medians);
    EXPECT_EQ(seq.series[i].volume, par.series[i].volume);
    EXPECT_EQ(seq.series[i].ci_lower, par.series[i].ci_lower);
    EXPECT_EQ(seq.series[i].ci_upper, par.series[i].ci_upper);
  }
}

TEST(PopStudy, TopKLimitsRoutes) {
  PopStudyConfig cfg = quick_config();
  cfg.top_k_routes = 2;
  cfg.days = 0.25;
  const auto result = run_pop_study(test::small_scenario(), cfg);
  for (const auto& s : result.series) {
    EXPECT_LE(s.routes.size(), 2u);
  }
}

TEST(PopStudy, RejectsTopKBelowTwo) {
  // A negative k used to cast to "no limit", and 0 or 1 left every pair
  // unmeasurable without a word.
  for (const int k : {-1, 0, 1}) {
    PopStudyConfig cfg = quick_config();
    cfg.top_k_routes = k;
    ScopedCheckThrows guard;
    EXPECT_THROW((void)run_pop_study(test::small_scenario(), cfg), CheckError) << k;
  }
}

TEST(PopStudy, PlanRejectsTopKBelowTwo) {
  // plan_pop_pair is public and has direct callers besides run_pop_pairs, so
  // it checks k itself: -1 used to mean "no limit", 0 and 1 planned nothing.
  const auto& sc = test::small_scenario();
  const auto& client = sc.clients.prefixes().front();
  const auto table = bgp::compute_routes(sc.internet.graph, client.origin_as);
  for (const int k : {-1, 0, 1}) {
    ScopedCheckThrows guard;
    EXPECT_THROW((void)plan_pop_pair(sc.internet.graph, sc.internet.city_db(),
                                     sc.provider, client, 0, table, k),
                 CheckError)
        << k;
  }
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(PopStudy, BootstrapSettingsNeverMoveSamples) {
  // Each window's CI draws from its own stream, so the resample count moves
  // only ci_lower/ci_upper: medians and volumes are bit-identical.
  PopStudyConfig cfg = quick_config();
  cfg.days = 0.25;
  cfg.bootstrap.resamples = 60;
  const auto base = run_pop_study(test::small_scenario(), cfg);
  ASSERT_FALSE(base.series.empty());
  for (const int resamples : {20, 200}) {
    cfg.bootstrap.resamples = resamples;
    const auto other = run_pop_study(test::small_scenario(), cfg);
    ASSERT_EQ(other.series.size(), base.series.size());
    for (std::size_t i = 0; i < base.series.size(); ++i) {
      const auto& a = base.series[i];
      const auto& b = other.series[i];
      ASSERT_EQ(b.medians.size(), a.medians.size());
      for (std::size_t r = 0; r < a.medians.size(); ++r) {
        ASSERT_TRUE(same_bits(b.medians[r], a.medians[r]))
            << "resamples=" << resamples << " series " << i << " route " << r;
      }
      ASSERT_TRUE(same_bits(b.volume, a.volume))
          << "resamples=" << resamples << " series " << i;
    }
  }
}

}  // namespace
}  // namespace bgpcmp::core
