// E17 (robustness): the reproduction's headline claims across independent
// random worlds. A single calibrated seed could overfit; this sweep rebuilds
// the whole Internet from different master seeds and re-measures the Fig 1
// and Fig 3 headlines.
#include <cstdio>
#include <iterator>
#include <string>

#include "bgpcmp/cdn/anycast_cdn.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/study_anycast.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/stats/summary.h"
#include "bgpcmp/stats/table.h"
#include "../tools/flags.h"

using namespace bgpcmp;

namespace {

/// The headline numbers of one master seed's world.
struct SeedHeadlines {
  double frac5 = 0.0;
  double band10 = 0.0;
  double any10 = 0.0;
  double any25 = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const double days = tools::bench_arg(argc, argv, "days", 1.0);
  std::fputs(core::banner("E17: headline robustness across master seeds").c_str(),
             stdout);

  const std::uint64_t seeds[] = {1, 7, 42, 2026, 31337};
  const std::size_t n_seeds = std::size(seeds);
  // Each seed's world is built once through the WorldCache and shared by both
  // provider scenarios (the Microsoft-like run below reuses the same
  // InternetConfig, so its make_cached is a hit, not a second build). Worlds
  // fan out over the exec pool — the cache's per-key futures keep distinct
  // seeds building concurrently. Results are collected in seed order: output
  // is identical at any width.
  const auto rows = exec::parallel_map(n_seeds, [&](std::size_t s) {
    const std::uint64_t seed = seeds[s];
    auto scenario =
        core::Scenario::make_cached(core::ScenarioConfig::with_master_seed(seed));
    core::PopStudyConfig pcfg;
    pcfg.days = days;
    const auto pop = core::run_pop_study(*scenario, pcfg);
    const auto cdf = pop.fig1_cdf();

    SeedHeadlines row;
    row.frac5 = pop.improvable_traffic_fraction(5.0);
    row.band10 = cdf.fraction_at_most(10.0) - cdf.fraction_at_most(-10.0);

    // The Fig 3 population on a Microsoft-like provider in the same world.
    auto ms_cfg = core::ScenarioConfig::microsoft_like();
    ms_cfg.internet = scenario->config.internet;  // same Internet, 2015 CDN
    auto ms = core::Scenario::make_cached(ms_cfg);  // cache hit: same world key
    cdn::AnycastCdn cdn{&ms->internet, &ms->provider};
    core::AnycastStudyConfig acfg;
    acfg.beacon_rounds = 2;
    acfg.eval_windows = 2;
    const auto anycast = core::run_anycast_study(*ms, cdn, acfg);
    row.any10 = anycast.frac_within_10ms;
    row.any25 = anycast.fig3_world.fraction_above(25.0);
    return row;
  });

  stats::Table table{{"seed", "fig1 improvable >=5ms", "fig1 within +/-10ms",
                      "fig3 within 10ms", "fig3 >=25ms"}};
  stats::Summary improvable;
  stats::Summary within10;
  stats::Summary any10;
  stats::Summary any25;
  for (std::size_t s = 0; s < n_seeds; ++s) {
    const SeedHeadlines& row = rows[s];
    table.add_row({std::to_string(seeds[s]), stats::fmt(100.0 * row.frac5, 2) + "%",
                   stats::fmt(100.0 * row.band10, 1) + "%",
                   stats::fmt(100.0 * row.any10, 1) + "%",
                   stats::fmt(100.0 * row.any25, 1) + "%"});
    improvable.add(100.0 * row.frac5);
    within10.add(100.0 * row.band10);
    any10.add(100.0 * row.any10);
    any25.add(100.0 * row.any25);
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\nAcross seeds:\n", stdout);
  std::printf("fig1 improvable >=5 ms: %s (paper: 2-4%%)\n",
              improvable.str().c_str());
  std::printf("fig1 within +/-10 ms:   %s\n", within10.str().c_str());
  std::printf("fig3 within 10 ms:      %s (paper: ~70%%)\n", any10.str().c_str());
  std::printf("fig3 >=25 ms:           %s (paper: ~20%%)\n", any25.str().c_str());
  std::fputs("\nReading: the qualitative claims are properties of the model, "
             "not of one lucky seed.\n",
             stdout);
  return 0;
}
