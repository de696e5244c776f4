// E15 (§3.2.2): CDN site planning — the diminishing-returns curve of PoP
// density and how well a new site's benefit can be predicted from geometry.
#include <cstdio>

#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/site_planning.h"
#include "bgpcmp/stats/table.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  tools::bench_flags(argc, argv);
  std::fputs(core::banner("E15: CDN site planning — density sweep and "
                          "site-addition prediction")
                 .c_str(),
             stdout);
  core::SitePlanningConfig cfg;
  const std::size_t counts[] = {6, 10, 16, 24, 34, 44};
  const auto result = core::run_site_planning(
      core::ScenarioConfig::microsoft_like(), cfg, counts);

  std::fputs("PoP-density sweep (ungroomed anycast):\n", stdout);
  stats::Table density{{"PoPs", "median gap", "p90 gap", "median catchment"}};
  for (const auto& p : result.density) {
    density.add_row({std::to_string(p.pop_count),
                     stats::fmt(p.median_gap_ms, 2) + " ms",
                     stats::fmt(p.p90_gap_ms, 2) + " ms",
                     stats::fmt(p.median_catchment_km, 0) + " km"});
  }
  std::fputs(density.render().c_str(), stdout);

  std::fputs("\nSite-addition ablation (one candidate metro at a time):\n",
             stdout);
  const topo::CityDb& db = topo::CityDb::world();
  stats::Table add{{"candidate", "predicted gain", "actual gain",
                    "catchment share"}};
  for (const auto& row : result.additions) {
    add.add_row({std::string(db.at(row.candidate).name),
                 stats::fmt(row.predicted_improvement_ms, 3) + " ms",
                 stats::fmt(row.actual_improvement_ms, 3) + " ms",
                 stats::fmt(100.0 * row.catchment_shift, 1) + "%"});
  }
  std::fputs(add.render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(core::headline("predicted-vs-actual correlation "
                            "(paper asks: how well can it be predicted?)",
                            result.prediction_correlation)
                 .c_str(),
             stdout);
  std::fputs("\nReading: the density curve flattens (diminishing returns) and "
             "geometric predictions rank candidates usefully but miss the "
             "BGP-catchment effects — both answers to §3.2.2's questions.\n",
             stdout);
  return 0;
}
