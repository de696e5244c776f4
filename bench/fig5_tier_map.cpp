// E5 / Figure 5: per-country median latency difference, Standard Tier minus
// Premium Tier, to the US-Central data center (the paper's world map, printed
// as a table), plus the E12 ingress-distance headline.
//
// Paper shape targets: most NA/SA/EU countries within +/- 10 ms; Premium
// (private WAN) wins across most of Asia and Oceania; Standard (public
// Internet) wins for India and some Middle East countries; ~80% of Premium
// measurements enter the cloud within 400 km of the vantage vs ~10% for
// Standard.
#include <cstdio>

#include "bgpcmp/core/csv.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/study_wan.h"
#include "bgpcmp/stats/table.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  core::WanStudyConfig cfg;
  cfg.campaign.days = tools::bench_arg(argc, argv, "days", cfg.campaign.days);

  std::fputs(core::banner("Figure 5: Standard - Premium tier median latency by "
                          "country")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::google_like());
  wan::CloudTiers tiers{&scenario->internet, &scenario->provider};
  const auto result = core::run_wan_study(*scenario, tiers, cfg);

  std::printf("samples: %zu total, %zu after the vantage filter "
              "(direct Premium peering, >=1 intermediate AS on Standard)\n\n",
              result.total_samples, result.filtered_samples);

  stats::Table table{{"country", "region", "median S-P (ms)", "samples", "verdict"}};
  for (const auto& row : result.countries) {
    const char* verdict = row.median_diff_ms > 10.0    ? "premium wins"
                          : row.median_diff_ms < -10.0 ? "standard wins"
                                                       : "comparable";
    table.add_row({row.country, std::string(topo::region_name(row.region)),
                   stats::fmt(row.median_diff_ms, 1), std::to_string(row.samples),
                   verdict});
  }
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nHeadlines:\n", stdout);
  std::fputs(core::headline("Premium measurements entering cloud within 400 km "
                            "(paper: ~80%)",
                            100.0 * result.premium_ingress_near_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("Standard measurements entering cloud within 400 km "
                            "(paper: ~10%)",
                            100.0 * result.standard_ingress_near_fraction, "%")
                 .c_str(),
             stdout);
  bool found = false;
  const double india = result.country_diff("India", found);
  if (found) {
    std::fputs(core::headline("India median S-P (paper: negative, public Internet "
                              "wins)",
                              india, "ms", 1)
                   .c_str(),
               stdout);
  }

  if (const auto dir = core::csv_export_dir()) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& row : result.countries) {
      rows.push_back({row.country, std::string(topo::region_name(row.region)),
                      stats::fmt(row.median_diff_ms, 2),
                      std::to_string(row.samples)});
    }
    core::write_csv(*dir + "/fig5.csv",
                    {"country", "region", "median_standard_minus_premium_ms",
                     "samples"},
                    rows);
  }
  return 0;
}
