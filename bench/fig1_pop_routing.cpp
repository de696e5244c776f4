// E1 / Figure 1: traffic-weighted CDF of the median MinRTT difference between
// BGP's preferred egress route and the best alternate route, with the
// bootstrap-CI band, plus the §3.1 headline numbers (E11).
//
// Paper shape targets: the CDF mass sits near 0; median MinRTT is improvable
// by >= 5 ms for only 2-4% of traffic; for a visible share of traffic BGP is
// strictly better than every alternative.
#include <cstdio>
#include <map>
#include <string>

#include "bgpcmp/core/csv.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/study_pop.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  core::PopStudyConfig study_cfg;
  study_cfg.days = tools::bench_arg(argc, argv, "days", study_cfg.days);

  std::fputs(core::banner("Figure 1: possible median latency improvement over BGP "
                          "by routing over alternate routes")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto result = core::run_pop_study(*scenario, study_cfg);

  const auto point = result.fig1_cdf(core::PopStudyResult::Fig1Bound::Point);
  const auto lower = result.fig1_cdf(core::PopStudyResult::Fig1Bound::Lower);
  const auto upper = result.fig1_cdf(core::PopStudyResult::Fig1Bound::Upper);

  std::printf("<PoP,prefix> pairs: %zu, windows: %zu, observations: %zu\n\n",
              result.series.size(), result.windows.size(), point.count());
  std::fputs("Cum. fraction of traffic vs median MinRTT difference (ms)\n"
             "[BGP - Alternate]; positive = best alternate beats BGP\n\n",
             stdout);
  std::fputs(core::render_cdfs("diff_ms", {"cdf", "ci_lower", "ci_upper"},
                               {&point, &lower, &upper}, -10.0, 10.0, 21)
                 .c_str(),
             stdout);

  std::fputs("\nHeadlines (E11):\n", stdout);
  std::fputs(core::headline("traffic improvable by >= 5 ms (paper: 2-4%)",
                            100.0 * result.improvable_traffic_fraction(5.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic improvable by >= 1 ms",
                            100.0 * result.improvable_traffic_fraction(1.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic where BGP beats best alternate by >= 1 ms",
                            100.0 * point.fraction_at_most(-1.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic within +/- 2 ms of best alternate",
                            100.0 * (point.fraction_at_most(2.0) -
                                     point.fraction_at_most(-2.0)),
                            "%")
                 .c_str(),
             stdout);

  // Regional decomposition of the headline (not in the paper's figure, but
  // useful when judging which geographies drive the improvable tail).
  {
    std::map<topo::Region, std::pair<double, double>> by_region;  // improvable, total
    const auto& db = scenario->internet.city_db();
    for (const auto& s : result.series) {
      const auto region = db.at(scenario->clients.at(s.prefix).city).region;
      for (std::size_t w = 0; w < result.windows.size(); ++w) {
        by_region[region].second += s.volume[w];
        if (s.diff(w) >= 5.0) by_region[region].first += s.volume[w];
      }
    }
    std::fputs("\nImprovable (>=5 ms) traffic by client region:\n", stdout);
    for (const auto& [region, frac] : by_region) {
      if (frac.second <= 0.0) continue;
      std::fputs(core::headline(std::string(topo::region_name(region)),
                                100.0 * frac.first / frac.second, "%")
                     .c_str(),
                 stdout);
    }
  }

  if (const auto dir = core::csv_export_dir()) {
    core::write_series_csv(*dir + "/fig1.csv", "diff_ms",
                           {"cdf", "ci_lower", "ci_upper"},
                           {&point, &lower, &upper}, -10.0, 10.0, 81);
  }
  return 0;
}
