// E4 / Figure 4: improvement over anycast from LDNS-granularity DNS
// redirection, per weighted /24, at the median and 75th percentile.
//
// Paper shape targets: the median improves for ~27% of queries but the
// prediction does *worse* than anycast for ~17% — redirection wins and loses
// at the same order of magnitude.
#include <cstdio>

#include "bgpcmp/cdn/anycast_cdn.h"
#include "bgpcmp/core/csv.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/study_anycast.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  tools::bench_flags(argc, argv);
  std::fputs(core::banner("Figure 4: DNS redirection vs anycast (CDF of weighted "
                          "/24s)")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::microsoft_like());
  cdn::AnycastCdn cdn{&scenario->internet, &scenario->provider};
  const auto result = core::run_anycast_study(*scenario, cdn);

  std::printf("weighted /24s: %zu\n\n", result.fig4_median.count());
  std::fputs("CDF of weighted /24s vs improvement from following the DNS\n"
             "redirection decision (ms); positive = redirection beat anycast\n\n",
             stdout);
  std::fputs(core::render_cdfs("improvement_ms", {"median", "p75"},
                               {&result.fig4_median, &result.fig4_p75}, -100.0,
                               100.0, 21)
                 .c_str(),
             stdout);

  std::fputs("\nHeadlines (§3.2.1):\n", stdout);
  std::fputs(core::headline("/24s improved at median (paper: ~27%)",
                            100.0 * result.fig4_improved_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("/24s made worse at median (paper: ~17%)",
                            100.0 * result.fig4_worse_fraction, "%")
                 .c_str(),
             stdout);

  if (const auto dir = core::csv_export_dir()) {
    core::write_series_csv(*dir + "/fig4.csv", "improvement_ms",
                           {"median", "p75"},
                           {&result.fig4_median, &result.fig4_p75}, -400.0,
                           400.0, 161);
  }
  return 0;
}
