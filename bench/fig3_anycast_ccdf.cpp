// E3 / Figure 3: CCDF of (anycast - best unicast) latency per request, for
// Europe / World / United States.
//
// Paper shape targets: anycast within 10 ms of the best unicast for ~70% of
// requests globally; best unicast >= 100 ms faster for ~10% of requests;
// Europe tighter than the world at the head of the distribution.
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
  std::fputs(core::banner("Figure 3: anycast vs best unicast front-end (CCDF of "
                          "requests)")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::microsoft_like());
  cdn::AnycastCdn cdn{&scenario->internet, &scenario->provider};
  const auto result = core::run_anycast_study(*scenario, cdn);

  std::printf("requests: world %zu, europe %zu, us %zu\n\n",
              result.fig3_world.count(), result.fig3_europe.count(),
              result.fig3_us.count());
  std::fputs("CCDF of requests vs performance difference between anycast and\n"
             "best unicast (ms)\n\n",
             stdout);
  std::fputs(core::render_cdfs("gap_ms", {"europe", "world", "united_states"},
                               {&result.fig3_europe, &result.fig3_world,
                                &result.fig3_us},
                               0.0, 100.0, 21, /*ccdf=*/true)
                 .c_str(),
             stdout);

  std::fputs("\nHeadlines (§3.2.1):\n", stdout);
  std::fputs(core::headline("requests with anycast within 10 ms (paper: ~70%)",
                            100.0 * result.frac_within_10ms, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("requests with best unicast >= 100 ms faster (paper: ~10%)",
                            100.0 * result.frac_unicast_100ms_faster, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("requests with anycast >= 25 ms slower (paper: ~20%)",
                            100.0 * result.fig3_world.fraction_above(25.0), "%")
                 .c_str(),
             stdout);

  if (const auto dir = core::csv_export_dir()) {
    core::write_series_csv(*dir + "/fig3.csv", "gap_ms",
                           {"europe", "world", "united_states"},
                           {&result.fig3_europe, &result.fig3_world,
                            &result.fig3_us},
                           0.0, 100.0, 101, /*ccdf=*/true);
  }
  return 0;
}
