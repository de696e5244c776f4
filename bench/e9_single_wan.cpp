// E9 (§3.3.2): the single-WAN hypothesis — Internet paths perform best when
// most of the journey rides one large network — plus the Tier-1 late-exit
// ablation and the India case study.
#include <cstdio>

#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/singlewan.h"
#include "bgpcmp/stats/table.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  tools::bench_flags(argc, argv);
  std::fputs(core::banner("E9: single-WAN fraction vs latency inflation").c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::google_like());
  wan::CloudTiers tiers{&scenario->internet, &scenario->provider};
  const auto result = core::run_single_wan_study(*scenario, tiers);

  stats::Table table{{"single-network fraction", "paths", "median RTT inflation"}};
  for (const auto& bin : result.bins) {
    table.add_row({"[" + stats::fmt(bin.lo, 1) + ", " + stats::fmt(bin.hi, 1) + ")",
                   std::to_string(bin.count),
                   bin.count > 0 ? stats::fmt(bin.median_inflation, 3) + "x" : "-"});
  }
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nHeadlines:\n", stdout);
  std::fputs(core::headline("correlation(single-WAN fraction, inflation) "
                            "(hypothesis: negative)",
                            result.correlation)
                 .c_str(),
             stdout);
  std::fputs(core::headline("median RTT saved if Tier-1s did late exit",
                            result.late_exit_median_improvement_ms, "ms")
                 .c_str(),
             stdout);
  std::printf("\nIndia case study (%zu sampled paths):\n", result.india_samples);
  std::fputs(core::headline("India premium median", result.india_premium_ms, "ms", 1)
                 .c_str(),
             stdout);
  std::fputs(
      core::headline("India standard median (paper: beats premium)",
                     result.india_standard_ms, "ms", 1)
          .c_str(),
      stdout);
  std::fputs(core::headline("world premium median", result.world_premium_ms, "ms", 1)
                 .c_str(),
             stdout);
  std::fputs(core::headline("world standard median", result.world_standard_ms, "ms", 1)
                 .c_str(),
             stdout);
  return 0;
}
