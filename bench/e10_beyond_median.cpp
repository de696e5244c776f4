// E10 (§4): beyond median performance — the improvable tail at multiple
// thresholds scaled to session counts, the upper quantiles of the Fig 1
// distribution, and the tier goodput ratio (the paper's 10 MB-download
// footnote).
#include <cstdio>
#include <string>

#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/study_wan.h"
#include "bgpcmp/core/tail.h"
#include "bgpcmp/measure/campaign.h"
#include "bgpcmp/stats/table.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  core::PopStudyConfig study_cfg;
  study_cfg.days = tools::bench_arg(argc, argv, "days", 3.0);

  std::fputs(core::banner("E10: beyond median performance").c_str(), stdout);
  auto scenario = core::Scenario::make();
  const auto study = core::run_pop_study(*scenario, study_cfg);

  // A short tier campaign for the goodput footnote.
  auto cloud_scenario = core::Scenario::make(core::ScenarioConfig::google_like());
  wan::CloudTiers tiers{&cloud_scenario->internet, &cloud_scenario->provider};
  measure::VantageFleet fleet{&cloud_scenario->clients};
  measure::CampaignConfig campaign_cfg;
  campaign_cfg.days = 3.0;
  measure::Campaign campaign{&tiers, &cloud_scenario->latency, &fleet,
                             &cloud_scenario->clients, campaign_cfg};
  Rng rng{9001};
  const auto samples = campaign.run(rng);

  const auto result = core::analyze_tail(study, samples);

  stats::Table table{{"threshold", "traffic improvable", "est. sessions (of 2e14)"}};
  for (const auto& row : result.rows) {
    char sessions[32];
    std::snprintf(sessions, sizeof(sessions), "%.2e", row.estimated_sessions);
    table.add_row({stats::fmt(row.threshold_ms, 0) + " ms",
                   stats::fmt(100.0 * row.traffic_fraction, 2) + "%", sessions});
  }
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nHeadlines:\n", stdout);
  std::fputs(core::headline("p95 of (BGP - best alternate)", result.p95_improvement_ms,
                            "ms")
                 .c_str(),
             stdout);
  std::fputs(core::headline("p99 of (BGP - best alternate)", result.p99_improvement_ms,
                            "ms")
                 .c_str(),
             stdout);
  std::fputs(core::headline("median goodput ratio premium/standard (paper: ~1, "
                            "'little difference')",
                            result.goodput_ratio_median, "x")
                 .c_str(),
             stdout);
  return 0;
}
