// E6 (§3.1.1): do all route options degrade together?
//
// Paper shape targets: (1) alternates usually match BGP's latency;
// (2) degradation windows on BGP's preferred path outnumber improvement
// opportunities; (3) most alternates that beat BGP do so persistently; and
// when the preferred path degrades, the alternates usually degrade too
// (shared destination-side congestion).
#include <cstdio>
#include <string>

#include "bgpcmp/core/degrade.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  core::PopStudyConfig study_cfg;
  study_cfg.days = tools::bench_arg(argc, argv, "days", study_cfg.days);

  std::fputs(core::banner("E6: degrade-together decomposition of the PoP study")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto study = core::run_pop_study(*scenario, study_cfg);
  const auto result = core::analyze_degrade(study);

  std::printf("<PoP,prefix> pairs analyzed: %zu over %zu windows\n\n", result.pairs,
              study.windows.size());
  std::fputs("Improvement-pattern split (traffic-weighted):\n", stdout);
  std::fputs(core::headline("no opportunity (alternates never help)",
                            100.0 * result.traffic_no_opportunity, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("persistent (an alternate is better nearly always)",
                            100.0 * result.traffic_persistent, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("transient (alternates help occasionally)",
                            100.0 * result.traffic_transient, "%")
                 .c_str(),
             stdout);
  std::fputs("\nDegradation vs opportunity:\n", stdout);
  std::fputs(core::headline("windows where the BGP route was degraded",
                            100.0 * result.degraded_window_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("windows where an alternate beat BGP by >= 5 ms",
                            100.0 * result.improvement_window_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("degraded windows where ALL alternates degraded too",
                            100.0 * result.degrade_together_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("improvable traffic mass from persistent pairs "
                            "(paper: most)",
                            100.0 * result.improvement_mass_persistent, "%")
                 .c_str(),
             stdout);
  return 0;
}
