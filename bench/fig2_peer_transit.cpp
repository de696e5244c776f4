// E2 / Figure 2: does direct peering explain BGP's good performance?
// CDFs of (best peering - best transit) and (best private - best public peer)
// median MinRTT differences, traffic-weighted.
//
// Paper shape targets: both curves tightly centered on 0 — transits perform
// about as well as peers, and public-exchange peers about as well as PNIs.
#include <cstdio>
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

  std::fputs(core::banner("Figure 2: peering vs transit, private vs public exchange")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto result = core::run_pop_study(*scenario, study_cfg);

  const auto peer_transit = result.fig2_peer_vs_transit();
  const auto private_public = result.fig2_private_vs_public();

  std::printf("observations: peer-vs-transit %zu, private-vs-public %zu\n\n",
              peer_transit.count(), private_public.count());
  std::fputs("Cum. fraction of traffic vs median MinRTT difference (ms)\n"
             "negative = first class is faster\n\n",
             stdout);
  std::fputs(core::render_cdfs("diff_ms", {"peer_vs_transit", "private_vs_public"},
                               {&peer_transit, &private_public}, -10.0, 10.0, 21)
                 .c_str(),
             stdout);

  std::fputs("\nHeadlines:\n", stdout);
  std::fputs(core::headline("peer-vs-transit |diff| <= 2 ms share",
                            100.0 * (peer_transit.fraction_at_most(2.0) -
                                     peer_transit.fraction_at_most(-2.0)),
                            "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("private-vs-public |diff| <= 2 ms share",
                            100.0 * (private_public.fraction_at_most(2.0) -
                                     private_public.fraction_at_most(-2.0)),
                            "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("peer-vs-transit median diff", peer_transit.quantile(0.5),
                            "ms")
                 .c_str(),
             stdout);
  std::fputs(core::headline("private-vs-public median diff",
                            private_public.quantile(0.5), "ms")
                 .c_str(),
             stdout);

  if (const auto dir = core::csv_export_dir()) {
    core::write_series_csv(*dir + "/fig2.csv", "diff_ms",
                           {"peer_vs_transit", "private_vs_public"},
                           {&peer_transit, &private_public}, -10.0, 10.0, 81);
  }
  return 0;
}
