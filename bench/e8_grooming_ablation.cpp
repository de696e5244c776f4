// E8 (§3.2.2): nature vs nurture — ungroomed vs groomed anycast across PoP
// densities, with the per-iteration grooming trajectory.
#include <cstdio>
#include <string>

#include "bgpcmp/core/grooming_study.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/stats/table.h"
#include "../tools/flags.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  core::GroomingStudyConfig cfg;
  cfg.sample_clients =
      tools::bench_arg(argc, argv, "sample_clients", cfg.sample_clients);

  std::fputs(core::banner("E8: anycast grooming — nature vs nurture").c_str(),
             stdout);
  const std::size_t pop_counts[] = {10, 18, 26, 34};
  const auto result = core::run_grooming_study(
      core::ScenarioConfig::microsoft_like(), cfg, pop_counts);

  stats::Table table{{"PoPs", "steps", "ungroomed mean gap", "groomed mean gap",
                      "ungroomed <=10ms", "groomed <=10ms", "ungroomed >=50ms",
                      "groomed >=50ms"}};
  for (const auto& row : result.rows) {
    table.add_row({std::to_string(row.pop_count), std::to_string(row.grooming_steps),
                   stats::fmt(row.ungroomed.mean_gap_ms, 2) + " ms",
                   stats::fmt(row.groomed.mean_gap_ms, 2) + " ms",
                   stats::fmt(100.0 * row.ungroomed.frac_within_10ms, 1) + "%",
                   stats::fmt(100.0 * row.groomed.frac_within_10ms, 1) + "%",
                   stats::fmt(100.0 * row.ungroomed.frac_tail_50ms, 1) + "%",
                   stats::fmt(100.0 * row.groomed.frac_tail_50ms, 1) + "%"});
  }
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nGrooming trajectory (weighted mean anycast-vs-best-unicast gap, ms):\n",
             stdout);
  for (const auto& row : result.rows) {
    std::printf("  %2zu PoPs:", row.pop_count);
    for (const double gap : row.gap_by_iteration) std::printf(" %6.2f", gap);
    std::printf("\n");
  }
  std::fputs("\nReading: the ungroomed-vs-groomed delta is 'nurture'; the density\n"
             "sweep shows how much of anycast quality the footprint ('nature')\n"
             "provides before any operator intervention.\n",
             stdout);
  return 0;
}
