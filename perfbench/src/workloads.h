// The four benchmark workloads. Each runs in its own process on the global
// pool at the width main() sets, builds its inputs from the seed, times only
// its calls into the model's public functions, and verifies every output it
// times. perfbench/README.md says why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgpcmp/core/scale_study.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;     ///< operation time to measure (at least min ops)
  bool trace = false;        ///< traced run: per-layer metrics instead of end-to-end
  int scale = 0;             ///< AS-count multiplier override; 0 keeps the workload's
  std::string snapshot;      ///< serve: snapshot file written before the run
  std::string trace_out;     ///< traced run: span file written when the run ends
};

/// The default scenario with every AS-class count multiplied by `scale`
/// (1x = 368 ASes), as bench/e20_scale.cpp and `bgpcmp --scale` build it.
[[nodiscard]] bgpcmp::core::ScenarioConfig scaled_config(int scale);

/// Set-up repeats until it has at least five samples and three seconds of
/// set-up time, at most 1000, so setup_s is a median of several samples at
/// every world size.
[[nodiscard]] inline bool want_another_setup(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 5 || (total < 3.0 && setup_s.size() < 1000);
}

struct StudyShape {
  int scale = 1;
  double days = 0.011;
  std::size_t chunk_origins = 256;
  int min_ops = 3;  ///< study calls per run, whatever --seconds says
};

/// Work counts of one traced study call.
struct StudyCounts {
  std::uint64_t prefixes = 0;
  std::uint64_t tables = 0;
  std::uint64_t planned = 0;
  std::uint64_t measurable = 0;
};

/// The study's inputs from the seed: the world (internet, provider) is the
/// fixed default at `shape.scale`; clients, demand and sampling come from the
/// seed.
[[nodiscard]] bgpcmp::core::ScenarioConfig study_world_config(const StudyShape& shape,
                                                              std::uint64_t seed);
[[nodiscard]] bgpcmp::core::ScaleStudyConfig study_config(const StudyShape& shape,
                                                          std::uint64_t seed);

/// ScaleWorld::make split into its two layers under `parent`: topology
/// generation, then the provider attach (ScaleWorld::adopt, which is what
/// make() runs after build_internet).
[[nodiscard]] std::unique_ptr<bgpcmp::core::ScaleWorld> traced_world(
    const bgpcmp::core::ScenarioConfig& config, Tracer& tracer, int parent);

/// run_scale_study re-driven from the same public calls run_scale_chunk
/// makes, with a span around each stage and each parallel work item. Its
/// chunks must be bit-equal to run_scale_study's.
[[nodiscard]] bgpcmp::core::ScaleStudyResult traced_scale_study(
    const bgpcmp::core::ScaleWorld& world, const bgpcmp::core::ScaleStudyConfig& config,
    Tracer& tracer, StudyCounts* counts);

/// Chunks of `got` that differ from `want` in pairs, digest or any fig1
/// observation (bit for bit); a missing or extra chunk counts as one.
[[nodiscard]] std::uint64_t chunk_mismatches(const bgpcmp::core::ScaleStudyResult& want,
                                             const bgpcmp::core::ScaleStudyResult& got);

[[nodiscard]] Outcome run_study(const Options& options, const StudyShape& shape);

/// Build the 10x serving world and save it to `path` (done in a separate
/// process before the serve run, so the build's memory and time stay out of
/// it).
void write_serving_snapshot(const std::string& path, int scale);
[[nodiscard]] Outcome run_serve(const Options& options, int scale);

[[nodiscard]] Outcome run_churn(const Options& options, int scale);

}  // namespace perfbench
