// Canonical result-table rendering and hashing for the determinism audit.
//
// A scenario's "fingerprint" is the FNV-1a hash of every result table the
// substrate can emit for it — topology summary, a route-table dump, the
// anycast catchment, demand and latency samples, and (for
// FingerprintKind::Studies) scaled-down runs of the three paper studies. Two
// builds of the same config must render byte-identical tables; any
// divergence means model state leaked in from iteration order, uninitialized
// memory, wall-clock reads, or an unseeded RNG. tools/determinism_audit.cpp
// runs this over the whole registry and is the gate future parallelism PRs
// must keep green.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "bgpcmp/core/scenario.h"

namespace bgpcmp::core {

/// 64-bit FNV-1a over arbitrary bytes.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data);

/// What a fingerprint renders. Each scenario registry row names one.
enum class FingerprintKind {
  /// A full scenario's world tables (topology summary, provider routes,
  /// anycast catchment, demand and latency samples) plus scaled-down runs of
  /// the three paper studies: slower, deeper coverage.
  Studies,
  /// A full scenario's world tables only.
  World,
  /// Only the generated world: build_internet without a provider, clients,
  /// or studies. Exercises (and times) pure topology generation at scales
  /// where a full scenario would be too slow to audit.
  Topology,
  /// A churn run: warm a RouteCache over strided eyeball origins, drive
  /// deterministic event waves through the parallel reconverge path
  /// (bgp/churn.h), and emit per-wave stats plus final table digests. Puts
  /// the incremental re-convergence code under the same double-run /
  /// --compare-threads gate as everything else.
  Churn,
  /// A serving run: build a ServingWorld, save and reload it as a serving
  /// snapshot, then answer one query batch from the fresh and the loaded
  /// world (core/serving.h) and emit both digests plus sampled answers. A
  /// divergence — between runs, across --compare-threads widths, or between
  /// the fresh and loaded columns inside one run — pins down snapshot or
  /// batching nondeterminism.
  Serving,
};

/// Build a fresh world from `config` and render its canonical result tables.
[[nodiscard]] std::string render_result_tables(
    const ScenarioConfig& config, FingerprintKind kind = FingerprintKind::Studies);

/// fnv1a64 over render_result_tables.
[[nodiscard]] std::uint64_t scenario_fingerprint(
    const ScenarioConfig& config, FingerprintKind kind = FingerprintKind::Studies);

}  // namespace bgpcmp::core
