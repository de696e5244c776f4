// Study 1 as a stream of client chunks — the one Study-1 pipeline.
//
// Every Study-1 driver runs the same body, run_pop_pairs (core/study_pop.h):
// warm a RouteCache over a run of client prefixes' origins, plan and measure
// their <PoP, prefix> pairs. What differs is only how the prefixes arrive and
// what is kept:
//
//   * run_scale_study streams the client population chunk by chunk
//     (traffic::ClientStream) against a ScaleWorld (core/scenario.h), runs
//     the body per chunk, folds the pair series into Fig-1 points plus a
//     per-chunk digest, and drops everything before the next chunk. Peak
//     memory is bounded by the chunk size knob, never by the world.
//
//   * run_pop_study is the one-chunk run: the body over a Scenario's
//     resident client base (itself the single chunk of the same stream),
//     keeping every series for the Fig-2 and E6/E7/E10 analyses. Its Fig-1
//     quantiles and improvable fraction are bit-equal to the streamed ones
//     (tests/core/scale_study_test.cpp pins both against golden values).
//
//   * Per-chunk results are pure in (world, config, chunk) and carry a
//     canonical merge line, so chunks can run in different OS processes
//     (bgpcmp shard, core/shard.h) and merge back — in chunk order — into a
//     result byte-identical to the single-process run. fingerprint() is the
//     value the shard harness compares.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgpcmp/core/scenario.h"
#include "bgpcmp/netbase/thread_annotations.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/stats/cdf.h"
#include "bgpcmp/traffic/client_stream.h"

namespace bgpcmp::core {

struct ScaleStudyConfig {
  PopStudyConfig study;  ///< same knobs (and draws) as run_pop_study
  /// Origins per chunk: bounds the per-chunk RouteCache and client window.
  std::size_t chunk_origins = 256;
};

/// Everything one chunk of the stream contributes to the study.
struct ScaleChunkResult {
  std::uint32_t chunk = 0;
  std::uint32_t pairs = 0;          ///< measurable pairs (>= 2 routes)
  std::uint64_t series_digest = 0;  ///< FNV-1a over the chunk's series bytes
  /// Fig-1 observations (diff, volume) in pair-major, window-minor order —
  /// the same order PopStudyResult::fig1_cdf visits them.
  std::vector<stats::Weighted> fig1;

  /// Canonical one-line rendering; the shard merge fingerprint hashes these
  /// lines joined in chunk order.
  [[nodiscard]] std::string line() const;
};

struct ScaleStudyResult {
  std::vector<TimeWindow> windows;
  std::vector<ScaleChunkResult> chunks;  ///< global chunk order

  /// Fig 1 CDF over all chunks' observations, in PopStudyResult's visit order.
  [[nodiscard]] stats::WeightedCdf fig1_cdf() const;
  /// §3.1 headline, bit-equal to PopStudyResult::improvable_traffic_fraction
  /// on the same world (same additions in the same order).
  [[nodiscard]] double improvable_traffic_fraction(double threshold_ms) const;
  /// FNV-1a over the joined chunk lines: the sharded-vs-unsharded pin.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] std::size_t pair_count() const;
};

/// Run one chunk: run_pop_pairs over the chunk's prefixes, folded into fig1
/// points and a digest. The demand cursor must sit at the chunk's first
/// prefix (skip() to it); it is left at the chunk's end. Pure in (world,
/// config, windows, chunk) — chunk order, process boundaries, and thread
/// width never change the bytes — machine-checked as BGPCMP_PURE_CHUNK
/// (detlint D9/D10).
BGPCMP_PURE_CHUNK
[[nodiscard]] ScaleChunkResult run_scale_chunk(const ScaleWorld& world,
                                               const ScaleStudyConfig& config,
                                               const std::vector<TimeWindow>& windows,
                                               const traffic::ClientStream& stream,
                                               traffic::DemandStream& demand,
                                               std::size_t chunk);

/// Run the full streaming study in this process: all chunks in order, peak
/// memory bounded by config.chunk_origins.
[[nodiscard]] ScaleStudyResult run_scale_study(const ScaleWorld& world,
                                               const ScaleStudyConfig& config = {});

}  // namespace bgpcmp::core
