// The streamed and the one-chunk (run_pop_study) runs of Study 1: same world,
// same config, bit-equal results, both pinned to golden values. Chunking,
// chunk size, and process boundaries must be invisible in the bytes.
#include "bgpcmp/core/scale_study.h"

#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <string>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/study_pop.h"
#include "../testutil.h"

namespace bgpcmp::core {
namespace {

PopStudyConfig short_study() {
  PopStudyConfig cfg;
  cfg.days = 0.25;       // six 15-minute windows
  cfg.window_stride = 3;  // keep two of them
  return cfg;
}

void append_raw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

/// Every field of every measured series, raw, in study order: a digest match
/// means the eager study's output is bit-for-bit unchanged.
std::uint64_t series_bytes_digest(const PopStudyResult& result) {
  std::string out;
  for (const PopPrefixSeries& s : result.series) {
    append_raw(out, &s.pop, sizeof s.pop);
    append_raw(out, &s.prefix, sizeof s.prefix);
    for (const EgressRouteInfo& r : s.routes) {
      append_raw(out, &r.neighbor, sizeof r.neighbor);
      append_raw(out, &r.role, sizeof r.role);
      append_raw(out, &r.kind, sizeof r.kind);
      append_raw(out, &r.link, sizeof r.link);
      append_raw(out, &r.as_path_len, sizeof r.as_path_len);
    }
    append_raw(out, s.volume.data(), s.volume.size() * sizeof(float));
    for (const auto& medians : s.medians) {
      append_raw(out, medians.data(), medians.size() * sizeof(float));
    }
    append_raw(out, s.ci_lower.data(), s.ci_lower.size() * sizeof(float));
    append_raw(out, s.ci_upper.data(), s.ci_upper.size() * sizeof(float));
  }
  return fnv1a64(out);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Golden values of Study 1 on the small world with short_study(), recorded
// when run_pop_study still ran its own warm/plan/measure loop: the series
// bytes, the Fig-1 quantiles at kQuantiles, the improvable fraction at
// kThresholds, and the streaming fingerprint at chunk_origins=16. Both
// drivers must keep reproducing them.
constexpr double kQuantiles[] = {0.05, 0.25, 0.5, 0.75, 0.95};
constexpr double kThresholds[] = {0.0, 2.0, 5.0};
constexpr std::uint64_t kSeriesDigest = 0xd05b26b33ea565f7ULL;
constexpr std::uint64_t kQuantileBits[] = {
    0xc030a1c740000000ULL, 0xbff322b600000000ULL, 0xbfd96a5000000000ULL,
    0xbfaa5e0000000000ULL, 0x4040868340000000ULL};
constexpr std::uint64_t kImprovableBits[] = {
    0x3fcd05c62c1a4bc9ULL, 0x3fb35d7b9435be6dULL, 0x3fafca2e15ea579eULL};
constexpr std::uint64_t kScaleFingerprint16 = 0x35e4ec7a37e7c045ULL;

TEST(ScaleStudy, BitEqualToEagerStudy) {
  const auto cfg = test::small_scenario_config();
  const auto scenario = Scenario::make(cfg);
  const auto eager = run_pop_study(*scenario, short_study());
  EXPECT_EQ(series_bytes_digest(eager), kSeriesDigest);

  const auto world = ScaleWorld::make(cfg);
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 16;
  const auto streamed = run_scale_study(*world, scfg);
  EXPECT_EQ(streamed.fingerprint(), kScaleFingerprint16);

  ASSERT_EQ(streamed.windows.size(), eager.windows.size());
  EXPECT_EQ(streamed.pair_count(), eager.series.size());

  // Identical observations in identical order: quantiles and the headline
  // fraction are bit-equal, not merely close.
  const auto eager_cdf = eager.fig1_cdf();
  const auto stream_cdf = streamed.fig1_cdf();
  ASSERT_EQ(stream_cdf.count(), eager_cdf.count());
  EXPECT_EQ(stream_cdf.total_weight(), eager_cdf.total_weight());
  for (std::size_t i = 0; i < std::size(kQuantiles); ++i) {
    const double q = kQuantiles[i];
    EXPECT_EQ(bits(eager_cdf.quantile(q)), kQuantileBits[i]) << "q=" << q;
    EXPECT_EQ(bits(stream_cdf.quantile(q)), kQuantileBits[i]) << "q=" << q;
  }
  for (std::size_t i = 0; i < std::size(kThresholds); ++i) {
    const double threshold = kThresholds[i];
    EXPECT_EQ(bits(eager.improvable_traffic_fraction(threshold)), kImprovableBits[i])
        << "threshold=" << threshold;
    EXPECT_EQ(bits(streamed.improvable_traffic_fraction(threshold)), kImprovableBits[i])
        << "threshold=" << threshold;
  }
}

TEST(ScaleStudy, ChunkSizeNeverChangesTheResult) {
  const auto cfg = test::small_scenario_config();
  const auto world = ScaleWorld::make(cfg);
  ScaleStudyConfig a;
  a.study = short_study();
  a.chunk_origins = 4;
  ScaleStudyConfig b = a;
  b.chunk_origins = 1000;  // the whole world in one chunk
  const auto ra = run_scale_study(*world, a);
  const auto rb = run_scale_study(*world, b);
  EXPECT_GT(ra.chunks.size(), rb.chunks.size());
  EXPECT_EQ(ra.pair_count(), rb.pair_count());
  const auto ca = ra.fig1_cdf();
  const auto cb = rb.fig1_cdf();
  ASSERT_EQ(ca.count(), cb.count());
  EXPECT_EQ(ca.quantile(0.5), cb.quantile(0.5));
  EXPECT_EQ(ra.improvable_traffic_fraction(2.0), rb.improvable_traffic_fraction(2.0));
}

TEST(ScaleStudy, ChunksComputeIdenticallyInIsolation) {
  // The shard property: a worker that skips straight to chunk 2 produces the
  // same bytes as the serial run that walked chunks 0 and 1 first.
  const auto cfg = test::small_scenario_config();
  const auto world = ScaleWorld::make(cfg);
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 16;
  const auto serial = run_scale_study(*world, scfg);
  ASSERT_GT(serial.chunks.size(), 2u);

  const auto windows = study_windows(scfg.study);
  const traffic::ClientStream stream{&world->internet, world->config.clients,
                                     scfg.chunk_origins};
  traffic::DemandStream cursor{world->config.demand};
  cursor.skip(stream.chunk_prefix_range(2).first);
  const auto isolated = run_scale_chunk(*world, scfg, windows, stream, cursor, 2);
  EXPECT_EQ(isolated.series_digest, serial.chunks[2].series_digest);
  EXPECT_EQ(isolated.pairs, serial.chunks[2].pairs);
  EXPECT_EQ(isolated.line(), serial.chunks[2].line());
  ASSERT_EQ(isolated.fig1.size(), serial.chunks[2].fig1.size());
  for (std::size_t i = 0; i < isolated.fig1.size(); ++i) {
    EXPECT_EQ(isolated.fig1[i].value, serial.chunks[2].fig1[i].value);
    EXPECT_EQ(isolated.fig1[i].weight, serial.chunks[2].fig1[i].weight);
  }
}

TEST(ScaleStudy, FingerprintIsDeterministic) {
  const auto cfg = test::small_scenario_config();
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 16;
  const auto r1 = run_scale_study(*ScaleWorld::make(cfg), scfg);
  const auto r2 = run_scale_study(*ScaleWorld::make(cfg), scfg);
  EXPECT_EQ(r1.fingerprint(), r2.fingerprint());
  EXPECT_NE(r1.fingerprint(), 0u);
}

TEST(ScaleWorld, AdoptMatchesMake) {
  const auto cfg = test::small_scenario_config();
  const auto made = ScaleWorld::make(cfg);
  const auto adopted = ScaleWorld::adopt(cfg, topo::build_internet(cfg.internet));
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 32;
  EXPECT_EQ(run_scale_study(*made, scfg).fingerprint(),
            run_scale_study(*adopted, scfg).fingerprint());
}

}  // namespace
}  // namespace bgpcmp::core
