#include "bgpcmp/core/scale_study.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::core {

namespace {

void append_raw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

/// Canonical bytes of one measured series: every field, raw, so the digest
/// pins the series bit-for-bit across chunk sizes, shard counts, and
/// processes.
void append_series(std::string& out, const PopPrefixSeries& s) {
  append_raw(out, &s.pop, sizeof s.pop);
  append_raw(out, &s.prefix, sizeof s.prefix);
  for (const EgressRouteInfo& r : s.routes) {
    append_raw(out, &r.neighbor, sizeof r.neighbor);
    append_raw(out, &r.role, sizeof r.role);
    append_raw(out, &r.kind, sizeof r.kind);
    append_raw(out, &r.link, sizeof r.link);
    append_raw(out, &r.as_path_len, sizeof r.as_path_len);
  }
  if (!s.volume.empty()) {
    append_raw(out, s.volume.data(), s.volume.size() * sizeof(float));
  }
  for (const auto& route_medians : s.medians) {
    append_raw(out, route_medians.data(), route_medians.size() * sizeof(float));
  }
  if (!s.ci_lower.empty()) {
    append_raw(out, s.ci_lower.data(), s.ci_lower.size() * sizeof(float));
    append_raw(out, s.ci_upper.data(), s.ci_upper.size() * sizeof(float));
  }
}

}  // namespace

std::string ScaleChunkResult::line() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "chunk %" PRIu32 " pairs %" PRIu32
                                 " digest %016" PRIx64 " points %zu",
                chunk, pairs, series_digest, fig1.size());
  return buf;
}

ScaleChunkResult run_scale_chunk(const ScaleWorld& world,
                                 const ScaleStudyConfig& config,
                                 const std::vector<TimeWindow>& windows,
                                 const traffic::ClientStream& stream,
                                 traffic::DemandStream& demand, std::size_t chunk) {
  const traffic::ClientChunk window = stream.chunk(chunk);
  const auto series = run_pop_pairs(world, config.study, windows, window.prefixes,
                                    window.first_prefix, demand.next(window));

  ScaleChunkResult out;
  out.chunk = static_cast<std::uint32_t>(chunk);
  out.pairs = static_cast<std::uint32_t>(series.size());
  std::string bytes;
  for (const PopPrefixSeries& s : series) append_series(bytes, s);
  out.series_digest = fnv1a64(bytes);
  out.fig1 = fig1_points(series, windows.size());
  return out;
}

ScaleStudyResult run_scale_study(const ScaleWorld& world,
                                 const ScaleStudyConfig& config) {
  ScaleStudyResult result;
  result.windows = study_windows(config.study);
  const traffic::ClientStream stream{&world.internet, world.config.clients,
                                     config.chunk_origins};
  traffic::DemandStream demand{world.config.demand};
  result.chunks.reserve(stream.chunk_count());
  for (std::size_t c = 0; c < stream.chunk_count(); ++c) {
    result.chunks.push_back(
        run_scale_chunk(world, config, result.windows, stream, demand, c));
  }
  return result;
}

stats::WeightedCdf ScaleStudyResult::fig1_cdf() const {
  stats::WeightedCdf cdf;
  for (const auto& chunk : chunks) cdf.add_all(chunk.fig1);
  return cdf;
}

double ScaleStudyResult::improvable_traffic_fraction(double threshold_ms) const {
  // Chunk by chunk in global pair order: the identical addition sequence to
  // PopStudyResult::improvable_traffic_fraction.
  ImprovableFold fold{threshold_ms};
  for (const auto& chunk : chunks) fold.add(chunk.fig1);
  return fold.fraction();
}

std::uint64_t ScaleStudyResult::fingerprint() const {
  std::string joined;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    BGPCMP_CHECK_EQ(chunks[c].chunk, c, "scale study chunks out of order");
    joined += chunks[c].line();
    joined += '\n';
  }
  return fnv1a64(joined);
}

std::size_t ScaleStudyResult::pair_count() const {
  std::size_t pairs = 0;
  for (const auto& chunk : chunks) pairs += chunk.pairs;
  return pairs;
}

}  // namespace bgpcmp::core
