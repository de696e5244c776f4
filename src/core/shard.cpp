#include "bgpcmp/core/shard.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::core {

ShardRange shard_range(std::size_t count, int shards, int index) {
  BGPCMP_CHECK_GT(shards, 0, "shard count must be positive");
  BGPCMP_CHECK_GE(index, 0, "shard index must be non-negative");
  BGPCMP_CHECK_LT(index, shards, "shard index outside shard count");
  const std::size_t n = static_cast<std::size_t>(shards);
  const std::size_t i = static_cast<std::size_t>(index);
  const std::size_t base = count / n;
  const std::size_t extra = count % n;
  ShardRange range;
  range.begin = i * base + std::min(i, extra);
  range.end = range.begin + base + (i < extra ? 1 : 0);
  return range;
}

std::uint64_t merge_fingerprint(std::span<const std::string> lines) {
  std::string joined;
  for (const auto& line : lines) {
    joined += line;
    joined += '\n';
  }
  return fnv1a64(joined);
}

std::string encode_scale_chunk(const ScaleChunkResult& chunk) {
  std::string out = chunk.line();
  out += '\n';
  char buf[64];
  for (const auto& obs : chunk.fig1) {
    // Hexfloat: round-trips the doubles exactly, so a decoded merge is
    // byte-identical to the in-process result.
    std::snprintf(buf, sizeof buf, "p %a %a\n", obs.value, obs.weight);
    out += buf;
  }
  return out;
}

std::vector<ScaleChunkResult> decode_scale_chunks(std::string_view text) {
  std::vector<ScaleChunkResult> chunks;
  std::vector<std::uint64_t> declared_points;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    BGPCMP_CHECK(eol != std::string_view::npos, "unterminated shard chunk line");
    const std::string line{text.substr(pos, eol - pos)};
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == 'p') {
      BGPCMP_CHECK(!chunks.empty(), "shard point line before any chunk header");
      const char* s = line.c_str() + 1;
      char* next = nullptr;
      const double value = std::strtod(s, &next);
      BGPCMP_CHECK(next != s, "malformed shard point value: ", line);
      s = next;
      const double weight = std::strtod(s, &next);
      BGPCMP_CHECK(next != s, "malformed shard point weight: ", line);
      chunks.back().fig1.push_back({value, weight});
      continue;
    }
    ScaleChunkResult chunk;
    std::uint64_t points = 0;
    const int fields =
        std::sscanf(line.c_str(), "chunk %" SCNu32 " pairs %" SCNu32
                                  " digest %016" SCNx64 " points %" SCNu64,
                    &chunk.chunk, &chunk.pairs, &chunk.series_digest, &points);
    BGPCMP_CHECK_EQ(fields, 4, "malformed shard chunk header: ", line);
    chunk.fig1.reserve(points);
    chunks.push_back(std::move(chunk));
    declared_points.push_back(points);
  }
  // The header's point count doubles as a transport checksum: a truncated
  // worker file fails here instead of merging into a thinner study.
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    BGPCMP_CHECK_EQ(chunks[c].fig1.size(), declared_points[c],
                    "shard chunk point count mismatch, chunk ", chunks[c].chunk);
  }
  return chunks;
}

ScaleStudyResult merge_scale_chunks(std::vector<ScaleChunkResult> chunks,
                                    std::size_t chunk_count,
                                    std::vector<TimeWindow> windows) {
  std::sort(chunks.begin(), chunks.end(),
            [](const ScaleChunkResult& a, const ScaleChunkResult& b) {
              return a.chunk < b.chunk;
            });
  BGPCMP_CHECK_EQ(chunks.size(), chunk_count,
                  "sharded study lost or duplicated chunks");
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    BGPCMP_CHECK_EQ(chunks[c].chunk, c, "sharded study chunk ids not contiguous");
  }
  ScaleStudyResult result;
  result.windows = std::move(windows);
  result.chunks = std::move(chunks);
  return result;
}

void run_scale_shard(const ScaleWorld& world, const ScaleStudyConfig& config,
                     int shards, int worker, std::ostream& out) {
  const traffic::ClientStream stream{&world.internet, world.config.clients,
                                     config.chunk_origins};
  const auto windows = study_windows(config.study);
  const ShardRange range = shard_range(stream.chunk_count(), shards, worker);
  traffic::DemandStream cursor{world.config.demand};
  if (!range.empty()) cursor.skip(stream.chunk_prefix_range(range.begin).first);
  out << "stream " << stream.chunk_count() << " chunks\n";
  for (std::size_t c = range.begin; c < range.end; ++c) {
    out << encode_scale_chunk(
        run_scale_chunk(world, config, windows, stream, cursor, c));
  }
}

ScaleStudyResult merge_scale_shards(std::span<const std::string> outputs,
                                    std::vector<TimeWindow> windows) {
  std::vector<ScaleChunkResult> chunks;
  std::optional<std::size_t> chunk_count;
  for (const std::string& text : outputs) {
    std::size_t declared = 0;
    int eol = -1;
    const int fields =
        std::sscanf(text.c_str(), "stream %zu chunks%n", &declared, &eol);
    BGPCMP_CHECK(fields == 1 && eol > 0 && text[eol] == '\n',
                 "shard worker output without a stream header");
    BGPCMP_CHECK(!chunk_count || *chunk_count == declared,
                 "shard workers disagree on the stream's chunk count");
    chunk_count = declared;
    for (auto& chunk : decode_scale_chunks(std::string_view{text}.substr(eol + 1u))) {
      chunks.push_back(std::move(chunk));
    }
  }
  BGPCMP_CHECK(chunk_count.has_value(), "no shard worker outputs to merge");
  return merge_scale_chunks(std::move(chunks), *chunk_count, std::move(windows));
}

}  // namespace bgpcmp::core
