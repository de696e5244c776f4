// Deterministic sharding logic (core/shard.h): partitioning, the chunk
// codec, and the merge — everything the multi-process harnesses rely on,
// exercised without spawning a process.
#include "bgpcmp/core/shard.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "../testutil.h"

namespace bgpcmp::core {
namespace {

TEST(ShardRange, TilesExactlyForAnyShardCount) {
  for (const std::size_t count : {0ul, 1ul, 7ul, 16ul, 103ul}) {
    for (const int shards : {1, 2, 3, 8, 64}) {
      std::size_t covered = 0;
      std::size_t max_size = 0;
      std::size_t min_size = count + 1;
      for (int i = 0; i < shards; ++i) {
        const auto range = shard_range(count, shards, i);
        EXPECT_EQ(range.begin, covered) << count << "/" << shards << "#" << i;
        covered = range.end;
        max_size = std::max(max_size, range.size());
        min_size = std::min(min_size, range.size());
      }
      EXPECT_EQ(covered, count);
      // Balanced: block sizes differ by at most one.
      EXPECT_LE(max_size - min_size, 1u) << count << "/" << shards;
    }
  }
}

TEST(ShardRange, RejectsBadIndices) {
  ScopedCheckThrows throws;
  EXPECT_THROW((void)shard_range(10, 0, 0), CheckError);
  EXPECT_THROW((void)shard_range(10, 4, 4), CheckError);
  EXPECT_THROW((void)shard_range(10, 4, -1), CheckError);
}

TEST(MergeFingerprint, DependsOnOrderAndContent) {
  const std::vector<std::string> a{"alpha 1", "beta 2"};
  const std::vector<std::string> b{"beta 2", "alpha 1"};
  const std::vector<std::string> c{"alpha 1", "beta 3"};
  EXPECT_NE(merge_fingerprint(a), merge_fingerprint(b));
  EXPECT_NE(merge_fingerprint(a), merge_fingerprint(c));
  EXPECT_EQ(merge_fingerprint(a), merge_fingerprint({a.begin(), a.end()}));
}

ScaleChunkResult sample_chunk(std::uint32_t id) {
  ScaleChunkResult chunk;
  chunk.chunk = id;
  chunk.pairs = 3;
  chunk.series_digest = 0xdeadbeefcafef00dULL + id;
  // Values a text codec gets wrong unless it round-trips exactly.
  chunk.fig1.push_back({0.1, 1.0e9});
  chunk.fig1.push_back({-3.0000000000000004, 7.25});
  chunk.fig1.push_back({1.0 / 3.0, 2.2250738585072014e-308});
  return chunk;
}

TEST(ChunkCodec, RoundTripsBitExactly) {
  const auto original = sample_chunk(5);
  const auto decoded = decode_scale_chunks(encode_scale_chunk(original));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].chunk, original.chunk);
  EXPECT_EQ(decoded[0].pairs, original.pairs);
  EXPECT_EQ(decoded[0].series_digest, original.series_digest);
  ASSERT_EQ(decoded[0].fig1.size(), original.fig1.size());
  for (std::size_t i = 0; i < original.fig1.size(); ++i) {
    EXPECT_EQ(decoded[0].fig1[i].value, original.fig1[i].value) << i;
    EXPECT_EQ(decoded[0].fig1[i].weight, original.fig1[i].weight) << i;
  }
  EXPECT_EQ(decoded[0].line(), original.line());
}

TEST(ChunkCodec, DecodesConcatenatedStreams) {
  const std::string text =
      encode_scale_chunk(sample_chunk(0)) + encode_scale_chunk(sample_chunk(1));
  const auto decoded = decode_scale_chunks(text);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].chunk, 0u);
  EXPECT_EQ(decoded[1].chunk, 1u);
}

TEST(ChunkCodec, RejectsTruncatedInput) {
  std::string text = encode_scale_chunk(sample_chunk(0));
  text.resize(text.size() / 2);                  // cut mid-points
  text.resize(text.rfind('\n') + 1);             // keep line-structure valid
  ScopedCheckThrows throws;
  EXPECT_THROW((void)decode_scale_chunks(text), CheckError);
}

TEST(MergeScaleChunks, ReordersAndValidates) {
  std::vector<ScaleChunkResult> chunks;
  chunks.push_back(sample_chunk(2));
  chunks.push_back(sample_chunk(0));
  chunks.push_back(sample_chunk(1));
  const auto merged = merge_scale_chunks(std::move(chunks), 3, {});
  ASSERT_EQ(merged.chunks.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(merged.chunks[c].chunk, c);
  EXPECT_NE(merged.fingerprint(), 0u);
}

TEST(MergeScaleChunks, RejectsMissingChunk) {
  std::vector<ScaleChunkResult> chunks;
  chunks.push_back(sample_chunk(0));
  chunks.push_back(sample_chunk(2));
  ScopedCheckThrows throws;
  EXPECT_THROW((void)merge_scale_chunks(std::move(chunks), 3, {}), CheckError);
}

/// A worker output naming a `chunk_count`-chunk stream and carrying `ids`.
std::string worker_output(std::size_t chunk_count, std::vector<std::uint32_t> ids) {
  std::string out = "stream " + std::to_string(chunk_count) + " chunks\n";
  for (const std::uint32_t id : ids) out += encode_scale_chunk(sample_chunk(id));
  return out;
}

TEST(MergeScaleShards, MergesWorkerOutputsInAnyOrder) {
  const std::vector<std::string> outputs{worker_output(3, {2}),
                                         worker_output(3, {0, 1})};
  const auto merged = merge_scale_shards(outputs, {});
  ASSERT_EQ(merged.chunks.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(merged.chunks[c].chunk, c);
}

TEST(MergeScaleShards, RejectsLostTailChunks) {
  // The last worker owned chunks 2 and 3 but its file ends cleanly after
  // chunk 2: every chunk present is well-formed and the ids are contiguous,
  // so only the stream's declared chunk count can catch the loss.
  const std::vector<std::string> outputs{worker_output(4, {0, 1}),
                                         worker_output(4, {2})};
  ScopedCheckThrows throws;
  EXPECT_THROW((void)merge_scale_shards(outputs, {}), CheckError);
}

TEST(MergeScaleShards, RejectsMissingOrDisagreeingHeaders) {
  ScopedCheckThrows throws;
  const std::vector<std::string> headless{encode_scale_chunk(sample_chunk(0))};
  EXPECT_THROW((void)merge_scale_shards(headless, {}), CheckError);
  const std::vector<std::string> disagree{worker_output(2, {0}),
                                          worker_output(3, {1, 2})};
  EXPECT_THROW((void)merge_scale_shards(disagree, {}), CheckError);
  EXPECT_THROW((void)merge_scale_shards({}, {}), CheckError);
}

TEST(ShardedStudy, BlocksMergeToTheSerialResult) {
  // The full multi-process contract, minus the processes: run the study's
  // chunks as N contiguous blocks (fresh stream and cursor per block, like a
  // worker), encode/decode across the "boundary", merge, and compare bytes.
  const auto cfg = test::small_scenario_config();
  const auto world = ScaleWorld::make(cfg);
  ScaleStudyConfig scfg;
  scfg.study.days = 0.25;
  scfg.study.window_stride = 3;
  scfg.chunk_origins = 16;
  const auto serial = run_scale_study(*world, scfg);
  const auto windows = study_windows(scfg.study);

  for (const int shards : {1, 2, 3}) {
    std::vector<std::string> outputs;
    for (int w = 0; w < shards; ++w) {
      std::ostringstream out;
      run_scale_shard(*world, scfg, shards, w, out);
      outputs.push_back(std::move(out).str());
    }
    const auto merged = merge_scale_shards(outputs, windows);
    EXPECT_EQ(merged.fingerprint(), serial.fingerprint()) << shards << " shards";
    EXPECT_EQ(merged.improvable_traffic_fraction(2.0),
              serial.improvable_traffic_fraction(2.0))
        << shards << " shards";
  }
}

}  // namespace
}  // namespace bgpcmp::core
