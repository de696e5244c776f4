#include "bgpcmp/core/serving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "bgpcmp/core/snapshot.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::core {
namespace {

std::string tmp_path(const char* name) {
  return std::string{::testing::TempDir()} + name;
}

/// A small world so each test builds in well under a second.
ScenarioConfig small_config(std::uint64_t seed = 11) {
  ScenarioConfig cfg;
  cfg.internet.seed = seed;
  cfg.internet.tier1_count = 6;
  cfg.internet.transit_count = 20;
  cfg.internet.eyeball_count = 40;
  cfg.internet.stub_count = 20;
  cfg.provider.pop_count = 8;
  return cfg;
}

ServingConfig small_serving() {
  ServingConfig serving;
  serving.warm_origins = 12;
  return serving;
}

TEST(ServingWorld, LoadedWorldAnswersByteIdenticallyToFresh) {
  const auto cfg = small_config();
  const auto fresh = ServingWorld::build(cfg, small_serving());
  const auto path = tmp_path("serving_roundtrip.snap");
  fresh->save(path);
  // kFull re-pins the materialized world against the stored fingerprint on
  // top of the payload-hash tier every load performs.
  const auto loaded = ServingWorld::load(path, cfg, topo::SnapshotVerify::kFull);

  ASSERT_EQ(loaded->warmed().size(), fresh->warmed().size());
  EXPECT_EQ(topo::internet_fingerprint(loaded->scenario().internet),
            topo::internet_fingerprint(fresh->scenario().internet));

  const auto queries = fresh->generate_queries(60, /*seed=*/5);
  const QueryServer a{fresh.get(), &exec::global_pool()};
  const QueryServer b{loaded.get(), &exec::global_pool()};
  const auto fresh_answers = a.answer_batch(queries);
  const auto loaded_answers = b.answer_batch(queries);
  EXPECT_EQ(fresh_answers, loaded_answers);
  EXPECT_EQ(answers_digest(fresh_answers), answers_digest(loaded_answers));
}

TEST(ServingWorld, BatchAnswersAreWidthInvariant) {
  const auto world = ServingWorld::build(small_config(), small_serving());
  const auto queries = world->generate_queries(48, /*seed=*/7);
  exec::ThreadPool one{1};
  exec::ThreadPool eight{8};
  // Odd chunk sizes exercise the truncated-final-chunk path at both widths.
  const QueryServer serial{world.get(), &one, /*chunk=*/5};
  const QueryServer wide{world.get(), &eight, /*chunk=*/3};
  EXPECT_EQ(serial.answer_batch(queries), wide.answer_batch(queries));
}

TEST(ServingWorld, EgressQueriesDrawOnlyWarmedOrigins) {
  const auto world = ServingWorld::build(small_config(), small_serving());
  const auto queries = world->generate_queries(90, /*seed=*/3);
  const auto warmed = world->warmed();
  std::size_t egress = 0;
  for (const Query& q : queries) {
    if (q.kind != Query::Kind::Egress) continue;
    ++egress;
    const auto origin = world->scenario().clients.at(q.prefix).origin_as;
    EXPECT_NE(std::find(warmed.begin(), warmed.end(), origin), warmed.end())
        << "egress query targets unwarmed origin " << origin;
  }
  EXPECT_EQ(egress, 30u);  // kinds round-robin over three values
}

TEST(ServingWorld, QueryGenerationIsSeedDeterministic) {
  const auto world = ServingWorld::build(small_config(), small_serving());
  const auto a = world->generate_queries(30, /*seed=*/9);
  const auto b = world->generate_queries(30, /*seed=*/9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    EXPECT_EQ(a[i].t, b[i].t);
  }
  const auto c = world->generate_queries(30, /*seed=*/10);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (a[i].prefix != c[i].prefix || a[i].t != c[i].t) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "different seeds produced the same query stream";
}

TEST(ServingSnapshot, LoadRejectsAMismatchedConfig) {
  const auto cfg = small_config();
  const auto world = ServingWorld::build(cfg, small_serving());
  const auto path = tmp_path("serving_wrong_config.snap");
  world->save(path);

  ScopedCheckThrows guard;
  auto other_seed = small_config(/*seed=*/12);
  EXPECT_THROW((void)ServingWorld::load(path, other_seed), CheckError);
  auto other_knob = cfg;
  other_knob.demand.zipf_exponent += 0.1;
  EXPECT_THROW((void)ServingWorld::load(path, other_knob), CheckError);
}

TEST(ServingSnapshot, SavedBytesAreDeterministic) {
  const auto cfg = small_config();
  const auto path_a = tmp_path("serving_det_a.snap");
  const auto path_b = tmp_path("serving_det_b.snap");
  ServingWorld::build(cfg, small_serving())->save(path_a);
  ServingWorld::build(cfg, small_serving())->save(path_b);
  std::ifstream a(path_a, std::ios::binary);
  std::ifstream b(path_b, std::ios::binary);
  const std::string bytes_a{std::istreambuf_iterator<char>(a), {}};
  const std::string bytes_b{std::istreambuf_iterator<char>(b), {}};
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrite the little-endian integer of `width` bytes at `off`.
void patch_le(std::string& bytes, std::size_t off, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[off + static_cast<std::size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Save a serving snapshot, set `field` (0: next_hop, 1: via_edge) of the
/// last transit-learned row of its last table to `value`, and re-seal the
/// payload hash (header: payload_hash u64 @40), so the load gets past the
/// integrity gate and into the table decoder.
void corrupt_last_route(const std::string& path, int field, std::uint32_t value) {
  ServingWorld::build(small_config(), small_serving())->save(path);
  std::string bytes = file_bytes(path);
  // Tables close the payload; each row is cls u8, length u16, next_hop u32,
  // via_edge u32.
  constexpr std::size_t kRow = 11;
  std::size_t row = bytes.size() - kRow;
  while (static_cast<bgp::RouteClass>(bytes[row]) == bgp::RouteClass::None ||
         static_cast<bgp::RouteClass>(bytes[row]) == bgp::RouteClass::Origin) {
    row -= kRow;
  }
  patch_le(bytes, row + 3 + 4 * static_cast<std::size_t>(field), value, 4);
  patch_le(bytes, 40, topo::snapshot_hash(bytes.substr(topo::kSnapshotHeaderSize)), 8);
  write_bytes(path, bytes);
}

void expect_load_fails_with(const std::string& path, const std::string& message) {
  ScopedCheckThrows guard;
  try {
    (void)ServingWorld::load(path, small_config());
    FAIL() << "a corrupted route table was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find(message), std::string::npos) << e.what();
  }
}

TEST(ServingSnapshot, LoadRejectsAnOutOfRangeNextHop) {
  const auto path = tmp_path("serving_bad_next_hop.snap");
  corrupt_last_route(path, 0, 0x7fffffffu);
  expect_load_fails_with(path, "snapshot route next hop out of range");
  // kNoAs is the unreachable marker, not a valid hop on a transit-learned row.
  corrupt_last_route(path, 0, topo::kNoAs);
  expect_load_fails_with(path, "snapshot route next hop out of range");
}

TEST(ServingSnapshot, LoadRejectsAnOutOfRangeEdge) {
  const auto path = tmp_path("serving_bad_edge.snap");
  corrupt_last_route(path, 1, topo::kNoEdge);
  expect_load_fails_with(path, "snapshot route edge out of range");
}

// Every config section must flow into the fingerprint, else a snapshot taken
// under one config could silently serve another (snapshot.h names this test).
TEST(ServingSnapshotTest, FingerprintCoversEveryConfigSection) {
  const auto base = small_config();
  const auto fp = scenario_config_fingerprint(base);

  auto internet = base;
  internet.internet.seed ^= 1;
  EXPECT_NE(scenario_config_fingerprint(internet), fp);
  auto provider = base;
  provider.provider.pop_count += 1;
  EXPECT_NE(scenario_config_fingerprint(provider), fp);
  auto clients = base;
  clients.clients.prefixes_per_eyeball_city += 1;
  EXPECT_NE(scenario_config_fingerprint(clients), fp);
  auto demand = base;
  demand.demand.zipf_exponent += 0.05;
  EXPECT_NE(scenario_config_fingerprint(demand), fp);
  auto congestion = base;
  congestion.congestion.queue_scale_ms += 0.5;
  EXPECT_NE(scenario_config_fingerprint(congestion), fp);
  auto latency = base;
  latency.latency.per_hop_processing_ms += 0.1;
  EXPECT_NE(scenario_config_fingerprint(latency), fp);
}

}  // namespace
}  // namespace bgpcmp::core
