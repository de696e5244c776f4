// Golden pins of the client/demand generator (client_stream.h). The eager
// ClientBase/DemandModel and the concatenation of every chunk of the stream
// must reproduce the committed digests exactly — at the default 1x world and
// at 4x — for any chunk size, for chunks generated out of order, and for a
// demand cursor that skips into the middle of the stream.
#include "bgpcmp/traffic/client_stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::traffic {
namespace {

topo::Internet scaled_net(int scale) {
  topo::InternetConfig cfg;
  cfg.tier1_count *= scale;
  cfg.transit_count *= scale;
  cfg.eyeball_count *= scale;
  cfg.stub_count *= scale;
  return topo::build_internet(cfg);
}

void append_raw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

/// Canonical byte string of one client prefix: every field, raw bytes, so a
/// digest match means bit-for-bit equality (doubles included).
void append_prefix(std::string& out, const ClientPrefix& p) {
  const std::uint32_t net = p.prefix.network().bits();
  append_raw(out, &net, sizeof net);
  append_raw(out, &p.origin_as, sizeof p.origin_as);
  append_raw(out, &p.city, sizeof p.city);
  append_raw(out, &p.user_weight, sizeof p.user_weight);
  append_raw(out, &p.access.base_rtt_ms, sizeof p.access.base_rtt_ms);
}

std::uint64_t eager_digest(const ClientBase& clients, const DemandModel& demand) {
  std::string bytes;
  for (PrefixId i = 0; i < clients.size(); ++i) {
    append_prefix(bytes, clients.at(i));
    const double pop = demand.popularity(i);
    append_raw(bytes, &pop, sizeof pop);
  }
  return core::fnv1a64(bytes);
}

std::uint64_t streamed_digest(const topo::Internet& net, const ClientBaseConfig& ccfg,
                              const DemandConfig& dcfg, std::size_t chunk_origins) {
  const ClientStream stream{&net, ccfg, chunk_origins};
  DemandStream demand{dcfg};
  std::string bytes;
  for (std::size_t c = 0; c < stream.chunk_count(); ++c) {
    const ClientChunk chunk = stream.chunk(c);
    const auto popularity = demand.next(chunk);
    EXPECT_EQ(popularity.size(), chunk.prefixes.size()) << "chunk " << c;
    for (std::size_t i = 0; i < chunk.prefixes.size(); ++i) {
      append_prefix(bytes, chunk.prefixes[i]);
      append_raw(bytes, &popularity[i], sizeof popularity[i]);
    }
  }
  return core::fnv1a64(bytes);
}

// Golden digests of every client prefix and its popularity at the default
// configs, recorded when ClientBase/DemandModel still had their own draw
// loops. Both the eager objects and every chunking of the stream must keep
// reproducing them.
constexpr std::uint64_t kClientDigest1x = 0x4d3eaf0a7825a9b9ULL;
constexpr std::uint64_t kClientDigest4x = 0x126703f772a9acc1ULL;

TEST(ClientStream, ByteIdenticalToEagerAt1x) {
  const auto net = scaled_net(1);
  const ClientBaseConfig ccfg;
  const DemandConfig dcfg;
  const auto clients = ClientBase::generate(net, ccfg);
  const DemandModel demand{&clients, net.cities, dcfg};
  EXPECT_EQ(eager_digest(clients, demand), kClientDigest1x);
  // Several chunk sizes, including one so large the stream is a single chunk
  // and one so small every origin is its own chunk.
  for (const std::size_t chunk_origins : {1ul, 7ul, 64ul, 100000ul}) {
    EXPECT_EQ(streamed_digest(net, ccfg, dcfg, chunk_origins), kClientDigest1x)
        << "chunk_origins=" << chunk_origins;
  }
}

TEST(ClientStream, ByteIdenticalToEagerAt4x) {
  const auto net = scaled_net(4);
  const ClientBaseConfig ccfg;
  const DemandConfig dcfg;
  const auto clients = ClientBase::generate(net, ccfg);
  const DemandModel demand{&clients, net.cities, dcfg};
  EXPECT_EQ(eager_digest(clients, demand), kClientDigest4x);
  EXPECT_EQ(streamed_digest(net, ccfg, dcfg, 256), kClientDigest4x);
}

TEST(ClientStream, MaxChunkOriginsIsOneWholeChunk) {
  // The chunk count must not wrap when chunk_origins is near SIZE_MAX: the
  // stream is then a single chunk holding the whole client base.
  const auto net = scaled_net(1);
  const ClientBaseConfig ccfg;
  const ClientStream stream{&net, ccfg, SIZE_MAX};
  ASSERT_EQ(stream.chunk_count(), 1u);
  EXPECT_EQ(stream.chunk(0).prefixes.size(), stream.total_prefixes());
  EXPECT_EQ(streamed_digest(net, ccfg, DemandConfig{}, SIZE_MAX), kClientDigest1x);
}

TEST(ClientStream, RejectsZeroChunkOrigins) {
  const auto net = scaled_net(1);
  ScopedCheckThrows throws;
  EXPECT_THROW((ClientStream{&net, ClientBaseConfig{}, 0}), CheckError);
}

TEST(ClientStream, TotalsMatchEagerCount) {
  const auto net = scaled_net(1);
  const ClientBaseConfig ccfg;
  const auto clients = ClientBase::generate(net, ccfg);
  const ClientStream stream{&net, ccfg, 64};
  EXPECT_EQ(stream.total_prefixes(), clients.size());
  EXPECT_EQ(stream.origin_count(), net.eyeballs.size() + net.stubs.size());
  // Chunk prefix ranges tile [0, total) exactly.
  std::size_t covered = 0;
  for (std::size_t c = 0; c < stream.chunk_count(); ++c) {
    const auto [first, count] = stream.chunk_prefix_range(c);
    EXPECT_EQ(first, covered);
    covered += count;
  }
  EXPECT_EQ(covered, stream.total_prefixes());
}

TEST(ClientStream, ChunksArePureAndOrderIndependent) {
  const auto net = scaled_net(1);
  const ClientStream stream{&net, ClientBaseConfig{}, 16};
  ASSERT_GT(stream.chunk_count(), 3u);
  // Generating chunk 3 in isolation equals generating it after 0..2.
  const ClientChunk alone = stream.chunk(3);
  for (std::size_t c = 0; c < 3; ++c) (void)stream.chunk(c);
  const ClientChunk after = stream.chunk(3);
  ASSERT_EQ(alone.prefixes.size(), after.prefixes.size());
  EXPECT_EQ(alone.first_prefix, after.first_prefix);
  for (std::size_t i = 0; i < alone.prefixes.size(); ++i) {
    EXPECT_EQ(alone.prefixes[i].prefix, after.prefixes[i].prefix);
    EXPECT_DOUBLE_EQ(alone.prefixes[i].user_weight, after.prefixes[i].user_weight);
  }
}

TEST(ClientStream, ChunkOriginAsesMatchGeneratedPrefixOrigins) {
  const auto net = scaled_net(1);
  const ClientStream stream{&net, ClientBaseConfig{}, 32};
  for (std::size_t c = 0; c < stream.chunk_count(); ++c) {
    const auto ases = stream.chunk_origin_ases(c);
    const ClientChunk chunk = stream.chunk(c);
    std::size_t at = 0;
    for (const AsIndex as : ases) {
      // Every origin contributes a contiguous run (possibly empty for an AS
      // with no presence) of prefixes in origin order.
      while (at < chunk.prefixes.size() && chunk.prefixes[at].origin_as == as) ++at;
    }
    EXPECT_EQ(at, chunk.prefixes.size()) << "chunk " << c;
  }
}

TEST(DemandStream, SkipEntersMidStreamExactly) {
  const auto net = scaled_net(1);
  const ClientBaseConfig ccfg;
  const DemandConfig dcfg;
  const auto clients = ClientBase::generate(net, ccfg);
  const DemandModel demand{&clients, net.cities, dcfg};
  const ClientStream stream{&net, ccfg, 64};
  ASSERT_GT(stream.chunk_count(), 2u);
  // A shard that owns only chunk 2 skips the prefixes before it and must
  // still reproduce the eager popularity values bit for bit.
  const ClientChunk chunk = stream.chunk(2);
  DemandStream cursor{dcfg};
  cursor.skip(chunk.first_prefix);
  EXPECT_EQ(cursor.position(), chunk.first_prefix);
  const auto popularity = cursor.next(chunk);
  for (std::size_t i = 0; i < popularity.size(); ++i) {
    EXPECT_EQ(popularity[i], demand.popularity(chunk.id(i))) << "prefix " << i;
  }
}

TEST(DemandStream, OutOfStepCursorIsRejected) {
  const auto net = scaled_net(1);
  const ClientStream stream{&net, ClientBaseConfig{}, 64};
  ASSERT_GT(stream.chunk_count(), 1u);
  const ClientChunk chunk = stream.chunk(1);
  DemandStream cursor{DemandConfig{}};  // still at position 0
  ScopedCheckThrows throws;
  EXPECT_THROW((void)cursor.next(chunk), CheckError);
}

TEST(DemandStream, StreamedVolumeMatchesEagerModel) {
  const auto net = scaled_net(1);
  const ClientBaseConfig ccfg;
  const DemandConfig dcfg;
  const auto clients = ClientBase::generate(net, ccfg);
  const DemandModel demand{&clients, net.cities, dcfg};
  const ClientStream stream{&net, ccfg, 64};
  DemandStream cursor{dcfg};
  const ClientChunk chunk = stream.chunk(0);
  const auto popularity = cursor.next(chunk);
  const topo::CityDb& db = net.city_db();
  std::string bytes;
  for (const double h : {0.25, 7.5, 13.0, 22.75}) {
    const SimTime t = SimTime::hours(h);
    for (std::size_t i = 0; i < chunk.prefixes.size(); ++i) {
      const double lon = db.at(chunk.prefixes[i].city).location.lon_deg;
      const double streamed = diurnal_volume(dcfg, popularity[i], lon, t).value();
      EXPECT_EQ(streamed, demand.volume(chunk.id(i), t).value());
      append_raw(bytes, &streamed, sizeof streamed);
    }
  }
  // Golden digest of those volumes, recorded from the eager model's own
  // popularity draws.
  EXPECT_EQ(core::fnv1a64(bytes), 0xecfdf86bc2545046ULL);
}

}  // namespace
}  // namespace bgpcmp::traffic
