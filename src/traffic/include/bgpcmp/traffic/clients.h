// Client populations: the prefixes a provider serves.
//
// Each eyeball/stub AS originates one or more /24 client prefixes per metro
// of presence. A prefix carries its geographic location, a user-population
// weight (city weight split across the prefixes there), and a last-mile
// access profile. These are the <prefix> halves of the paper's <PoP, prefix>
// analysis unit and the "weighted /24s" of Fig 4.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgpcmp/bgp/prefix_map.h"
#include "bgpcmp/latency/delay.h"
#include "bgpcmp/netbase/ipaddr.h"
#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::traffic {

using topo::AsIndex;
using topo::CityId;
using topo::Internet;

using PrefixId = std::uint32_t;

struct ClientPrefix {
  Prefix prefix;
  AsIndex origin_as = topo::kNoAs;
  CityId city = topo::kNoCity;
  double user_weight = 0.0;
  lat::AccessProfile access;
};

struct ClientBaseConfig {
  std::uint64_t seed = 7;
  int prefixes_per_eyeball_city = 2;
  bool include_stubs = true;
  double access_base_rtt_min_ms = 3.0;
  double access_base_rtt_max_ms = 16.0;
};

/// The generated client population, resident.
class ClientBase {
 public:
  /// Every prefix of the world: the single chunk of a traffic::ClientStream
  /// over all origins (client_stream.h).
  static ClientBase generate(const Internet& internet, const ClientBaseConfig& config);

  /// Rehydrate a population from deserialized prefixes (core/snapshot.h).
  static ClientBase restore(std::vector<ClientPrefix> prefixes);

  [[nodiscard]] std::span<const ClientPrefix> prefixes() const { return prefixes_; }
  [[nodiscard]] const ClientPrefix& at(PrefixId id) const { return prefixes_.at(id); }
  [[nodiscard]] std::size_t size() const { return prefixes_.size(); }

  /// Prefixes originated by an AS.
  [[nodiscard]] std::vector<PrefixId> of_origin(AsIndex as) const;

  /// FIB view of the population: longest-prefix-match from any client
  /// address to its /24's id.
  [[nodiscard]] bgp::PrefixMap<PrefixId> prefix_map() const;
  /// Total user weight across all prefixes.
  [[nodiscard]] double total_user_weight() const;

 private:
  std::vector<ClientPrefix> prefixes_;
};

}  // namespace bgpcmp::traffic
