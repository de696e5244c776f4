// The eager client base is the streaming generator run as one chunk: the
// per-origin draws, the /24 allocation and the generation order exist only in
// client_stream.cpp, so eager and streamed populations cannot drift apart.
#include "bgpcmp/traffic/clients.h"

#include <cstdint>

#include "bgpcmp/traffic/client_stream.h"

namespace bgpcmp::traffic {

ClientBase ClientBase::generate(const Internet& internet,
                                const ClientBaseConfig& config) {
  return restore(ClientStream{&internet, config, SIZE_MAX}.chunk(0).prefixes);
}

ClientBase ClientBase::restore(std::vector<ClientPrefix> prefixes) {
  ClientBase out;
  out.prefixes_ = std::move(prefixes);
  return out;
}

std::vector<PrefixId> ClientBase::of_origin(AsIndex as) const {
  std::vector<PrefixId> out;
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    if (prefixes_[i].origin_as == as) out.push_back(static_cast<PrefixId>(i));
  }
  return out;
}

bgp::PrefixMap<PrefixId> ClientBase::prefix_map() const {
  bgp::PrefixMap<PrefixId> map;
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    map.insert(prefixes_[i].prefix, static_cast<PrefixId>(i));
  }
  return map;
}

double ClientBase::total_user_weight() const {
  double total = 0.0;
  for (const auto& p : prefixes_) total += p.user_weight;
  return total;
}

}  // namespace bgpcmp::traffic
