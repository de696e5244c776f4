#include "bgpcmp/topology/as_graph.h"

#include <algorithm>
#include <utility>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::topo {

std::string_view as_class_name(AsClass c) {
  switch (c) {
    case AsClass::Tier1: return "tier1";
    case AsClass::Transit: return "transit";
    case AsClass::Eyeball: return "eyeball";
    case AsClass::Stub: return "stub";
    case AsClass::Content: return "content";
  }
  return "unknown";
}

std::string_view link_kind_name(LinkKind k) {
  switch (k) {
    case LinkKind::Transit: return "transit";
    case LinkKind::PublicPeering: return "public-peering";
    case LinkKind::PrivatePeering: return "private-peering";
  }
  return "unknown";
}

EdgeIndex::EdgeIndex(const AsGraph& graph) {
  const std::size_t n = graph.as_count();
  offsets_.resize(n + 1, 0);
  up_end_.resize(n);
  down_end_.resize(n);
  std::uint32_t cursor = 0;
  for (AsIndex i = 0; i < n; ++i) {
    offsets_[i] = cursor;
    cursor += static_cast<std::uint32_t>(graph.node(i).edges.size());
  }
  offsets_[n] = cursor;
  incident_.resize(cursor);
  grouped_.resize(cursor);
  far_.resize(cursor);
  for (AsIndex i = 0; i < n; ++i) {
    const auto& edges = graph.node(i).edges;
    std::uint32_t at = offsets_[i];
    // Insertion-order layout, then the grouped layout in three passes so each
    // group preserves insertion order within itself.
    for (const EdgeId e : edges) incident_[at++] = e;
    at = offsets_[i];
    for (const EdgeId e : edges) {
      const AsEdge& edge = graph.edge(e);
      if (edge.rel == Relationship::ProviderCustomer && edge.b == i) {
        far_[at] = edge.a;
        grouped_[at++] = e;
      }
    }
    up_end_[i] = at;
    for (const EdgeId e : edges) {
      const AsEdge& edge = graph.edge(e);
      if (edge.rel == Relationship::ProviderCustomer && edge.a == i) {
        far_[at] = edge.b;
        grouped_[at++] = e;
      }
    }
    down_end_[i] = at;
    for (const EdgeId e : edges) {
      const AsEdge& edge = graph.edge(e);
      if (edge.rel == Relationship::PeerPeer) {
        far_[at] = edge.a == i ? edge.b : edge.a;
        grouped_[at++] = e;
      }
    }
    BGPCMP_CHECK_EQ(at, offsets_[i + 1], "incident edges must classify exactly");
  }
  by_asn_.resize(n);
  for (AsIndex i = 0; i < n; ++i) by_asn_[i] = i;
  // Stable, so duplicate ASNs (adopt() does not reject them) keep index order.
  std::stable_sort(by_asn_.begin(), by_asn_.end(), [&](AsIndex x, AsIndex y) {
    return graph.node(x).asn < graph.node(y).asn;
  });
}

const EdgeIndex& AsGraph::edge_index() const {
  auto cached = edge_index_cache_.load(std::memory_order_acquire);
  if (!cached) {
    auto built = std::make_shared<const EdgeIndex>(*this);
    std::shared_ptr<const EdgeIndex> expected;
    if (edge_index_cache_.compare_exchange_strong(expected, built,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
      cached = std::move(built);
    } else {
      cached = std::move(expected);  // a concurrent builder won; same content
    }
  }
  return *cached;
}

AsGraph::AsGraph(const AsGraph& other)
    : nodes_(other.nodes_),
      edges_(other.edges_),
      links_(other.links_),
      presence_set_(other.presence_set_),
      edge_by_pair_(other.edge_by_pair_),
      index_by_asn_(other.index_by_asn_),
      edge_index_cache_(other.edge_index_cache_.load(std::memory_order_acquire)) {}

AsGraph& AsGraph::operator=(const AsGraph& other) {
  if (this == &other) return *this;
  nodes_ = other.nodes_;
  edges_ = other.edges_;
  links_ = other.links_;
  presence_set_ = other.presence_set_;
  edge_by_pair_ = other.edge_by_pair_;
  index_by_asn_ = other.index_by_asn_;
  edge_index_cache_.store(other.edge_index_cache_.load(std::memory_order_acquire),
                          std::memory_order_release);
  return *this;
}

AsGraph::AsGraph(AsGraph&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      edges_(std::move(other.edges_)),
      links_(std::move(other.links_)),
      presence_set_(std::move(other.presence_set_)),
      edge_by_pair_(std::move(other.edge_by_pair_)),
      index_by_asn_(std::move(other.index_by_asn_)),
      edge_index_cache_(other.edge_index_cache_.load(std::memory_order_acquire)) {
  other.edge_index_cache_.store(nullptr, std::memory_order_release);
}

AsGraph& AsGraph::operator=(AsGraph&& other) noexcept {
  if (this == &other) return *this;
  nodes_ = std::move(other.nodes_);
  edges_ = std::move(other.edges_);
  links_ = std::move(other.links_);
  presence_set_ = std::move(other.presence_set_);
  edge_by_pair_ = std::move(other.edge_by_pair_);
  index_by_asn_ = std::move(other.index_by_asn_);
  edge_index_cache_.store(other.edge_index_cache_.load(std::memory_order_acquire),
                          std::memory_order_release);
  other.edge_index_cache_.store(nullptr, std::memory_order_release);
  return *this;
}

AsIndex AsGraph::add_as(Asn asn, AsClass cls, std::string name,
                        std::vector<CityId> presence, CityId hub,
                        double backbone_inflation) {
  BGPCMP_CHECK(asn.valid(), "an AS needs a valid ASN");
  BGPCMP_CHECK(!presence.empty(), "an AS must be present in at least one city");
  AsNode node;
  node.asn = asn;
  node.cls = cls;
  node.name = std::move(name);
  node.hub = hub == kNoCity ? presence.front() : hub;
  node.presence = std::move(presence);
  node.backbone_inflation = backbone_inflation;
  nodes_.push_back(std::move(node));
  const auto idx = static_cast<AsIndex>(nodes_.size() - 1);
  for (const CityId c : nodes_.back().presence) {
    presence_set_.insert(presence_key(idx, c));
  }
  index_by_asn_.emplace(asn.value(), idx);  // first add of an ASN wins
  edge_index_cache_.store(nullptr, std::memory_order_release);
  return idx;
}

void AsGraph::add_presence(AsIndex i, CityId city) {
  BGPCMP_CHECK_LT(i, nodes_.size(), "AS index out of range");
  if (!presence_set_.insert(presence_key(i, city)).second) return;
  nodes_[i].presence.push_back(city);
}

EdgeId AsGraph::connect_transit(AsIndex provider, AsIndex customer) {
  BGPCMP_CHECK_LT(provider, nodes_.size(), "transit provider out of range");
  BGPCMP_CHECK_LT(customer, nodes_.size(), "transit customer out of range");
  BGPCMP_CHECK_NE(provider, customer, "an AS cannot be its own transit provider");
  BGPCMP_CHECK(!find_edge(provider, customer), "duplicate transit edge");
  edges_.push_back(AsEdge{provider, customer, Relationship::ProviderCustomer, {}});
  const auto id = static_cast<EdgeId>(edges_.size() - 1);
  nodes_[provider].edges.push_back(id);
  nodes_[customer].edges.push_back(id);
  edge_by_pair_.emplace(pair_key(provider, customer), id);
  edge_index_cache_.store(nullptr, std::memory_order_release);
  return id;
}

EdgeId AsGraph::connect_peering(AsIndex a, AsIndex b) {
  BGPCMP_CHECK_LT(a, nodes_.size(), "peering endpoint out of range");
  BGPCMP_CHECK_LT(b, nodes_.size(), "peering endpoint out of range");
  BGPCMP_CHECK_NE(a, b, "an AS cannot peer with itself");
  BGPCMP_CHECK(!find_edge(a, b), "duplicate peering edge");
  edges_.push_back(AsEdge{a, b, Relationship::PeerPeer, {}});
  const auto id = static_cast<EdgeId>(edges_.size() - 1);
  nodes_[a].edges.push_back(id);
  nodes_[b].edges.push_back(id);
  edge_by_pair_.emplace(pair_key(a, b), id);
  edge_index_cache_.store(nullptr, std::memory_order_release);
  return id;
}

LinkId AsGraph::add_link(EdgeId edge, CityId city, LinkKind kind,
                         GigabitsPerSecond capacity) {
  BGPCMP_CHECK_LT(edge, edges_.size(), "edge out of range");
  const AsEdge& e = edges_[edge];
  BGPCMP_CHECK(has_presence(e.a, city) && has_presence(e.b, city),
               "link endpoints must both be present in the link city");
  // Transit links only on provider-customer edges; peering links only on
  // peer-peer edges.
  BGPCMP_CHECK((kind == LinkKind::Transit) == (e.rel == Relationship::ProviderCustomer),
               "transit links pair with provider-customer edges, peering with peer-peer");
  (void)e;
  links_.push_back(InterconnectLink{edge, city, kind, capacity});
  const auto id = static_cast<LinkId>(links_.size() - 1);
  edges_[edge].links.push_back(id);
  return id;
}

void AsGraph::adopt(std::vector<AsNode> nodes, std::vector<AsEdge> edges,
                    std::vector<InterconnectLink> links) {
  for (const AsEdge& e : edges) {
    BGPCMP_CHECK_LT(e.a, nodes.size(), "adopted edge endpoint out of range");
    BGPCMP_CHECK_LT(e.b, nodes.size(), "adopted edge endpoint out of range");
  }
  for (const InterconnectLink& l : links) {
    BGPCMP_CHECK_LT(l.edge, edges.size(), "adopted link edge out of range");
  }
  nodes_ = std::move(nodes);
  edges_ = std::move(edges);
  links_ = std::move(links);
  presence_set_.clear();
  edge_by_pair_.clear();
  index_by_asn_.clear();
  std::size_t presence_total = 0;
  for (const AsNode& n : nodes_) presence_total += n.presence.size();
  presence_set_.reserve(presence_total);
  index_by_asn_.reserve(nodes_.size());
  edge_by_pair_.reserve(edges_.size());
  for (AsIndex i = 0; i < nodes_.size(); ++i) {
    for (const CityId c : nodes_[i].presence) presence_set_.insert(presence_key(i, c));
    index_by_asn_.emplace(nodes_[i].asn.value(), i);  // first add of an ASN wins
  }
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    edge_by_pair_.emplace(pair_key(edges_[e].a, edges_[e].b), e);
  }
  edge_index_cache_.store(nullptr, std::memory_order_release);
}

std::vector<Neighbor> AsGraph::neighbors(AsIndex i) const {
  BGPCMP_CHECK_LT(i, nodes_.size(), "AS index out of range");
  std::vector<Neighbor> out;
  out.reserve(nodes_[i].edges.size());
  for (const EdgeId e : nodes_[i].edges) {
    out.push_back(Neighbor{other_end(e, i), e, role_of_other(e, i)});
  }
  return out;
}

AsIndex AsGraph::other_end(EdgeId e, AsIndex i) const {
  const AsEdge& edge = edges_.at(e);
  BGPCMP_CHECK(edge.a == i || edge.b == i, "edge is not incident to this AS");
  return edge.a == i ? edge.b : edge.a;
}

NeighborRole AsGraph::role_of_other(EdgeId e, AsIndex i) const {
  const AsEdge& edge = edges_.at(e);
  BGPCMP_CHECK(edge.a == i || edge.b == i, "edge is not incident to this AS");
  if (edge.rel == Relationship::PeerPeer) return NeighborRole::Peer;
  // a is the provider: from a's view the other (b) is a customer.
  return edge.a == i ? NeighborRole::Customer : NeighborRole::Provider;
}

std::optional<EdgeId> AsGraph::find_edge(AsIndex a, AsIndex b) const {
  if (a >= nodes_.size() || b >= nodes_.size()) return std::nullopt;
  const auto it = edge_by_pair_.find(pair_key(a, b));
  if (it == edge_by_pair_.end()) return std::nullopt;
  return it->second;
}

bool AsGraph::has_presence(AsIndex i, CityId city) const {
  BGPCMP_CHECK_LT(i, nodes_.size(), "AS index out of range");
  return presence_set_.count(presence_key(i, city)) != 0;
}

std::optional<AsIndex> AsGraph::find_asn(Asn asn) const {
  const auto it = index_by_asn_.find(asn.value());
  if (it == index_by_asn_.end()) return std::nullopt;
  return it->second;
}

std::vector<AsIndex> AsGraph::of_class(AsClass c) const {
  std::vector<AsIndex> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].cls == c) out.push_back(static_cast<AsIndex>(i));
  }
  return out;
}

}  // namespace bgpcmp::topo
