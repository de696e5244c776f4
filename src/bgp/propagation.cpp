#include "bgpcmp/bgp/propagation.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "bgpcmp/bgp/propagation_detail.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::bgp {

namespace detail {

BestRoute select_one(const AsGraph& graph, const Tables& t, AsIndex i,
                     AsIndex origin) {
  (void)graph;
  if (i == origin) return BestRoute{RouteClass::Origin, 0, kNoAs, kNoEdge};
  const auto narrow = [&](const ClassState& s, RouteClass cls) {
    // BestRoute::length is uint16; a uint32 relaxation length past 65535 can
    // only come from a pathological prepend and must not wrap silently.
    BGPCMP_CHECK_LE(s.len, std::numeric_limits<std::uint16_t>::max(),
                    "AS-path length overflows BestRoute::length (check prepends)");
    return BestRoute{cls, static_cast<std::uint16_t>(s.len), s.next_hop, s.via_edge};
  };
  if (t.cust[i].valid()) return narrow(t.cust[i], RouteClass::Customer);
  if (t.peer[i].valid()) return narrow(t.peer[i], RouteClass::Peer);
  if (t.prov[i].valid()) return narrow(t.prov[i], RouteClass::Provider);
  return BestRoute{};
}

RouteTable select_best(const AsGraph& graph, const Tables& t, AsIndex o) {
  const std::size_t n = graph.as_count();
  std::vector<BestRoute> best(n);
  for (AsIndex i = 0; i < n; ++i) best[i] = select_one(graph, t, i, o);
  return RouteTable{&graph, o, std::move(best)};
}

void check_origin(const AsGraph& graph, const OriginSpec& origin) {
  BGPCMP_CHECK_NE(origin.origin, kNoAs, "announcement needs a real origin AS");
  BGPCMP_CHECK_LT(origin.origin, graph.as_count(), "origin AS out of range");
  for (const auto& [edge, count] : origin.prepend) {
    BGPCMP_CHECK_LT(edge, graph.edge_count(), "prepend on an edge outside the graph");
    // prepend_on feeds unsigned length arithmetic (1 + prepend): a negative
    // count would underflow into a near-2^32 "length", so reject it here at
    // every propagation entry point rather than wrapping silently.
    BGPCMP_CHECK_GE(count, 0, "prepend count must be non-negative");
  }
}

Tables compute_tables(const AsGraph& graph, const OriginSpec& origin) {
  check_origin(graph, origin);
  const topo::EdgeIndex& idx = graph.edge_index();
  const std::size_t n = graph.as_count();
  Tables t{n};

  const AsIndex o = origin.origin;
  Worklist wl{n};

  // Stage 1: customer routes. An AS has one iff the origin is in its customer
  // cone. Seed the origin's announcements up its provider edges, then relax
  // each improved AS's provider edges until the wave dies out. Relaxation is
  // monotone in (length, next-hop ASN), so any processing order converges to
  // the same least fixpoint the reference full-scan computes.
  for (const EdgeId e : idx.up_edges(o)) {
    if (!origin.announces_on(graph, e)) continue;
    const AsIndex provider = graph.edge(e).a;
    const auto cand = static_cast<std::uint32_t>(1 + origin.prepend_on(e));
    if (better(graph, cand, o, t.cust[provider])) {
      t.cust[provider] = ClassState{cand, o, e};
      wl.push(provider);
    }
  }
  while (!wl.empty()) {
    const AsIndex x = wl.pop();
    const std::uint32_t len = t.cust[x].len;
    for (const EdgeId e : idx.up_edges(x)) {
      const AsIndex provider = graph.edge(e).a;
      if (provider == o) continue;  // origin doesn't learn its own prefix
      if (better(graph, len + 1, x, t.cust[provider])) {
        t.cust[provider] = ClassState{len + 1, x, e};
        wl.push(provider);
      }
    }
  }

  // Stage 2: peer routes. Valley-freeness allows exactly one peer hop, and
  // only off a customer route (or the origin itself), so one sweep over the
  // peer edges of customer-routed ASes suffices.
  for (const EdgeId e : idx.peer_edges(o)) {
    if (!origin.announces_on(graph, e)) continue;
    const AsIndex to = graph.other_end(e, o);
    const auto cand = static_cast<std::uint32_t>(1 + origin.prepend_on(e));
    if (better(graph, cand, o, t.peer[to])) t.peer[to] = ClassState{cand, o, e};
  }
  for (AsIndex x = 0; x < n; ++x) {
    if (!t.cust[x].valid()) continue;  // peers export only customer routes
    const std::uint32_t len = t.cust[x].len;
    for (const EdgeId e : idx.peer_edges(x)) {
      const AsIndex to = graph.other_end(e, x);
      if (to == o) continue;
      if (better(graph, len + 1, x, t.peer[to])) {
        t.peer[to] = ClassState{len + 1, x, e};
      }
    }
  }

  // Stage 3: provider routes. A provider exports its *selected* route (class
  // preference first, so possibly not its shortest) to customers. The exports
  // of the origin and of customer-/peer-routed ASes are already final — seed
  // those once; only ASes whose selection is provider-learned can improve
  // later, so only they re-enter the worklist.
  const auto relax_down = [&](AsIndex from, std::uint32_t cand, EdgeId e) {
    const AsIndex customer = graph.edge(e).b;
    if (customer == o) return;
    if (better(graph, cand, from, t.prov[customer])) {
      t.prov[customer] = ClassState{cand, from, e};
      if (!t.cust[customer].valid() && !t.peer[customer].valid()) {
        wl.push(customer);
      }
    }
  };
  for (const EdgeId e : idx.down_edges(o)) {
    if (!origin.announces_on(graph, e)) continue;
    relax_down(o, static_cast<std::uint32_t>(1 + origin.prepend_on(e)), e);
  }
  for (AsIndex x = 0; x < n; ++x) {
    if (x == o) continue;
    std::uint32_t len;
    if (t.cust[x].valid()) {
      len = t.cust[x].len;
    } else if (t.peer[x].valid()) {
      len = t.peer[x].len;
    } else {
      continue;
    }
    for (const EdgeId e : idx.down_edges(x)) relax_down(x, len + 1, e);
  }
  while (!wl.empty()) {
    const AsIndex x = wl.pop();
    // x is provider-routed (guarded at push), so its selected length is
    // t.prov[x].len — the best_len the reference implementation reads.
    const std::uint32_t len = t.prov[x].len;
    for (const EdgeId e : idx.down_edges(x)) relax_down(x, len + 1, e);
  }

  return t;
}

}  // namespace detail

RouteTable compute_routes(const AsGraph& graph, const OriginSpec& origin) {
  return detail::select_best(graph, detail::compute_tables(graph, origin),
                             origin.origin);
}

RouteTable compute_routes_reference(const AsGraph& graph, const OriginSpec& origin) {
  using detail::ClassState;
  using detail::Tables;
  using detail::better;
  using detail::kInfLen;
  detail::check_origin(graph, origin);
  const std::size_t n = graph.as_count();
  Tables t{n};

  const AsIndex o = origin.origin;

  // Stage 1: customer routes. An AS has one iff the origin is in its customer
  // cone; propagate up provider edges to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      const auto& edge = graph.edge(e);
      if (edge.rel != topo::Relationship::ProviderCustomer) continue;
      const AsIndex provider = edge.a;
      const AsIndex customer = edge.b;
      if (provider == o) continue;  // origin doesn't learn its own prefix
      std::uint32_t len_c;
      int extra = 0;
      if (customer == o) {
        if (!origin.announces_on(graph, e)) continue;
        len_c = 0;
        extra = origin.prepend_on(e);
      } else {
        if (!t.cust[customer].valid()) continue;
        len_c = t.cust[customer].len;
      }
      const std::uint32_t cand = len_c + 1 + static_cast<std::uint32_t>(extra);
      if (better(graph, cand, customer, t.cust[provider])) {
        t.cust[provider] = ClassState{cand, customer, e};
        changed = true;
      }
    }
  }

  // Stage 2: peer routes. Valley-freeness allows exactly one peer hop, and
  // only off a customer route (or the origin itself), so one pass suffices.
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const auto& edge = graph.edge(e);
    if (edge.rel != topo::Relationship::PeerPeer) continue;
    for (const auto& [from, to] :
         {std::pair{edge.a, edge.b}, std::pair{edge.b, edge.a}}) {
      if (to == o) continue;
      std::uint32_t len_f;
      int extra = 0;
      if (from == o) {
        if (!origin.announces_on(graph, e)) continue;
        len_f = 0;
        extra = origin.prepend_on(e);
      } else {
        if (!t.cust[from].valid()) continue;  // peers export only customer routes
        len_f = t.cust[from].len;
      }
      const std::uint32_t cand = len_f + 1 + static_cast<std::uint32_t>(extra);
      if (better(graph, cand, from, t.peer[to])) {
        t.peer[to] = ClassState{cand, from, e};
      }
    }
  }

  // Stage 3: provider routes. A provider exports its *selected* route (class
  // preference first, so possibly not its shortest) to customers; descend
  // customer edges to a fixpoint.
  changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      const auto& edge = graph.edge(e);
      if (edge.rel != topo::Relationship::ProviderCustomer) continue;
      const AsIndex provider = edge.a;
      const AsIndex customer = edge.b;
      if (customer == o) continue;
      std::uint32_t len_p;
      int extra = 0;
      if (provider == o) {
        if (!origin.announces_on(graph, e)) continue;
        len_p = 0;
        extra = origin.prepend_on(e);
      } else {
        len_p = detail::best_len(t, provider, o);
        if (len_p == kInfLen) continue;
      }
      const std::uint32_t cand = len_p + 1 + static_cast<std::uint32_t>(extra);
      if (better(graph, cand, provider, t.prov[customer])) {
        t.prov[customer] = ClassState{cand, provider, e};
        changed = true;
      }
    }
  }

  return detail::select_best(graph, t, o);
}

RouteTable compute_routes(const AsGraph& graph, AsIndex origin) {
  return compute_routes(graph, OriginSpec::everywhere(origin));
}

namespace {

/// One bit per origin of a batch: bit k stands for origins[k].
using LaneMask = std::uint64_t;

/// State of one compute_routes_batch call. level_[L][x] holds the lanes whose
/// selected route at AS x has length L; stages 1-3 each append to it in turn.
class BatchKernel {
 public:
  BatchKernel(const AsGraph& graph, std::span<const AsIndex> origins)
      : graph_(graph),
        origins_(origins),
        idx_(graph.edge_index()),
        n_(graph.as_count()),
        routed_(n_, 0),
        cust_(n_, 0),
        routes_(origins.size(), std::vector<BestRoute>(n_)) {
    BGPCMP_CHECK_LE(origins.size(), kMaxBatchOrigins,
                    "route batch wider than its 64-bit lane mask");
    level_.emplace_back(n_, 0);
    for (std::size_t lane = 0; lane < origins.size(); ++lane) {
      const AsIndex o = origins[lane];
      BGPCMP_CHECK_LT(o, n_, "batch origin AS out of range");
      BGPCMP_CHECK_EQ(routed_[o], LaneMask{0}, "route batch repeats an origin");
      const LaneMask bit = LaneMask{1} << lane;
      // The origin lane is routed from the start, which is what keeps an
      // origin from learning its own prefix in every stage below.
      routed_[o] = bit;
      cust_[o] = bit;
      level_[0][o] = bit;
      routes_[lane][o] = BestRoute{RouteClass::Origin, 0, kNoAs, kNoEdge};
    }
  }

  std::vector<RouteTable> run() {
    // Stage 1: customer routes climb up-edges one length at a time.
    std::size_t top = 0;
    while (sweep<RouteClass::Customer>(top)) ++top;
    // Stage 2: one peer hop off a customer route (or the origin). The peer
    // lanes this adds to a level are not customer lanes, so they are masked
    // out of that level's sources and peer routes never chain.
    const std::size_t cust_top = top;
    for (std::size_t len = 0; len <= cust_top; ++len) {
      if (sweep<RouteClass::Peer>(len)) top = std::max(top, len + 1);
    }
    // Stage 3: every selected route, whatever its class, descends down-edges;
    // provider routes written at one length are sources at the next.
    for (std::size_t len = 0; len <= top; ++len) {
      if (sweep<RouteClass::Provider>(len)) top = std::max(top, len + 1);
    }
    std::vector<RouteTable> out;
    out.reserve(origins_.size());
    for (std::size_t lane = 0; lane < origins_.size(); ++lane) {
      out.emplace_back(&graph_, origins_[lane], std::move(routes_[lane]));
    }
    return out;
  }

 private:
  /// Relax length `len` across the edge group stage `cls` uses, visiting
  /// source ASes in ASN order: each source lane still unrouted at the far end
  /// takes (len + 1, x, e) there as a `cls` route. Returns whether any lane
  /// was written.
  template <RouteClass cls>
  bool sweep(std::size_t len) {
    // BestRoute::length is uint16, as in detail::select_one.
    BGPCMP_CHECK_LE(len + 1, std::numeric_limits<std::uint16_t>::max(),
                    "AS-path length overflows BestRoute::length (check prepends)");
    if (level_.size() <= len + 1) level_.emplace_back(n_, 0);
    const LaneMask* cur = level_[len].data();
    LaneMask* next = level_[len + 1].data();
    const auto length = static_cast<std::uint16_t>(len + 1);
    bool wrote = false;
    for (const AsIndex x : idx_.by_asn()) {
      LaneMask src = cur[x];
      if constexpr (cls == RouteClass::Peer) src &= cust_[x];
      if (src == 0) continue;
      std::span<const EdgeId> edges;
      std::span<const AsIndex> far;
      if constexpr (cls == RouteClass::Customer) {
        edges = idx_.up_edges(x);
        far = idx_.up_far(x);
      } else if constexpr (cls == RouteClass::Peer) {
        edges = idx_.peer_edges(x);
        far = idx_.peer_far(x);
      } else {
        edges = idx_.down_edges(x);
        far = idx_.down_far(x);
      }
      for (std::size_t k = 0; k < far.size(); ++k) {
        const AsIndex y = far[k];
        const LaneMask fresh = src & ~routed_[y];
        if (fresh == 0) continue;
        routed_[y] |= fresh;
        next[y] |= fresh;
        if constexpr (cls == RouteClass::Customer) cust_[y] |= fresh;
        const BestRoute route{cls, length, x, edges[k]};
        for (LaneMask m = fresh; m != 0; m &= m - 1) {
          routes_[static_cast<std::size_t>(std::countr_zero(m))][y] = route;
        }
        wrote = true;
      }
    }
    return wrote;
  }

  const AsGraph& graph_;
  const std::span<const AsIndex> origins_;
  const topo::EdgeIndex& idx_;
  const std::size_t n_;
  std::vector<LaneMask> routed_;  ///< lanes with a selected route at each AS
  std::vector<LaneMask> cust_;    ///< lanes whose route there is customer or origin
  std::vector<std::vector<LaneMask>> level_;
  std::vector<std::vector<BestRoute>> routes_;  ///< per lane, per AS
};

}  // namespace

std::vector<RouteTable> compute_routes_batch(const AsGraph& graph,
                                             std::span<const AsIndex> origins) {
  return BatchKernel{graph, origins}.run();
}

}  // namespace bgpcmp::bgp
