#include "bgpcmp/bgp/rib.h"

#include <algorithm>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::bgp {

std::vector<CandidateRoute> candidate_routes_at(const AsGraph& graph,
                                                const RouteTable& table,
                                                const OriginSpec& origin_spec,
                                                AsIndex viewer) {
  BGPCMP_CHECK_EQ(origin_spec.origin, table.origin(),
                  "RIB dump must use the table's own origin spec");
  const topo::EdgeIndex& index = graph.edge_index();
  const AsIndex origin = table.origin();
  std::vector<CandidateRoute> out;

  // The route `nb` offers the viewer over edge `e`, if it offers one.
  auto offer = [&](AsIndex nb, topo::EdgeId e, topo::NeighborRole role) {
    CandidateRoute cand;
    cand.neighbor = nb;
    cand.edge = e;
    cand.neighbor_role = role;

    if (nb == origin) {
      if (!origin_spec.announces_on(graph, e)) return;
      cand.neighbor_class = RouteClass::Origin;
      cand.length = static_cast<std::uint16_t>(1 + origin_spec.prepend_on(e));
      cand.as_path = {nb};
      out.push_back(std::move(cand));
      return;
    }

    const BestRoute& nbest = table.at(nb);
    if (!nbest.reachable()) return;
    // Split horizon: the neighbor's route must not run through the viewer.
    if (nbest.next_hop == viewer) return;

    // Export policy: the neighbor announces its selected route to the viewer
    // iff the viewer is its customer, or the route is customer-learned.
    const bool exports = role == topo::NeighborRole::Provider ||
                         nbest.cls == RouteClass::Customer;
    if (!exports) return;

    auto path = table.path(nb);
    if (std::find(path.begin(), path.end(), viewer) != path.end()) return;

    cand.neighbor_class = nbest.cls;
    cand.length = static_cast<std::uint16_t>(nbest.length + 1);
    cand.as_path = std::move(path);
    out.push_back(std::move(cand));
  };

  // Providers export everything they select.
  const auto up_edges = index.up_edges(viewer);
  const auto up_far = index.up_far(viewer);
  for (std::size_t k = 0; k < up_edges.size(); ++k) {
    offer(up_far[k], up_edges[k], topo::NeighborRole::Provider);
  }

  // Customers and peers export only the origin's own route or a customer
  // route, and every AS holding one lies in the origin's up-closure (rib.h).
  // Climb it breadth-first, through the viewer as well, and offer each member
  // that shares a customer or peer edge with the viewer. The closure holds a
  // few dozen ASes at most, so membership is a linear scan.
  std::vector<AsIndex> closure{origin};
  for (std::size_t k = 0; k < closure.size(); ++k) {
    const AsIndex x = closure[k];
    for (const AsIndex p : index.up_far(x)) {
      if (std::find(closure.begin(), closure.end(), p) == closure.end()) {
        closure.push_back(p);
      }
    }
    if (x == viewer) continue;
    const auto e = graph.find_edge(viewer, x);
    if (!e) continue;
    const topo::NeighborRole role = graph.role_of_other(*e, viewer);
    if (role != topo::NeighborRole::Provider) offer(x, *e, role);
  }

  // (ASN, index): AsGraph::adopt accepts duplicate ASNs, so ASN alone is not
  // a total order.
  std::sort(out.begin(), out.end(),
            [&](const CandidateRoute& a, const CandidateRoute& b) {
              const Asn asn_a = graph.node(a.neighbor).asn;
              const Asn asn_b = graph.node(b.neighbor).asn;
              return asn_a != asn_b ? asn_a < asn_b : a.neighbor < b.neighbor;
            });
  return out;
}

std::vector<CandidateRoute> candidate_routes_at(const AsGraph& graph,
                                                const RouteTable& table,
                                                AsIndex viewer) {
  return candidate_routes_at(graph, table, OriginSpec::everywhere(table.origin()),
                             viewer);
}

}  // namespace bgpcmp::bgp
