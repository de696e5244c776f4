// Adj-RIB-in reconstruction: the full set of routes a given AS *hears* from
// its neighbors toward an origin.
//
// The PoP study needs more than each AS's best route: at a content-provider
// PoP, BGP chooses among the routes announced by every connected peer and
// transit, and the measurement system sprays traffic over the top-k of them
// (§3.1). A neighbor exports its selected route to the viewer iff the viewer
// is its customer, or the route is a customer/own route (standard export
// policy); we reconstruct exactly that candidate set from the route table.
#pragma once

#include <vector>

#include "bgpcmp/bgp/origin.h"
#include "bgpcmp/bgp/route.h"

namespace bgpcmp::bgp {

/// One route offered to the viewer by a neighbor.
struct CandidateRoute {
  AsIndex neighbor = kNoAs;  ///< next-hop AS
  EdgeId edge = kNoEdge;     ///< viewer-neighbor edge
  topo::NeighborRole neighbor_role = topo::NeighborRole::Peer;  ///< neighbor's role vs viewer
  RouteClass neighbor_class = RouteClass::None;  ///< class of the neighbor's own route
  std::uint16_t length = 0;  ///< BGP path length as heard by the viewer
  std::vector<AsIndex> as_path;  ///< [neighbor, ..., origin]
};

/// All routes the viewer hears toward the table's origin, one per exporting
/// neighbor, sorted by (neighbor ASN, neighbor index): AsGraph::adopt accepts
/// duplicate ASNs, so ASN alone is not a total order. Includes the direct
/// route if the viewer neighbors the origin. `origin_spec` must be the spec
/// the table was computed with (it governs which sessions the origin
/// announced on).
///
/// Exporters: a neighbor offers a route only if it is one of the viewer's
/// providers, or it is the origin, or its selected route is Customer-class.
/// A Customer-class route was learned from a customer that itself exported
/// only an Origin or Customer route, so following next hops down from such
/// an AS reaches the origin over provider->customer edges alone: every such
/// AS lies in the origin's up-closure (the origin plus everything reachable
/// over `EdgeIndex::up_far`). The walk therefore visits the viewer's provider
/// edges plus the members of that closure (climbed through the viewer too)
/// that share a customer or peer edge with the viewer, and applies the same
/// announce, reachability, split-horizon, export and loop filters to each.
/// The result is exactly that of walking every incident edge, provided two
/// ASes share at most one edge (the AsGraph mutators guarantee it).
///
/// Cost: the viewer's providers plus the up-closure (6.5 ASes on average
/// over every origin of the 30x world, at most 31), plus one path per
/// exporter. The viewer's degree (3,638 edges for the 30x provider) does not
/// enter.
[[nodiscard]] std::vector<CandidateRoute> candidate_routes_at(
    const AsGraph& graph, const RouteTable& table, const OriginSpec& origin_spec,
    AsIndex viewer);

/// Overload for an unscoped origin.
[[nodiscard]] std::vector<CandidateRoute> candidate_routes_at(const AsGraph& graph,
                                                              const RouteTable& table,
                                                              AsIndex viewer);

}  // namespace bgpcmp::bgp
