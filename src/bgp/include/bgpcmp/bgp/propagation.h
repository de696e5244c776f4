// Network-wide BGP route propagation under Gao-Rexford policy.
//
// Three-stage computation of the routes every AS selects toward one origin:
// (1) customer routes climb provider edges from the origin's customer cone;
// (2) peer routes extend one peer hop off customer routes; (3) provider
// routes descend customer edges from any routed AS. Within a preference
// class, shorter paths win; ties break on lowest next-hop ASN, mirroring
// BGP's deterministic tie-breaking. The result is guaranteed valley-free.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "bgpcmp/bgp/origin.h"
#include "bgpcmp/bgp/route.h"

namespace bgpcmp::bgp {

/// Most origins one compute_routes_batch call takes: one bit of a uint64_t
/// lane mask each.
inline constexpr std::size_t kMaxBatchOrigins = 64;

/// Compute the routing table toward `origin` with a worklist relaxation over
/// the graph's CSR incident-edge index: each stage seeds from the origin and
/// relaxes only the edges of ASes whose route just improved, so a table costs
/// near-linear work in touched edges. Relaxation within a class is monotone
/// in (length, next-hop ASN), so the result is the unique least fixpoint —
/// byte-identical to compute_routes_reference regardless of visit order.
[[nodiscard]] RouteTable compute_routes(const AsGraph& graph, const OriginSpec& origin);

/// Full-scan fixpoint implementation: every stage rescans all edges per pass,
/// O(passes * edges). Kept as the golden reference the worklist algorithm is
/// pinned against in tests; not for production paths.
[[nodiscard]] RouteTable compute_routes_reference(const AsGraph& graph,
                                                  const OriginSpec& origin);

/// Convenience: origin announced on all sessions.
[[nodiscard]] RouteTable compute_routes(const AsGraph& graph, AsIndex origin);

/// The tables toward up to kMaxBatchOrigins distinct origins, each announced
/// on all sessions, in one level-synchronous pass over the graph (multi-source
/// BFS: every AS carries a 64-bit lane mask, one bit per origin, so each CSR
/// row is read once per path length for the whole batch rather than once per
/// origin). Result `k` is byte-identical to compute_routes(graph, origins[k]).
///
/// Why level order gives the worklist's answer: all three stages relax unit-
/// length edges, so processing path lengths in increasing order settles each
/// lane at its shortest length the first time it is written. Within one
/// length the kernel visits source ASes in ASN order and only writes lanes
/// that are still unrouted, so the first writer is the lowest-ASN next hop —
/// the (length, next-hop ASN) minimum that detail::better's monotone worklist
/// relaxation converges to. Stage 3 sources at length L are the ASes whose
/// *selected* route has length L (customer, peer or provider), and a lane is
/// only ever written in its best class, since select_best never reads the
/// state of a less preferred class.
///
/// Single-origin callers (toward(), the OriginSpec overload, churn) stay on
/// the worklist: it handles prepends, scopes and suppression, and it keeps
/// the per-class detail::Tables the churn engine re-relaxes.
[[nodiscard]] std::vector<RouteTable> compute_routes_batch(
    const AsGraph& graph, std::span<const AsIndex> origins);

}  // namespace bgpcmp::bgp
