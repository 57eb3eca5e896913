// The Adj-RIB-In fixed point: the reference RoutingSystem's
// rank-flattened engine (bgp/flat_propagation.h) is checked against.
//
// It keeps full Adj-RIB-In state per AS during computation, so
// withdrawals and replacements are handled exactly rather than
// monotonically, and reads the routing system only through its public
// API: the graph, the announced origins, per-AS validity and policy, and
// the Gao–Rexford rules of bgp/policy.h. Allocation-heavy and slow by
// design; it exists so tests can compare the production engine against
// an independent formulation of the same stable state.
#pragma once

#include "bgp/routing_system.h"
#include "net/ipv4.h"

namespace rovista::test {

/// Converged routes for `prefix` in `routing`'s current configuration,
/// computed from scratch (nothing is read from or written to its cache).
/// Throws std::runtime_error if propagation has not settled after
/// 64 · |ASes| + 1024 AS re-advertisements.
bgp::RouteMap fixed_point_routes(const bgp::RoutingSystem& routing,
                                 const net::Ipv4Prefix& prefix);

}  // namespace rovista::test
