#include "propagation_oracle.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "bgp/policy.h"

namespace rovista::test {

namespace {

using bgp::Asn;
using bgp::Route;
using topology::NeighborKind;

NeighborKind invert(NeighborKind kind) noexcept {
  switch (kind) {
    case NeighborKind::kProvider:
      return NeighborKind::kCustomer;
    case NeighborKind::kCustomer:
      return NeighborKind::kProvider;
    case NeighborKind::kPeer:
      return NeighborKind::kPeer;
  }
  return NeighborKind::kPeer;
}

}  // namespace

bgp::RouteMap fixed_point_routes(const bgp::RoutingSystem& routing,
                                 const net::Ipv4Prefix& prefix) {
  const topology::AsGraph& graph = routing.graph();
  // State is per-AS: the routes each neighbor currently offers, plus
  // the selected best.
  struct AsState {
    std::unordered_map<Asn, Route> adj_in;  // neighbor → offered route
    std::optional<Route> best;
    bool originates = false;
  };
  std::unordered_map<Asn, AsState> state;

  const auto self_route = [&](Asn asn) {
    Route self;
    self.prefix = prefix;
    self.as_path = {asn};
    self.learned_from = NeighborKind::kCustomer;
    self.validity = routing.validity_for(asn, prefix, asn);
    return self;
  };

  std::deque<Asn> queue;
  for (const Asn origin : routing.origins_of(prefix)) {
    if (!graph.contains(origin)) continue;
    AsState& s = state[origin];
    s.originates = true;
    s.best = self_route(origin);
    queue.push_back(origin);
  }

  // Select best at `asn` from self-origination and adj-in.
  const auto select_best = [&](Asn asn, AsState& s) -> std::optional<Route> {
    if (s.originates) return self_route(asn);  // self-originated always wins
    std::optional<Route> best;
    const bgp::AsPolicy& pol = routing.policy(asn);
    for (const auto& [neighbor, route] : s.adj_in) {
      if (!best || bgp::prefer_route(pol, route, *best)) best = route;
    }
    return best;
  };

  std::size_t iterations = 0;
  const std::size_t max_iterations = graph.size() * 64 + 1024;
  while (!queue.empty()) {
    if (++iterations >= max_iterations) {
      throw std::runtime_error("fixed point for " + prefix.to_string() +
                               " did not settle");
    }
    const Asn asn = queue.front();
    queue.pop_front();
    const AsState& s = state[asn];

    for (const topology::Neighbor& nb : graph.neighbors(asn)) {
      AsState& ns = state[nb.asn];
      const NeighborKind from_neighbor_view = invert(nb.kind);

      // What does `asn` offer this neighbor now?
      std::optional<Route> offered;
      if (s.best.has_value() &&
          bgp::exports_to(s.best->learned_from, nb.kind)) {
        // Loop prevention: neighbor already on the path.
        const auto& path = s.best->as_path;
        if (std::find(path.begin(), path.end(), nb.asn) == path.end()) {
          Route r;
          r.prefix = prefix;
          r.as_path.reserve(path.size() + 1);
          r.as_path.push_back(nb.asn);
          r.as_path.insert(r.as_path.end(), path.begin(), path.end());
          r.learned_from = from_neighbor_view;
          r.validity = routing.validity_for(nb.asn, prefix, r.origin());
          if (bgp::rov_accepts(routing.policy(nb.asn), nb.asn, asn, prefix,
                               from_neighbor_view, r.validity)) {
            offered = std::move(r);
          }
        }
      }

      // Update the neighbor's adj-in and reselect.
      bool changed = false;
      const auto existing = ns.adj_in.find(asn);
      if (offered.has_value()) {
        if (existing == ns.adj_in.end() ||
            existing->second.as_path != offered->as_path ||
            existing->second.validity != offered->validity) {
          ns.adj_in[asn] = *offered;
          changed = true;
        }
      } else if (existing != ns.adj_in.end()) {
        ns.adj_in.erase(existing);
        changed = true;
      }
      if (!changed) continue;

      std::optional<Route> new_best = select_best(nb.asn, ns);
      const bool best_changed =
          new_best.has_value() != ns.best.has_value() ||
          (new_best.has_value() &&
           (new_best->as_path != ns.best->as_path ||
            new_best->learned_from != ns.best->learned_from));
      if (best_changed) {
        ns.best = std::move(new_best);
        queue.push_back(nb.asn);
      }
    }
  }

  bgp::RouteMap out;
  out.reserve(state.size());
  for (const auto& [asn, s] : state) {
    if (!s.best.has_value()) continue;
    bgp::RouteEntry e;
    e.next_hop = s.best->next_hop();
    e.origin = s.best->origin();
    e.learned_from = s.best->learned_from;
    e.validity = s.best->validity;
    e.path_len = static_cast<std::uint16_t>(s.best->as_path.size());
    out.emplace(asn, e);
  }
  return out;
}

}  // namespace rovista::test
