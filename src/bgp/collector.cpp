#include "bgp/collector.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace rovista::bgp {

std::vector<Asn> CollectorSnapshot::origins_of(
    const net::Ipv4Prefix& prefix) const {
  std::vector<Asn> out;
  for (const CollectorEntry& e : entries) {
    if (e.prefix == prefix) {
      const Asn origin = e.origin();
      if (std::find(out.begin(), out.end(), origin) == out.end()) {
        out.push_back(origin);
      }
    }
  }
  return out;
}

std::vector<net::Ipv4Prefix> CollectorSnapshot::prefixes() const {
  std::vector<net::Ipv4Prefix> out;
  std::unordered_set<net::Ipv4Prefix> seen;
  for (const CollectorEntry& e : entries) {
    if (seen.insert(e.prefix).second) out.push_back(e.prefix);
  }
  return out;
}

std::vector<PrefixOrigins> CollectorSnapshot::origins_by_prefix() const {
  std::vector<PrefixOrigins> out;
  std::unordered_map<net::Ipv4Prefix, std::size_t> index;
  for (const CollectorEntry& e : entries) {
    const auto [it, inserted] = index.try_emplace(e.prefix, out.size());
    if (inserted) out.push_back({e.prefix, {}});
    std::vector<Asn>& origins = out[it->second].origins;
    const Asn origin = e.origin();
    if (std::find(origins.begin(), origins.end(), origin) == origins.end()) {
      origins.push_back(origin);
    }
  }
  return out;
}

Collector::Collector(std::string name, std::vector<Asn> peers)
    : name_(std::move(name)), peers_(std::move(peers)) {}

CollectorSnapshot Collector::snapshot(RoutingSystem& routing) const {
  return snapshot(routing, routing.all_prefixes());
}

CollectorSnapshot Collector::snapshot(
    RoutingSystem& routing,
    const std::vector<net::Ipv4Prefix>& prefixes) const {
  CollectorSnapshot snap;
  for (const net::Ipv4Prefix& prefix : prefixes) {
    for (Asn peer : peers_) {
      const RouteEntry* entry = routing.route_at(peer, prefix);
      if (entry == nullptr) continue;
      CollectorEntry e;
      e.prefix = prefix;
      e.peer = peer;
      e.as_path = routing.as_path(peer, prefix);
      if (e.as_path.empty()) continue;
      snap.entries.push_back(std::move(e));
    }
  }
  return snap;
}

SnapshotRpkiStats classify_snapshot(const CollectorSnapshot& snapshot,
                                    const rpki::VrpSet& vrps) {
  SnapshotRpkiStats stats;
  for (const auto& [prefix, origins] : snapshot.origins_by_prefix()) {
    ++stats.total_prefixes;
    if (vrps.is_covered(prefix)) ++stats.covered_prefixes;
    bool any_invalid = false;
    bool all_invalid = !origins.empty();
    for (Asn origin : origins) {
      const auto v = vrps.validate(prefix, origin);
      if (v == rpki::RouteValidity::kInvalid) {
        any_invalid = true;
      } else {
        all_invalid = false;
      }
    }
    if (any_invalid) ++stats.invalid_prefixes;
    if (all_invalid) ++stats.exclusively_invalid;
  }
  return stats;
}

}  // namespace rovista::bgp
