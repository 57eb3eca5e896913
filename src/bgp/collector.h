// BGP route collectors (the RouteViews / RIPE RIS role).
//
// A collector peers with a subset of ASes and records the routes those
// peers would export to it (treated as a customer session so peers export
// everything in their Loc-RIB). Coverage is deliberately partial — the
// paper notes collectors have limited visibility (§6.4), which is why
// RoVista must verify that a tNode prefix is *exclusively* announced by
// the wrong origin before using it.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/routing_system.h"
#include "rpki/validation.h"

namespace rovista::bgp {

/// One observed table entry at the collector.
struct CollectorEntry {
  net::Ipv4Prefix prefix;
  std::vector<Asn> as_path;  // from the peer toward the origin
  Asn peer = 0;              // which feed it came from

  Asn origin() const noexcept { return as_path.empty() ? 0 : as_path.back(); }
};

/// One observed prefix and the distinct origins seen announcing it.
struct PrefixOrigins {
  net::Ipv4Prefix prefix;
  std::vector<Asn> origins;
};

/// A snapshot of everything a collector sees for a set of prefixes.
///
/// The queries scan `entries`; nothing is indexed. Code that needs the
/// origins of every prefix calls origins_by_prefix(), one pass, rather
/// than origins_of() per prefix, which is quadratic in the table.
struct CollectorSnapshot {
  std::vector<CollectorEntry> entries;

  /// Distinct origins observed for `prefix`, in first-seen order.
  std::vector<Asn> origins_of(const net::Ipv4Prefix& prefix) const;

  /// All distinct prefixes observed, in first-seen order.
  std::vector<net::Ipv4Prefix> prefixes() const;

  /// Each distinct prefix with its origins, in one walk of `entries`:
  /// element i is {prefixes()[i], origins_of(prefixes()[i])}.
  std::vector<PrefixOrigins> origins_by_prefix() const;
};

class Collector {
 public:
  Collector(std::string name, std::vector<Asn> peers);

  const std::string& name() const noexcept { return name_; }
  const std::vector<Asn>& peers() const noexcept { return peers_; }

  /// Dump the current tables of all peers for every announced prefix.
  CollectorSnapshot snapshot(RoutingSystem& routing) const;

  /// Dump only the given prefixes (cheaper for targeted monitoring).
  CollectorSnapshot snapshot(RoutingSystem& routing,
                             const std::vector<net::Ipv4Prefix>& prefixes) const;

 private:
  std::string name_;
  std::vector<Asn> peers_;
};

/// Classification of a collector snapshot against a VRP set (drives the
/// paper's Figure 1 series).
struct SnapshotRpkiStats {
  std::size_t total_prefixes = 0;
  std::size_t covered_prefixes = 0;    // at least one VRP covers it
  std::size_t invalid_prefixes = 0;    // some observed origin is invalid
  std::size_t exclusively_invalid = 0; // *every* observed origin invalid
};

SnapshotRpkiStats classify_snapshot(const CollectorSnapshot& snapshot,
                                    const rpki::VrpSet& vrps);

}  // namespace rovista::bgp
