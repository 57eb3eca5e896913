// The forwarding plane: moves packets between hosts across the AS graph.
//
// Forwarding is hop-by-hop longest-prefix match over each AS's converged
// routes (control plane = RoutingSystem). ROV shows up here only through
// its control-plane effect — an ROV AS simply has no route toward an
// RPKI-invalid prefix — so collateral damage (a filtered /24 hiding
// behind a covering valid /20 at a non-ROV next hop, Fig. 9), default
// routes, and customer-exemption all emerge from ordinary LPM.
//
// Source-address based filters model the paper's other drop causes:
//   sav_egress               — BCP38 at the first hop (kills spoofing)
//   egress_drop_invalid_src  — tNode-side egress filtering (→ "inbound
//                              filtering" pattern, Fig. 2b)
//   ingress_drop_external    — destination AS drops unsolicited outside
//                              traffic (the §3.3(c) false-positive source)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/routing_system.h"
#include "dataplane/event_sim.h"
#include "dataplane/host.h"
#include "net/packet.h"
#include "util/rng.h"

namespace rovista::dataplane {

using Asn = topology::Asn;

/// Why a packet failed to arrive.
enum class DropReason {
  kNone,
  kNoRoute,          // some AS on the path had no FIB entry (ROV or gap)
  kLoop,             // forwarding loop detected
  kNoHost,           // reached the destination AS, no such host
  kSavEgress,        // spoofed source stopped at the first hop
  kEgressFilter,     // source-prefix egress filter at the origin AS
  kIngressFilter,    // destination AS drops external traffic
  kRandomLoss,
  kBlackholed,       // ROV++ hop refused to chase a covering route for a
                     // more-specific it filtered as RPKI-invalid
};

constexpr const char* drop_reason_name(DropReason r) noexcept {
  switch (r) {
    case DropReason::kNone:
      return "delivered";
    case DropReason::kNoRoute:
      return "no-route";
    case DropReason::kLoop:
      return "loop";
    case DropReason::kNoHost:
      return "no-host";
    case DropReason::kSavEgress:
      return "sav-egress";
    case DropReason::kEgressFilter:
      return "egress-filter";
    case DropReason::kIngressFilter:
      return "ingress-filter";
    case DropReason::kRandomLoss:
      return "random-loss";
    case DropReason::kBlackholed:
      return "blackholed";
  }
  return "?";
}

/// Per-AS data-plane filtering configuration.
struct FilterConfig {
  bool sav_egress = false;              // drop spoofed sources leaving here
  bool egress_drop_invalid_source = false;  // drop outbound from
                                            // RPKI-invalid source prefixes
  bool ingress_drop_external = false;   // drop inbound from outside the AS
};

/// Mutation generations of everything a plane's forwarding reads: the
/// AS graph, the routing system over it and the plane itself. Equal
/// values of one plane at two points mean no mutator of any of the
/// three ran in between (DESIGN.md, "World generations").
struct WorldGenerations {
  std::uint64_t graph = 0;
  std::uint64_t routing = 0;
  std::uint64_t plane = 0;

  bool operator==(const WorldGenerations&) const = default;
};

/// Result of a path computation.
struct PathResult {
  bool delivered = false;
  DropReason reason = DropReason::kNone;
  std::vector<Asn> hops;  // ASes traversed, starting at the source AS
};

class DataPlane {
 public:
  DataPlane(bgp::RoutingSystem& routing, std::uint64_t seed);

  Simulator& sim() noexcept { return sim_; }
  bgp::RoutingSystem& routing() noexcept { return routing_; }

  // -- Host management --------------------------------------------------

  /// Create a host inside `asn`. The address must be unused.
  /// Returns nullptr if the address is already taken.
  Host* add_host(Asn asn, HostConfig config);

  Host* host(net::Ipv4Address addr) noexcept;
  const Host* host(net::Ipv4Address addr) const noexcept;

  /// AS of a registered host address (0 if unknown).
  Asn as_of(net::Ipv4Address addr) const noexcept;

  // -- Filters and loss --------------------------------------------------

  void set_filter(Asn asn, FilterConfig filter);
  const FilterConfig& filter(Asn asn) const noexcept;

  /// Uniform per-packet loss probability (failure injection; default 0).
  void set_loss_probability(double p) noexcept {
    ++generation_;
    loss_prob_ = p;
  }
  double loss_probability() const noexcept { return loss_prob_; }

  // -- Sending -----------------------------------------------------------

  /// Send `packet` from a host inside `from_as`. Delivery (or silent
  /// drop) happens after per-hop latency. The source address in the
  /// packet may be spoofed; SAV at the first hop checks it.
  void send(Asn from_as, const net::Packet& packet);

  /// Control-plane path the packet would take. (Non-const: may populate
  /// the routing cache.)
  PathResult compute_path(Asn from_as, net::Ipv4Address dst);

  /// Full delivery check including filters, for diagnostics.
  PathResult evaluate(Asn from_as, const net::Packet& packet);

  /// Per-hop one-way latency (fixed, keeps timing deterministic).
  TimeUs hop_latency() const noexcept { return hop_latency_; }
  void set_hop_latency(TimeUs us) noexcept {
    ++generation_;
    hop_latency_ = us;
  }

  /// Mutation generation: add_host, set_filter, set_loss_probability and
  /// set_hop_latency move it. Sending packets does not: it changes host
  /// runtime state, which clone_fresh() and fingerprints never read.
  std::uint64_t generation() const noexcept { return generation_; }

  /// This plane's generation with those of its routing and graph.
  WorldGenerations world_generations() const noexcept {
    return {routing_.graph().generation(), routing_.generation(),
            generation_};
  }

  // -- Replication --------------------------------------------------------

  /// Re-instantiate this plane against `routing`: same seed, filters,
  /// loss and latency, and a pristine copy of every host (fresh IP-ID
  /// counters, background RNG and simulator clock, exactly as at
  /// construction time). The replica shares no mutable state with the
  /// original, so it may run on a different thread — but `routing` must
  /// then be a private copy too, because path computation populates the
  /// routing cache.
  std::unique_ptr<DataPlane> clone_fresh(bgp::RoutingSystem& routing) const;

  // -- Statistics ---------------------------------------------------------

  std::uint64_t packets_sent() const noexcept { return packets_sent_; }
  std::uint64_t packets_delivered() const noexcept {
    return packets_delivered_;
  }
  std::uint64_t packets_dropped(DropReason r) const noexcept;

 private:
  /// True if `addr` is homed in `asn` (its covering announced prefix is
  /// originated there, or a host with that address is registered there).
  bool address_in_as(net::Ipv4Address addr, Asn asn) const;

  /// True if every announced origin of the most specific prefix covering
  /// `addr` is RPKI-invalid.
  bool source_is_invalid_prefix(net::Ipv4Address addr) const;

  void count_drop(DropReason r) { ++drops_[static_cast<int>(r)]; }

  bgp::RoutingSystem& routing_;
  Simulator sim_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Host>> hosts_;
  std::unordered_map<std::uint32_t, Asn> host_as_;
  std::unordered_map<Asn, FilterConfig> filters_;
  FilterConfig default_filter_;
  double loss_prob_ = 0.0;
  TimeUs hop_latency_ = 2000;  // 2 ms per AS hop
  std::uint64_t generation_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::unordered_map<int, std::uint64_t> drops_;
};

}  // namespace rovista::dataplane
