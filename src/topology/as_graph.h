// AS-level topology with CAIDA-style business relationships.
//
// Edges carry the standard two relationship kinds: customer-to-provider
// (c2p, asymmetric) and peer-to-peer (p2p, symmetric). The BGP layer
// interprets them with Gao–Rexford export rules; the analysis layer uses
// them for customer cones and AS rank (paper §7.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace rovista::topology {

using Asn = std::uint32_t;

/// The five Regional Internet Registries (RPKI trust-anchor operators).
enum class Rir { kApnic, kRipeNcc, kArin, kAfrinic, kLacnic };

constexpr const char* rir_name(Rir r) noexcept {
  switch (r) {
    case Rir::kApnic:
      return "APNIC";
    case Rir::kRipeNcc:
      return "RIPE NCC";
    case Rir::kArin:
      return "ARIN";
    case Rir::kAfrinic:
      return "AFRINIC";
    case Rir::kLacnic:
      return "LACNIC";
  }
  return "?";
}

constexpr int kRirCount = 5;

/// Static attributes of an AS.
struct AsInfo {
  Asn asn = 0;
  std::string name;
  Rir rir = Rir::kArin;
  std::string country = "ZZ";
  int tier = 3;  // 1 = clique, 2 = transit, 3 = stub/edge (informational)
};

/// How one AS relates to a neighbor.
enum class NeighborKind { kProvider, kCustomer, kPeer };

struct Neighbor {
  Asn asn;
  NeighborKind kind;
};

/// Mutable AS relationship graph.
class AsGraph {
 public:
  /// Mutation generation: every call to a mutator below (add_as,
  /// add_p2c, add_p2p, set_relationship, remove_edge) moves it, refused
  /// calls included. Equal generations of one graph mean no mutator ran
  /// in between, so state derived from the graph is still current
  /// (DESIGN.md, "World generations"). A copy starts at its source's.
  std::uint64_t generation() const noexcept { return generation_; }

  /// Add an AS; returns false if the ASN already exists.
  bool add_as(AsInfo info);

  bool contains(Asn asn) const noexcept;
  const AsInfo* info(Asn asn) const noexcept;

  /// Add a customer-to-provider edge. Returns false if either AS is
  /// missing, the edge exists, or it would duplicate/contradict an edge.
  bool add_p2c(Asn provider, Asn customer);

  /// Add a peer-to-peer edge (symmetric).
  bool add_p2p(Asn a, Asn b);

  /// Change the relationship of an existing edge (or create it):
  /// `kind_of_b` is b's role from a's view (e.g. kCustomer makes a the
  /// provider). Models real-world re-homing events such as a network
  /// becoming a customer of a former peer.
  bool set_relationship(Asn a, Asn b, NeighborKind kind_of_b);

  /// Remove any edge between a and b; returns true if one existed.
  bool remove_edge(Asn a, Asn b);

  /// Neighbor sets (stable insertion order).
  const std::vector<Asn>& providers(Asn asn) const noexcept;
  const std::vector<Asn>& customers(Asn asn) const noexcept;
  const std::vector<Asn>& peers(Asn asn) const noexcept;

  /// All neighbors with their relationship kind (from `asn`'s view).
  std::vector<Neighbor> neighbors(Asn asn) const;

  /// Relationship of `neighbor` from `asn`'s point of view, if adjacent.
  std::optional<NeighborKind> relationship(Asn asn, Asn neighbor) const;

  /// ASes with no providers (candidate tier-1s / clique members).
  std::vector<Asn> transit_free() const;

  std::vector<Asn> all_asns() const;
  std::size_t size() const noexcept { return nodes_.size(); }

 private:
  struct Node {
    AsInfo info;
    std::vector<Asn> providers;
    std::vector<Asn> customers;
    std::vector<Asn> peers;
  };

  const Node* node(Asn asn) const noexcept;
  Node* node(Asn asn) noexcept;

  std::unordered_map<Asn, Node> nodes_;
  std::vector<Asn> insertion_order_;
  std::uint64_t generation_ = 0;
  static const std::vector<Asn> kEmpty;
};

/// The ASes on one customer-provider cycle, each a provider of the next
/// and the last a provider of the first; empty when the p2c edges form a
/// DAG. Gao–Rexford routing has no stable state to converge to on a
/// cycle, so the CAIDA loader and the routing engine refuse such graphs.
std::vector<Asn> find_customer_cycle(const AsGraph& graph);

/// "customer-provider cycle: AS1 -> AS2 -> AS3 -> AS1" for a non-empty
/// find_customer_cycle() result; each arrow points provider -> customer.
std::string describe_customer_cycle(const std::vector<Asn>& cycle);

}  // namespace rovista::topology
