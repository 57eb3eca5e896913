// Rank-flattened Gao–Rexford propagation: the engine RoutingSystem
// converges every prefix with.
//
// An Adj-RIB-In fixed point (kept in tests/propagation_oracle.h as the
// reference) is exact but allocation-heavy: per-route vectors, per-AS
// hash maps, a work queue. This module computes the same stable state
// over arena/SoA arrays:
//
//   * FlatGraph — the AS graph compiled to index space: CSR neighbor
//     lists split by relationship class, plus a provider rank per AS
//     (Kahn over the customer→provider DAG; every provider ranks
//     strictly above each of its customers).
//   * FlatRouteTable — per-AS route state as parallel arrays, reused
//     across prefixes via an epoch stamp instead of a clear.
//   * propagate() — three-phase sweeps to a fixed point: customer
//     routes ride rank-ascending waves (UP), peers exchange once per
//     sweep (ACROSS — peer-learned routes never re-export to peers, so
//     one pass per sweep is complete), provider routes ride
//     rank-descending waves (DOWN). Sweeps repeat until a full sweep
//     changes no best route; plain Gao–Rexford stabilizes on the second
//     (certification) sweep.
//
// Determinism and equivalence contract (DESIGN.md, "Rank-flattened
// propagation"): the selection order is a strict total order — validity
// rank under prefer-valid, then local preference, then path length,
// then lowest next-hop ASN, which is unique per candidate because each
// candidate's next hop *is* the distinct offering neighbor — so the
// stable state is independent of visit order and bit-identical to the
// Adj-RIB-In fixed point's. A graph with a customer-provider cycle has
// no such state and cannot be compiled (FlatGraph::build throws);
// propagate() returns false instead of guessing when the sweep cap runs
// out, and RoutingSystem then refuses the prefix with an error.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "rpki/validation.h"
#include "topology/as_graph.h"

namespace rovista::bgp::flat {

using Asn = topology::Asn;

inline constexpr std::uint32_t kNoIdx = 0xffffffffu;

/// Sweeps propagate() runs before refusing a prefix. Plain Gao–Rexford
/// needs one working sweep plus one certifying sweep; prefer-valid
/// worlds occasionally need a third.
inline constexpr int kMaxSweeps = 16;

/// Compressed sparse rows: one neighbor list per AS index.
struct Csr {
  std::vector<std::uint32_t> offsets;  // size n + 1
  std::vector<std::uint32_t> targets;  // AS indices

  const std::uint32_t* begin(std::uint32_t i) const noexcept {
    return targets.data() + offsets[i];
  }
  const std::uint32_t* end(std::uint32_t i) const noexcept {
    return targets.data() + offsets[i + 1];
  }
};

/// The AS graph in index space. Built once per world configuration.
struct FlatGraph {
  std::vector<Asn> asn_of;  // index → ASN, AsGraph insertion order
  std::unordered_map<Asn, std::uint32_t> idx_of;
  Csr customers;  // neighbors that are my customers
  Csr peers;
  Csr providers;
  std::vector<std::uint32_t> rank;      // provider > each customer
  std::vector<std::uint32_t> up_order;  // indices by (rank, index) asc

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(asn_of.size());
  }

  /// Compile `graph`. Throws std::runtime_error naming the ASes on one
  /// customer-provider cycle when an AS is transitively its own
  /// provider: no rank order exists then.
  static FlatGraph build(const topology::AsGraph& graph);
};

/// Per-AS policy fields the hot loop needs, mirrored out of AsPolicy,
/// plus the validity-group assignment: ASes sharing group 0 validate
/// against the base VRPs; every SLURM-bearing AS gets a private group
/// and ASes bound to the same effective view share one. The caller
/// fills one validity matrix row per group per prefix instead of one
/// validity query per (AS, origin).
struct FlatPolicy {
  std::vector<std::uint8_t> rov_mode;  // bgp::RovMode per AS
  std::vector<double> coverage;        // session_coverage per AS
  std::vector<std::uint32_t> validity_group;
  std::vector<Asn> group_rep;  // group → representative ASN (0 = base)
};

/// Everything propagate() needs for one prefix.
struct PrefixInput {
  const FlatGraph* graph = nullptr;
  const FlatPolicy* policy = nullptr;
  net::Ipv4Prefix prefix;
  std::vector<std::uint32_t> origin_idx;  // originating AS indices
  // validity[g * origin_idx.size() + oi] = validity of (prefix,
  // origins[oi]) from the viewpoint of any AS in group g.
  std::vector<rpki::RouteValidity> validity;
};

/// Route state arena: four candidate slots per AS (best offer from
/// customers / peers / providers, plus the selected best), stored as
/// parallel arrays and recycled across prefixes by bumping `epoch` —
/// an AS whose stamp is stale simply has no state yet.
struct FlatRouteTable {
  static constexpr int kCust = 0;  // slot == relationship class
  static constexpr int kPeer = 1;
  static constexpr int kProv = 2;
  static constexpr int kBest = 3;
  static constexpr std::uint8_t kOriginates = 1u << 4;

  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint8_t> flags;     // bits 0-3: slot occupied; bit 4
  std::vector<std::uint8_t> best_cls;  // class of best (kCust for self)
  std::array<std::vector<std::uint32_t>, 4> next_hop;  // kNoIdx = self
  std::array<std::vector<std::uint32_t>, 4> origin_oi;
  std::array<std::vector<std::uint32_t>, 4> path_len;
  std::array<std::vector<std::uint8_t>, 4> validity;

  /// Size for `n` ASes and start a fresh prefix (O(1) amortized).
  void prepare(std::size_t n);

  bool live(std::uint32_t i) const noexcept { return stamp[i] == epoch; }
  bool has(std::uint32_t i, int slot) const noexcept {
    return live(i) && ((flags[i] >> slot) & 1u) != 0;
  }
  bool originates(std::uint32_t i) const noexcept {
    return live(i) && (flags[i] & kOriginates) != 0;
  }
  void touch(std::uint32_t i) noexcept {
    if (!live(i)) {
      stamp[i] = epoch;
      flags[i] = 0;
    }
  }

  /// Arena footprint in bytes (for BENCH_scale.json bytes/route).
  std::size_t bytes() const noexcept;

  /// FNV-1a over the best slot in index order — independent of how the
  /// table was filled, so any thread count must reproduce it.
  std::uint64_t digest() const noexcept;
};

/// Converge `in` into `table`. Returns false when the flat engine
/// cannot certify the exact fixed point within kMaxSweeps sweeps; the
/// table contents are then unspecified.
bool propagate(const PrefixInput& in, FlatRouteTable& table);

/// World-level cache bundling the compiled graph, policy mirrors and a
/// scratch table; RoutingSystem drops it whenever topology, policy or
/// view bindings change.
struct FlatState {
  FlatGraph graph;
  FlatPolicy policy;
  FlatRouteTable table;
};

}  // namespace rovista::bgp::flat
