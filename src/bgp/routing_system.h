// The interdomain routing engine.
//
// Computes, per prefix, the converged Loc-RIB of every AS under
// Gao–Rexford policies with per-AS ROV configuration. Computation is
// demand-driven and cached: RoVista only ever needs routes toward tNode
// prefixes and toward the prefixes hosting vVPs/measurement clients, so
// the engine never materializes the full N×P routing state.
//
// Every prefix converges on the rank-flattened engine
// (bgp/flat_propagation.h) over a compiled copy of the graph and the
// per-AS policies, and the result is compacted into 16-byte entries; AS
// paths are reconstructed on demand by walking next hops. The engine
// certifies the exact Gao–Rexford stable state or refuses: a graph
// whose customer-provider edges form a cycle, or a prefix that does not
// settle within the sweep cap, makes routes_for() throw
// std::runtime_error. tests/propagation_oracle.h keeps the Adj-RIB-In
// fixed point the engine is checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/policy.h"
#include "bgp/route.h"
#include "net/prefix_trie.h"
#include "rpki/validation.h"
#include "topology/as_graph.h"

namespace rovista::bgp {

namespace flat {
struct FlatState;
}

/// Compact converged-route entry for one AS (see routes_for()).
struct RouteEntry {
  Asn next_hop = 0;  // 0 => self-originated
  Asn origin = 0;
  NeighborKind learned_from = NeighborKind::kCustomer;
  rpki::RouteValidity validity = rpki::RouteValidity::kUnknown;
  std::uint16_t path_len = 0;  // number of ASes incl. the owner
};

using RouteMap = std::unordered_map<Asn, RouteEntry>;

class RoutingSystem {
 public:
  explicit RoutingSystem(const topology::AsGraph& graph);

  /// Cloning constructor: a copy of `other`'s complete routing state —
  /// policies, epochs, VRPs, SLURM/effective views, announcements and
  /// the converged-route cache — rebound to `graph` (normally the
  /// epoch's own copy of the AS graph). Converged RouteMaps are shared
  /// with `other`, not copied: a cached map is immutable and is only
  /// ever dropped and replaced, so sharing it is copy-on-write. The clone
  /// starts un-frozen; the epoch-snapshot publisher warms the source and
  /// freezes the clone before sharing it (snapshot/epoch_world.h).
  RoutingSystem(const RoutingSystem& other, const topology::AsGraph& graph);

  ~RoutingSystem();

  const topology::AsGraph& graph() const noexcept { return graph_; }

  // -- Freezing (epoch-snapshot publication) ---------------------------
  //
  // A frozen RoutingSystem is an immutable published artifact: freeze()
  // first *warms* every lazily-computed structure — converged routes for
  // every announced prefix, the SLURM-adjusted view of every configured
  // SLURM policy — and then locks the instance. After freeze(), every
  // query (routes_for, validity_for, route_at, as_path, ...) is a pure
  // read of fully-materialized state and is safe to issue from any
  // number of threads concurrently; every mutator (set_policy, set_vrps,
  // apply_vrp_delta, set_effective_views, announce, withdraw,
  // invalidate_*) throws std::logic_error instead of racing. A cache
  // miss after freeze() also throws: it would mean the warm set was
  // incomplete, which is a bug, and computing lazily would be a data
  // race — failing loudly is the only sound option.
  //
  // The publisher warms its mutable build world (warm()) and clones it,
  // so freezing the clone finds every cache already full and computes
  // nothing.

  /// Converge every announced prefix not yet cached and materialize the
  /// SLURM view of every configured SLURM policy. Returns how many
  /// prefixes it converged (0 when everything was already warm).
  std::size_t warm();

  /// warm(), then lock the instance. Idempotent.
  void freeze();
  bool frozen() const noexcept { return frozen_; }

  /// Mutation generation: require_mutable(), which every mutator calls
  /// first, moves it. Lazy fills — warm(), a routes_for() or route_at()
  /// miss, a SLURM view validity_for() materializes — compute what the
  /// state already determines and leave it alone. Equal generations
  /// mean no mutator ran in between (DESIGN.md, "World generations").
  std::uint64_t generation() const noexcept { return generation_; }

  // -- Policy ---------------------------------------------------------

  /// Install a policy (invalidates cached routes that ROV can affect).
  void set_policy(Asn asn, AsPolicy policy);
  const AsPolicy& policy(Asn asn) const noexcept;

  /// Monotonic counter bumped every time `asn`'s policy is (re)installed.
  /// Lets callers detect configuration changes without comparing policies
  /// structurally (incremental/score_cache.h fingerprints depend on it).
  std::uint64_t policy_epoch(Asn asn) const noexcept;

  // -- RPKI -----------------------------------------------------------

  /// Set the relying-party VRP output all ASes validate against
  /// (per-AS SLURM still applies on top). Invalidates the cache.
  void set_vrps(rpki::VrpSet vrps);
  const rpki::VrpSet& vrps() const noexcept { return base_vrps_; }

  /// Replace the VRP output like set_vrps(), but keep converged routes for
  /// every prefix whose validity provably did not change for any AS.
  /// `dirty` must hold all announced prefixes whose *base* validity
  /// flipped for some announced origin
  /// (incremental::DirtyPrefixTracker::dirty_prefixes); `announced` /
  /// `withdrawn` are the VRP-level delta between the old and new output
  /// (incremental::VrpDeltaComputer). ASes with SLURM files are handled
  /// per view: each view's delta *as seen through its filters and
  /// assertions* yields a per-view dirty-prefix set
  /// (rpki::SlurmFile::view_changed_prefixes + validity re-probe), the
  /// union of those with `dirty` is erased from the route cache, and the
  /// materialized views are patched in place
  /// (rpki::SlurmFile::apply_delta) instead of rebuilt — no policy epoch
  /// moves, so only genuinely affected prefixes re-converge. Sound
  /// because route selection consults VRPs exclusively through
  /// per-(prefix, origin) validities, base or per-view.
  void apply_vrp_delta(rpki::VrpSet vrps,
                       std::span<const net::Ipv4Prefix> dirty,
                       std::span<const rpki::Vrp> announced,
                       std::span<const rpki::Vrp> withdrawn);

  /// Bind per-AS *effective* relying-party views (fault degradation:
  /// stale serials, expired sessions, divergent RP implementations —
  /// see faults/fault_chain.h). View ids are 1-based indices into
  /// `views`; an AS absent from `bindings` (or bound to id 0) keeps
  /// consuming the base VRPs. Replaces any previous binding set.
  ///
  /// Cached routes survive except where an affected AS's effective
  /// validity actually flips for an announced (prefix, origin): every
  /// AS bound before or after is probed old-view vs new-view over the
  /// cached announced prefixes, mirroring the apply_vrp_delta()
  /// strategy. The base leg of each comparison uses the *current* base
  /// on both sides — base→base flips from the same round's VRP delta
  /// are already in the dirty set that install erased — so call this
  /// after the round's VRP install. SLURM views of affected ASes are
  /// rebuilt over their new effective base; set_vrps() clears all
  /// bindings. With no views bound before or after this is a no-op.
  void set_effective_views(
      std::vector<rpki::VrpSet> views,
      std::vector<std::pair<Asn, std::uint32_t>> bindings);

  /// Shared effective views currently installed / ASes bound to one.
  std::size_t effective_view_count() const noexcept {
    return effective_views_.size();
  }
  std::size_t effective_binding_count() const noexcept {
    return effective_bindings_.size();
  }

  /// Deterministic fingerprint of the installed effective views and the
  /// AS → view bindings (0 when none are installed). Content-sensitive:
  /// a fault window flipping one AS's view moves it even when the base
  /// VRPs are byte-identical — the property the epoch-snapshot digest
  /// (snapshot/epoch_world.h) relies on to witness zero-delta flips.
  std::uint64_t effective_views_fingerprint() const;

  /// Validity of (prefix, origin) from `asn`'s point of view: the AS's
  /// bound effective view (if fault degradation installed one) else the
  /// base VRPs, with that AS's SLURM file applied on top if it has one.
  rpki::RouteValidity validity_for(Asn asn, const net::Ipv4Prefix& prefix,
                                   Asn origin) const;

  /// Validity against the plain relying-party output (no SLURM).
  rpki::RouteValidity base_validity(const net::Ipv4Prefix& prefix,
                                    Asn origin) const;

  // -- Announcements ---------------------------------------------------

  /// Originate `prefix` from `origin`; multiple origins per prefix are
  /// allowed (MOAS / hijacks).
  void announce(const OriginAnnouncement& a);

  /// Withdraw an origination; returns false if it was not announced.
  bool withdraw(const OriginAnnouncement& a);

  /// Origins currently announcing `prefix` (exact match).
  std::vector<Asn> origins_of(const net::Ipv4Prefix& prefix) const;

  /// All announced prefixes covering `addr`, most specific first.
  std::vector<net::Ipv4Prefix> candidate_prefixes(net::Ipv4Address addr) const;

  /// Every announced prefix (exact set, unordered).
  std::vector<net::Ipv4Prefix> all_prefixes() const;

  // -- Routes -----------------------------------------------------------

  /// Converged routes for a prefix: AS → best route. Computed on first
  /// use and cached until invalidated. Throws std::runtime_error when the
  /// graph has a customer-provider cycle (naming the ASes on one) or the
  /// prefix does not converge within flat::kMaxSweeps sweeps.
  const RouteMap& routes_for(const net::Ipv4Prefix& prefix);

  /// The cached map routes_for() returns, as the shared handle clones
  /// hold (null when `prefix` is not converged). Two handles compare
  /// equal exactly when they name the same converged map.
  std::shared_ptr<const RouteMap> route_map(
      const net::Ipv4Prefix& prefix) const;

  /// The route entry at `asn` for `prefix`, or nullptr if none.
  const RouteEntry* route_at(Asn asn, const net::Ipv4Prefix& prefix);

  /// Reconstruct the full AS path (owner first, origin last) by walking
  /// next hops; empty if `asn` has no route.
  std::vector<Asn> as_path(Asn asn, const net::Ipv4Prefix& prefix);

  // -- Cache control ----------------------------------------------------

  void invalidate_prefix(const net::Ipv4Prefix& prefix);
  void invalidate_all();
  std::size_t cached_prefixes() const noexcept { return cache_.size(); }

  /// SLURM views currently materialized (apply_vrp_delta patches these in
  /// place; set_vrps / set_policy discard them). Observability hook for
  /// the incremental tests: a surviving view across a delta install is
  /// proof the engine did not fall back to a full rebuild.
  std::size_t slurm_view_count() const noexcept { return slurm_views_.size(); }

  /// Can ROV/SLURM policy affect this prefix's routes? True when some
  /// origin's validity is Invalid under the base or any installed
  /// effective view, when origins have mixed validity within or across
  /// those sets (prefer-valid territory), or when any *configured*
  /// policy carries a SLURM file (local exceptions can flip any
  /// validity). Decided from the configured policies and installed
  /// views alone, so the answer is independent of which validity_for()
  /// queries happened to have materialized SLURM views first.
  bool rov_sensitive(const net::Ipv4Prefix& prefix) const;

 private:
  /// Converge one prefix on the flat engine (see routes_for()).
  RouteMap compute_routes(const net::Ipv4Prefix& prefix) const;

  /// Compile graph + policy mirrors for the flat engine (lazily; any
  /// topology/policy/view change drops the compiled state). Throws
  /// std::runtime_error naming a customer-provider cycle
  /// (FlatGraph::build), so a graph edit that closes one is refused at
  /// the next convergence.
  flat::FlatState& flat_state() const;

  /// Throws std::logic_error if this instance is frozen, else moves the
  /// generation. Every mutator calls it first, so a published epoch can
  /// never be changed in place and no mutation goes uncounted.
  void require_mutable(const char* op);

  /// The SLURM-adjusted view of `asn` (materializing it from the AS's
  /// effective base if needed). Pre: policy(asn).has_slurm().
  rpki::VrpSet& slurm_view(Asn asn) const;

  /// The VRP set `asn` validates against before SLURM: its bound
  /// effective view if any, else the base VRPs.
  const rpki::VrpSet& effective_base(Asn asn) const;
  bool bound_to_view(Asn asn) const;

  const topology::AsGraph& graph_;
  std::unordered_map<Asn, AsPolicy> policies_;
  std::unordered_map<Asn, std::uint64_t> policy_epochs_;
  AsPolicy default_policy_;
  rpki::VrpSet base_vrps_;
  std::size_t slurm_policy_count_ = 0;  // configured policies with SLURM

  // SLURM-adjusted VRP views, built lazily per AS that has a SLURM file.
  mutable std::unordered_map<Asn, rpki::VrpSet> slurm_views_;

  // Fault-degraded effective views shared across ASes, plus the AS →
  // 1-based view-id binding (faults/fault_chain.h groups ASes by
  // degradation state). Empty in fault-free worlds.
  std::vector<rpki::VrpSet> effective_views_;
  std::unordered_map<Asn, std::uint32_t> effective_bindings_;

  net::PrefixTrie<std::vector<Asn>> announcements_;
  // Converged routes, shared with clones (see the cloning constructor).
  // A map is never mutated after insertion — only erased and replaced —
  // so sharing needs no lock beyond the refcount's own atomics.
  std::unordered_map<net::Ipv4Prefix, std::shared_ptr<const RouteMap>> cache_;
  // Compiled flat-engine state (graph CSR + rank order + policy
  // mirrors + scratch arena). Rebuilt lazily after set_policy /
  // set_effective_views / invalidate_all; VRP installs keep it — the
  // per-prefix validity matrix is always read fresh.
  mutable std::unique_ptr<flat::FlatState> flat_;
  bool frozen_ = false;
  std::uint64_t generation_ = 0;
};

}  // namespace rovista::bgp
