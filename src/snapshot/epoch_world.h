// Epoch-snapshot world state: one immutable world serving N readers.
//
// Building a full private world per measurement worker would make the
// clone cost and the memory wall scale with the thread count. The
// epoch-snapshot engine splits mutable installation from immutable
// publication instead:
//
//   * an EpochWorld is a frozen, fully-materialized copy of everything
//     measurement reads but never writes — the AS graph, the complete
//     routing state (converged routes for every announced prefix, SLURM
//     and fault-degraded VRP views materialized; see
//     bgp::RoutingSystem::freeze) — plus a pristine *template* data
//     plane from which each reader stamps out its private host state.
//     Routes converge in the publisher's build world, and every epoch
//     shares the build world's immutable per-prefix RouteMaps instead
//     of copying them. All of it but the date is one FrozenState, which
//     consecutive epochs share while the build world does not change,
//   * readers pin an epoch through an EpochRef (refcounted handle),
//     borrow the shared routing read-only, and own only the genuinely
//     mutable slice: hosts (IP-ID counters, background RNG), the
//     simulator clock and the measurement clients,
//   * the EpochPublisher (epoch_publisher.h) keeps applying VRP deltas,
//     policy changes and fault-view flips to its private build copy and
//     atomically publishes fresh epochs; in-flight readers keep their
//     pinned epoch until release, at which point the last release frees
//     it (grace period by refcount — no epoch dies while pinned, and no
//     chain of dead epochs accumulates).
//
// Lifecycle contract (see DESIGN.md, "Epoch-snapshot world state"):
//   pin (EpochRef copy/acquire) → read (any thread, any count) →
//   release (EpochRef destruction). digest() is computed once at
//   publish time from the date and the state's digest, itself built from
//   memoized per-prefix sub-digests (DigestMemo);
//   recompute_digest() walks the live state from scratch and must
//   return the same value at any point between pin and release,
//   regardless of how many epochs were published concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "bgp/routing_system.h"
#include "core/parallel_round.h"
#include "dataplane/dataplane.h"
#include "scan/measurement_client.h"
#include "topology/as_graph.h"
#include "util/date.h"

namespace rovista::scenario {
class Scenario;
}

namespace rovista::snapshot {

using util::Date;

/// Per-prefix sub-digests of converged routes, kept by the publisher
/// across publishes so an epoch digest costs O(changed prefixes) route
/// walks. An entry is valid while the routing system still caches the
/// very RouteMap it was computed from: maps are immutable and only ever
/// replaced, and announce/withdraw always replace the prefix's map, so
/// map identity pins both the routes and the origins. Holding the
/// shared map in the entry keeps its address from being reused.
class DigestMemo {
 public:
  /// The state digest of `routing` (every announced prefix converged):
  /// the epoch digest without its date. Equals
  /// FrozenState::recompute_digest() of that state.
  std::uint64_t digest(const bgp::RoutingSystem& routing);

 private:
  struct Entry {
    std::shared_ptr<const bgp::RouteMap> routes;
    std::uint64_t digest = 0;
  };
  std::unordered_map<net::Ipv4Prefix, Entry> entries_;
};

/// What an epoch freezes of the build world, everything but the date: a
/// copy of the AS graph, a frozen clone of the routing system bound to
/// that copy, a pristine template plane over the clone, the measurement
/// clients, and the digest of that state. Immutable once built. The
/// publisher shares one among consecutive epochs while no generation of
/// the build world moves (EpochPublisher::publish).
class FrozenState {
 public:
  /// Materialize `world`'s current state. Shares nothing mutable with
  /// `world`, which is free to keep evolving. The routing clone shares
  /// `world`'s converged RouteMaps, which are immutable; warm `world`
  /// first (RoutingSystem::warm) so the clone's freeze computes
  /// nothing. `digests` is the publisher's sub-digest memo.
  FrozenState(const scenario::Scenario& world, DigestMemo& digests);

  FrozenState(const FrozenState&) = delete;
  FrozenState& operator=(const FrozenState&) = delete;

  const topology::AsGraph& graph() const noexcept { return *graph_; }
  /// Non-const for the reason EpochWorld::shared_routing() gives.
  bgp::RoutingSystem& routing() const noexcept { return *routing_; }
  const dataplane::DataPlane& template_plane() const noexcept {
    return *template_plane_;
  }

  topology::Asn client_as_a() const noexcept { return client_as_a_; }
  topology::Asn client_as_b() const noexcept { return client_as_b_; }
  net::Ipv4Address client_addr_a() const noexcept { return client_addr_a_; }
  net::Ipv4Address client_addr_b() const noexcept { return client_addr_b_; }

  /// Digest of the frozen routing state, memoized at construction.
  std::uint64_t digest() const noexcept { return digest_; }

  /// The same digest walked from scratch over every route (the oracle
  /// for the memoized digest()).
  std::uint64_t recompute_digest() const;

 private:
  std::unique_ptr<topology::AsGraph> graph_;
  std::unique_ptr<bgp::RoutingSystem> routing_;  // frozen after ctor
  std::unique_ptr<dataplane::DataPlane> template_plane_;
  topology::Asn client_as_a_ = 0;
  topology::Asn client_as_b_ = 0;
  net::Ipv4Address client_addr_a_;
  net::Ipv4Address client_addr_b_;
  std::uint64_t digest_ = 0;
};

class EpochWorld {
 public:
  /// An immutable epoch of `state` on `date`. `live` is the publisher's
  /// live-epoch counter (may be null for standalone epochs).
  EpochWorld(std::shared_ptr<const FrozenState> state, Date date,
             std::uint64_t sequence, std::shared_ptr<std::atomic<long>> live);
  ~EpochWorld();

  EpochWorld(const EpochWorld&) = delete;
  EpochWorld& operator=(const EpochWorld&) = delete;

  /// Monotone publish sequence number (1-based).
  std::uint64_t sequence() const noexcept { return sequence_; }
  Date date() const noexcept { return date_; }

  /// Digest of the published state and the date: the date combined with
  /// the state's memoized digest (FrozenState::digest). An opaque
  /// content digest: equal states on equal dates give equal digests
  /// within one build, and nothing stores it.
  std::uint64_t digest() const noexcept { return digest_; }

  /// Recompute the digest from the live frozen state, walking every
  /// route (the oracle for the memoized digest()). Immutability
  /// property: equals digest() for the epoch's entire lifetime.
  std::uint64_t recompute_digest() const;

  /// The frozen state, shared with every epoch published while the build
  /// world did not change.
  const FrozenState& state() const noexcept { return *state_; }

  /// The shared frozen routing state. Returned non-const because the
  /// dataplane API threads RoutingSystem& through (demand-cached in
  /// mutable worlds); on a frozen instance every query is a pure read
  /// and every mutator throws, so handing the reference to N readers is
  /// sound. See bgp::RoutingSystem::freeze().
  bgp::RoutingSystem& shared_routing() const noexcept {
    return state_->routing();
  }

  const topology::AsGraph& graph() const noexcept { return state_->graph(); }
  const dataplane::DataPlane& template_plane() const noexcept {
    return state_->template_plane();
  }

  topology::Asn client_as_a() const noexcept { return state_->client_as_a(); }
  topology::Asn client_as_b() const noexcept { return state_->client_as_b(); }
  net::Ipv4Address client_addr_a() const noexcept {
    return state_->client_addr_a();
  }
  net::Ipv4Address client_addr_b() const noexcept {
    return state_->client_addr_b();
  }

  /// Current pin count (EpochRefs alive). Diagnostics/tests only.
  long pins() const noexcept { return pins_.load(std::memory_order_relaxed); }

 private:
  friend class EpochRef;

  std::shared_ptr<const FrozenState> state_;
  std::uint64_t sequence_ = 0;
  Date date_;
  std::uint64_t digest_ = 0;
  mutable std::atomic<long> pins_{0};
  std::shared_ptr<std::atomic<long>> live_;  // publisher's live-epoch gauge
};

/// Refcounted pin on an epoch. Copyable (copy = additional pin); the
/// epoch is freed when the publisher has moved on *and* the last ref
/// releases — never while pinned.
class EpochRef {
 public:
  EpochRef() = default;
  explicit EpochRef(std::shared_ptr<const EpochWorld> world)
      : world_(std::move(world)) {
    pin();
  }
  EpochRef(const EpochRef& other) : world_(other.world_) { pin(); }
  EpochRef(EpochRef&& other) noexcept : world_(std::move(other.world_)) {
    other.world_.reset();
  }
  EpochRef& operator=(const EpochRef& other) {
    if (this != &other) {
      unpin();
      world_ = other.world_;
      pin();
    }
    return *this;
  }
  EpochRef& operator=(EpochRef&& other) noexcept {
    if (this != &other) {
      unpin();
      world_ = std::move(other.world_);
      other.world_.reset();
    }
    return *this;
  }
  ~EpochRef() { unpin(); }

  explicit operator bool() const noexcept { return world_ != nullptr; }
  const EpochWorld& world() const noexcept { return *world_; }
  const EpochWorld* operator->() const noexcept { return world_.get(); }

  void reset() {
    unpin();
    world_.reset();
  }

 private:
  void pin() const {
    if (world_) world_->pins_.fetch_add(1, std::memory_order_relaxed);
  }
  void unpin() const {
    if (world_) world_->pins_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::shared_ptr<const EpochWorld> world_;
};

/// A reader borrowing one epoch: private plane (cloned pristine from the
/// epoch's template against the shared frozen routing) plus the two
/// standard measurement clients, registered A-then-B exactly like a
/// serially built world — so observations are bit-identical to a world
/// built from scratch at the epoch's date. Holding the EpochRef keeps
/// the epoch alive for the reader's lifetime.
class EpochReader final : public core::MeasurementReplica {
 public:
  explicit EpochReader(EpochRef epoch);

  dataplane::DataPlane& plane() override { return *plane_; }
  scan::MeasurementClient& client() override { return *client_a_; }

  scan::MeasurementClient& client_a() noexcept { return *client_a_; }
  scan::MeasurementClient& client_b() noexcept { return *client_b_; }
  const EpochWorld& epoch() const noexcept { return epoch_.world(); }

 private:
  EpochRef epoch_;
  std::unique_ptr<dataplane::DataPlane> plane_;
  std::unique_ptr<scan::MeasurementClient> client_a_;
  std::unique_ptr<scan::MeasurementClient> client_b_;
};

}  // namespace rovista::snapshot
