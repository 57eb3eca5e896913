// EpochPublisher: the single-writer side of the epoch-snapshot engine.
//
// The publisher owns a private *build* Scenario — the only mutable world
// in the system. Rounds advance it (policy events, announcement churn,
// relying-party reruns, VRP deltas, fault-view flips) through
// Scenario::advance_to; publish() then materializes the current state
// into an immutable EpochWorld and swaps it in as the current epoch
// under a mutex. Readers pin whatever epoch is current at acquire time
// and keep it until they release — a publish never blocks on readers
// and never invalidates a pinned epoch.
//
// Demand-warmed epochs: publish() converges every announced prefix on
// the build world itself (RoutingSystem::warm), so converged routes
// survive across rounds and a publish re-converges only the prefixes the
// advance since the last one erased (VRP delta, announce/withdraw,
// policy and fault-view changes, the invalidate_all fence). The epoch's
// routing clone then shares every immutable RouteMap with the build
// world and with older epochs, and its digest re-walks only the maps
// that changed (DigestMemo).
//
// Unchanged days share more: when the build world's graph, routing and
// plane generations (dataplane::WorldGenerations) equal those the last
// epoch's FrozenState was built at, no mutator has run since, and the
// new epoch reuses that state — graph copy, frozen routing, template
// plane and state digest — instead of copying and digesting the world
// again. Only its sequence number, date and digest are new. Epochs hold
// the state, not each other, so live_epochs() still counts epochs.
//
// Publish ordering contract: everything the new epoch must reflect
// happens-before the swap (the EpochWorld constructor copies and
// freezes under the publisher thread), and the mutex acquire/release
// pair orders the swap against concurrent current() calls, so a reader
// either sees the complete old epoch or the complete new one — never a
// half-installed world.
//
// Memory reclamation: current_ holds one strong reference; each
// EpochRef holds another through its shared_ptr. Publishing drops the
// publisher's reference to the previous epoch, so it is destroyed the
// moment the last reader releases (or immediately, if unpinned) — the
// grace period is exactly the lifetime of the outstanding pins, and the
// chain of live epochs is bounded by (1 + number of distinct epochs
// still pinned). live_epochs() exposes that gauge for the lifecycle
// tests.
//
// Contract: no MeasurementClient may ever be registered on the build
// world's plane. Client capture hosts belong to readers; registering
// one here would leak it into every template plane published afterward
// and collide with the readers' own registration.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "scenario/scenario.h"
#include "snapshot/epoch_world.h"

namespace rovista::snapshot {

class EpochPublisher {
 public:
  /// Build a fresh world from `params` (not yet advanced, nothing
  /// published — call advance_to + publish for the first epoch).
  explicit EpochPublisher(scenario::ScenarioParams params);

  /// Adopt an existing build world (checkpoint restore hands over the
  /// replayed Scenario instead of rebuilding from scratch).
  explicit EpochPublisher(std::unique_ptr<scenario::Scenario> world);

  /// The mutable build world. Publisher-thread only.
  scenario::Scenario& world() noexcept { return *world_; }
  const scenario::Scenario& world() const noexcept { return *world_; }

  /// Advance the build world (see Scenario::advance_to). Publisher-
  /// thread only; does not publish.
  void advance_to(Date date) { world_->advance_to(date); }
  scenario::AdvanceStats advance_to(Date date,
                                    const scenario::VrpInstaller& installer) {
    return world_->advance_to(date, installer);
  }

  /// Warm the build world, materialize its current state as a new
  /// immutable epoch (sharing the last epoch's FrozenState when no
  /// generation moved since) and make it current. Returns a pin on the
  /// new epoch.
  EpochRef publish();

  /// Whether the latest publish() shared the previous epoch's state.
  bool last_publish_shared() const noexcept { return last_shared_; }

  /// Pin the current epoch (any thread). Empty ref if nothing has been
  /// published yet.
  EpochRef current() const;

  /// Epochs published so far.
  std::uint64_t published_epochs() const noexcept {
    return sequence_.load(std::memory_order_relaxed);
  }

  /// Epochs currently alive (current + any still pinned by readers).
  /// The lifecycle tests assert this never grows without bound.
  long live_epochs() const noexcept {
    return live_->load(std::memory_order_relaxed);
  }

  /// Pin-leak diagnostic: when a publish() leaves more than `depth`
  /// epochs alive, log one kWarn line per stuck epoch (sequence, digest
  /// and current pin count) so a reader that forgot to release its
  /// EpochRef is attributable. 0 disables the check (the default —
  /// deep chains are legitimate while many readers straddle rounds).
  void set_live_epoch_warn_depth(long depth) noexcept {
    warn_depth_.store(depth, std::memory_order_relaxed);
  }
  long live_epoch_warn_depth() const noexcept {
    return warn_depth_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<scenario::Scenario> world_;
  DigestMemo digests_;  // publisher-thread only
  // The latest epoch's frozen state and the build world's generations
  // it was built at. Publisher-thread only.
  std::shared_ptr<const FrozenState> state_;
  dataplane::WorldGenerations state_generations_;
  bool last_shared_ = false;
  std::shared_ptr<std::atomic<long>> live_;
  std::atomic<std::uint64_t> sequence_{0};
  std::atomic<long> warn_depth_{0};
  mutable std::mutex current_mutex_;
  std::shared_ptr<const EpochWorld> current_;
  /// Every published epoch, weakly held; pruned on publish. Guarded by
  /// current_mutex_.
  std::vector<std::weak_ptr<const EpochWorld>> published_;
};

}  // namespace rovista::snapshot
