// Incremental longitudinal engine: runs a dated sequence of measurement
// rounds against one evolving scenario, recomputing only what each
// round's VRP delta actually dirtied.
//
// Per round the engine
//   1. advances a long-lived *tracking* scenario to the round date,
//      installing the new relying-party output via
//      RoutingSystem::apply_vrp_delta so only dirty prefixes lose their
//      converged routes (VrpDeltaComputer + DirtyPrefixTracker),
//   2. publishes the round's epoch and reuses the previous round's
//      vVP/tNode lists when provably nothing the acquisition pipeline
//      reads changed (no timeline events and no announced prefix touched
//      by the delta); otherwise re-acquires on a reader of the epoch
//      exactly like a from-scratch round,
//   3. fingerprints every (vVP, tNode) pair on the tracking world
//      (dataplane/fingerprint.h) and re-runs — through the parallel
//      engine's canonical slots (ParallelRoundRunner::run_rows) — only
//      the vVP rows containing some pair whose fingerprint changed,
//      merging cached observations for the rest (ScoreCache). The
//      fingerprints come from a FingerprintMemo: each distinct journey
//      and address stream is computed once per round and compared word
//      for word with last round's; a pair whose streams all match keeps
//      the fingerprint its cache entry holds, every other pair is
//      re-hashed from the memoized words. When no generation of the
//      tracking world moved and the pairs are last round's, last
//      round's memo is kept whole instead. The memo is committed with
//      the cache stores and dropped by restore(),
//   4. aggregates and records the scores into a LongitudinalStore,
//   5. appends the round's frame to the series' RVLA archive — the one
//      durable round history — and then checkpoints, so a checkpoint
//      only ever names frames the archive has committed.
//
// Contract: every round's MeasurementRound is bit-identical to a full
// from-scratch recompute at that date, for any thread count. Whenever a
// precondition for reuse fails (lists changed, cache shape mismatch),
// the engine re-runs that part in full rather than guess — the cache
// only ever skips work it can prove redundant. The full recompute it is
// held to lives only in tests/series_oracle.h. See DESIGN.md,
// "Incremental longitudinal engine".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analytics/rvla_io.h"
#include "core/longitudinal.h"
#include "core/rovista.h"
#include "incremental/fingerprint_memo.h"
#include "incremental/score_cache.h"
#include "incremental/vrp_delta.h"
#include "persist/checkpoint.h"
#include "persist/checkpoint_io.h"
#include "scenario/scenario.h"
#include "snapshot/epoch_publisher.h"

namespace rovista::incremental {

using util::Date;

struct IncrementalConfig {
  scenario::ScenarioParams params;
  core::RovistaConfig rovista;

  /// Non-empty → run_round writes a crash-safe checkpoint (RVCP format,
  /// docs/FORMATS.md) under this directory every `checkpoint_every`
  /// completed rounds, and the destructor writes a final one if rounds
  /// ran since the last write. Writes commit in place into the
  /// directory's two slots through one CheckpointWriter the runner holds
  /// for its life. A checkpoint points into the series' archive (see
  /// `archive_dir`) instead of holding the rounds, so its size does not
  /// grow with the series. resume_from_checkpoint() restores from the
  /// same directory. `checkpoint_every` <= 0 writes no periodic
  /// checkpoint: the caller calls write_checkpoint() itself.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  /// Embedder-chosen guard stored in the checkpoint and compared on
  /// resume (the CLI hashes its series arguments — start date, interval,
  /// round count scale — into it, so a checkpoint cannot silently resume
  /// a differently-shaped series). Zero means "no extra guard".
  std::uint64_t checkpoint_user_tag = 0;

  /// Where every completed round durably appends one frame to the
  /// series' RVLA archive (docs/FORMATS.md §5), the series' only round
  /// history. Empty → checkpoint_dir (the two formats' file names do
  /// not collide); both empty → no archive. A cold start's first round
  /// creates a fresh archive; restore() continues the existing one. Each
  /// round is an O(frame) append on the writer's held descriptors: the
  /// frame is fdatasynced, then the head is committed in place into its
  /// slot pair. An append that fails turns the archive off for the
  /// runner's life, and with it every later checkpoint. `rovista
  /// analyze` and ScoreFeed::seed_from_archive consume the archive.
  std::string archive_dir;
};

/// What one round did and what it cost.
struct RoundReport {
  Date date;
  std::size_t events = 0;            // timeline events applied this round
  std::size_t vrp_announced = 0;     // VRP delta vs the previous round
  std::size_t vrp_withdrawn = 0;
  std::size_t touched_announced = 0; // announced prefixes covered by delta
  std::size_t dirty_prefix_count = 0;  // announced prefixes whose validity
                                       // flipped (re-converged in BGP)
  bool discovery_reused = false;     // vVP/tNode lists carried over
  bool matrix_reset = false;         // score cache had to start over
  std::size_t total_rows = 0;        // vVP rows in the matrix
  std::size_t dirty_rows = 0;        // rows actually re-measured
  std::size_t total_pairs = 0;
  std::size_t executed_pairs = 0;
  std::size_t reused_pairs = 0;
  std::size_t rehashed_pairs = 0;    // fingerprints re-hashed; the rest
                                     // were unchanged and kept the cache's
  // Which generation-keyed reuses the round took (DESIGN.md, "World
  // generations"); for tests, printed nowhere.
  bool relying_party_skipped = false;  // RP and VRP install skipped
  bool epoch_shared = false;           // epoch shares the last one's state
  bool memo_kept = false;              // last round's memo kept whole
  core::RoundHealth health;          // distribution-chain health (all
                                     // zeros in fault-free worlds)
  core::MeasurementRound round;      // bit-identical to a full recompute
};

/// The one VRP install path, shared by run_round and checkpoint replay:
/// resume bit-identity rests on the replayed world evolving through the
/// very same delta/dirty computation and install call as the original
/// process did. Installs by apply_vrp_delta, so only dirty prefixes lose
/// their converged routes. Fills the delta fields of `report` when
/// non-null (replay passes none).
scenario::VrpInstaller make_vrp_installer(RoundReport* report);

class IncrementalLongitudinalRunner {
 public:
  explicit IncrementalLongitudinalRunner(IncrementalConfig config);
  ~IncrementalLongitudinalRunner();

  /// Run the round at `date` (dates must be non-decreasing across calls)
  /// and record its scores into the store.
  RoundReport run_round(Date date);

  const core::LongitudinalStore& store() const noexcept { return store_; }
  const IncrementalConfig& config() const noexcept { return config_; }

  // --- checkpoint / resume (src/persist, docs/FORMATS.md) ---
  //
  // Resume contract: a runner restored from the checkpoint written after
  // round k produces, for every subsequent round, scores / store indexes
  // / published CSVs / archive bytes identical to an uninterrupted
  // runner, at any thread count. Neither the tracking world nor the
  // store is serialized: restore() streams the k archive frames the
  // checkpoint names, rebuilding the store from them and *replaying*
  // Scenario::advance_to over their dates with the exact install path
  // run_round uses (deterministic, measurement-free, so far cheaper than
  // re-running rounds), then oracle-checks the replayed relying-party
  // output against the stored VRP snapshot and refuses to resume on any
  // mismatch.

  /// Digest over every config field that determines measurement output
  /// (num_threads and the checkpoint knobs excluded — resuming at a
  /// different thread count is explicitly supported; output is
  /// thread-invariant).
  static std::uint64_t config_digest(const IncrementalConfig& config);

  /// Snapshot the runner's complete resumable state.
  persist::CheckpointState checkpoint_state() const;

  /// Adopt `state`: verify digests, stream the archive frames it names
  /// from archive_dir() (refused when the archive is missing, holds
  /// fewer frames, or another length or CRC), rebuild the store and
  /// replay the tracking world from them, and restore cache + discovery
  /// lists. Only once every check has passed is the archive cut back to
  /// exactly those frames. On any refusal the runner and the archive
  /// are left untouched (still a valid cold start) and false is
  /// returned, with the reason logged.
  bool restore(const persist::CheckpointState& state);

  /// Load the best checkpoint from config().checkpoint_dir and
  /// restore() it. False (logged) → caller proceeds with a cold start.
  bool resume_from_checkpoint();

  /// Write a checkpoint to config().checkpoint_dir now, through the
  /// runner's held CheckpointWriter (opened by the first call, reopened
  /// after a failed write). Refused once the archive is off.
  bool write_checkpoint();

  /// The archive directory in effect: config().archive_dir, else
  /// config().checkpoint_dir; empty when the runner keeps no archive.
  const std::string& archive_dir() const noexcept { return archive_dir_; }

  /// Rounds recorded so far (monotone; restored by resume).
  std::size_t completed_rounds() const noexcept { return completed_rounds_; }

  /// Inputs of the most recent round (empty before the first).
  const std::vector<scan::Vvp>& vvps() const noexcept { return vvps_; }
  const std::vector<scan::Tnode>& tnodes() const noexcept { return tnodes_; }

  /// The long-lived tracking world. Exposed so scenario-evolution
  /// harnesses (bench_incremental_round) can feed extra repository
  /// content — e.g. ROA churn in never-announced space — between
  /// rounds. Mutate only the repositories: touching routing or host
  /// state directly would invalidate the cache-soundness argument,
  /// which assumes all control-plane change flows through advance_to.
  /// (The tracking world doubles as the epoch publisher's private build
  /// world; published epochs copy it and share only its immutable route
  /// maps, so between-round repository edits never reach an
  /// already-published epoch.)
  scenario::Scenario& world() noexcept { return publisher_->world(); }

  /// Epoch lifecycle gauges (see EpochPublisher).
  const snapshot::EpochPublisher& publisher() const noexcept {
    return *publisher_;
  }
  /// Mutable access, for publisher-side knobs (the `rovista serve`
  /// pin-leak diagnostic sets the live-epoch warn depth).
  snapshot::EpochPublisher& publisher() noexcept { return *publisher_; }

 private:
  /// Record the round's scores into the store, append its frame to the
  /// archive, then checkpoint if one is due.
  void finish_round(Date date, std::span<const core::AsScore> scores,
                    const core::RoundHealth& health);
  void maybe_checkpoint();

  IncrementalConfig config_;
  // Owns the long-lived tracking world (its private build world) and
  // publishes one immutable epoch per round; every round's discovery
  // and measurement readers borrow that epoch. unique_ptr because
  // restore() swaps in a replayed world wholesale.
  std::unique_ptr<snapshot::EpochPublisher> publisher_;
  ScoreCache cache_;
  // Word streams of the last round's fingerprints, in step with
  // cache_: every entry holds the fingerprint these streams hash to.
  // Not checkpointed; restore() empties it.
  FingerprintMemo memo_;
  core::LongitudinalStore store_;
  std::vector<scan::Vvp> vvps_;
  std::vector<scan::Tnode> tnodes_;
  std::size_t completed_rounds_ = 0;
  // Effective-views digest of the round vvps_/tnodes_ were acquired on.
  // Under fault injection a window opening or stale data expiring
  // changes per-AS ROV behaviour with zero VRP delta, so discovery
  // reuse must also demand the digest be unchanged. Always 0 (and thus
  // trivially unchanged) in fault-free worlds.
  std::uint64_t views_digest_ = 0;
  std::size_t rounds_since_checkpoint_ = 0;
  std::optional<persist::CheckpointWriter> checkpoint_writer_;
  std::string archive_dir_;
  // RVLA appender: created by a cold start's first round, or adopted by
  // restore() at the checkpoint's frame count.
  std::optional<analytics::RvlaWriter> archive_writer_;
  // Set by a failed append. The archive stays off — a fresh create
  // would drop the frames already committed — and so do checkpoints,
  // which would pair later state with fewer frames.
  bool archive_failed_ = false;
};

}  // namespace rovista::incremental
