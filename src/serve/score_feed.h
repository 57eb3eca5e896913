// The score feed: immutable per-round snapshots for the query server.
//
// The serving side of `rovista serve` mirrors the epoch-snapshot
// engine's split one level up: the round loop (an
// IncrementalLongitudinalRunner publishing rounds) is the single
// writer, and every worker thread answers queries from an immutable
// RoundSnapshot it pinned at batch start. A snapshot bundles
//
//   * the round's per-AS scores, sorted by ASN, with each score also
//     pre-formatted exactly as core::publish_scores writes it
//     (`util::fmt_double(score, 2)`) — the string a client can
//     byte-compare against the published CSV dataset,
//   * the full per-AS trajectory up to and including this round
//     (shared structurally with no copy-on-read: each publish builds a
//     fresh map and the old snapshots keep theirs),
//   * an EpochRef pinning the frozen EpochWorld the round measured on,
//     so reachability queries traceroute the exact world that produced
//     the scores (grace period = pin lifetime, as everywhere else in
//     src/snapshot). The ref is empty for a warm-start snapshot seeded
//     from an archive — reachability then answers NO_DATA until the
//     next live round publishes.
//
// Torn-read safety: a snapshot is fully constructed before the swap,
// never mutated after, and swapped under a mutex — a reader sees the
// complete round k or the complete round k+1, never a mix. The TSan
// stress (tests/test_serve_stress.cpp) drives server workers against
// concurrent publishes to hold this.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/scoring.h"
#include "serve/rqp.h"
#include "snapshot/epoch_world.h"
#include "util/date.h"

namespace rovista::serve {

using core::Asn;
using util::Date;

struct RoundSnapshot {
  /// Feed publish sequence (1-based; warm-start seeding counts as one).
  std::uint64_t sequence = 0;
  Date date;
  /// Content digest of the pinned epoch (0 when `epoch` is empty).
  std::uint64_t world_digest = 0;
  snapshot::EpochRef epoch;
  /// Rounds folded into this snapshot (trajectory depth).
  std::uint64_t rounds_completed = 0;

  std::vector<core::AsScore> scores;    // sorted by asn
  std::vector<std::string> score_strs;  // parallel: fmt_double(score, 2)

  using Trajectory = std::map<Asn, std::vector<TrajectoryPoint>>;
  std::shared_ptr<const Trajectory> trajectory;

  /// Binary search by ASN; nullptr when the AS was not scored.
  const core::AsScore* find(Asn asn) const noexcept;
  const std::string* score_str(Asn asn) const noexcept;
};

class ScoreFeed {
 public:
  /// Publish the round at `date`: scores from the measurement round,
  /// `epoch` the world it was measured on (may be empty). Single writer;
  /// readers may call current() concurrently.
  std::shared_ptr<const RoundSnapshot> publish(Date date,
                                               std::span<const core::AsScore> scores,
                                               snapshot::EpochRef epoch);

  /// Warm start: stream an archive directory (docs/FORMATS.md §5) —
  /// a previous run's, or a resumed runner's, which holds exactly the
  /// restored rounds — into one snapshot carrying the full per-AS
  /// trajectory, the final date's scores and rounds_completed =
  /// distinct measurement dates, without materializing a store. Per-AS
  /// counters are zero — exactly what the published CSV records for
  /// them — and the epoch is empty until the next live round. False
  /// (logged) when the archive is missing, damaged or empty.
  bool seed_from_archive(const std::string& directory);

  /// The current snapshot (nullptr before the first publish). The
  /// returned pointer — and through it the pinned epoch — stays valid
  /// for as long as the caller holds it.
  std::shared_ptr<const RoundSnapshot> current() const;

  std::uint64_t published() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const RoundSnapshot> current_;
  std::uint64_t sequence_ = 0;
};

}  // namespace rovista::serve
