// The series oracle: a longitudinal series recomputed from scratch at
// every date. Production runs one engine, the incremental runner
// (incremental/longitudinal_engine.h), whose contract is that every
// round — observations, scores, round health, the published CSV
// dataset — is bit-identical to this recompute at the same dates and
// any thread count. The oracle shares none of the runner's round code:
// no VRP delta install, no discovery reuse, no score cache, no store
// bookkeeping. It steps one EpochPublisher's world through the dates
// with plain advance_to (RoutingSystem::set_vrps drops every converged
// route), publishes each date, re-runs discovery on a reader of that
// epoch and measures every (vVP, tNode) pair on readers of it.
// test_incremental_round, test_faults and the full legs of
// bench_incremental_round and bench_faults hold the runner to it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/longitudinal.h"
#include "core/rovista.h"
#include "scenario/scenario.h"
#include "snapshot/epoch_publisher.h"

namespace rovista::test {

/// One date of the recomputed series.
struct OracleRound {
  util::Date date;
  std::size_t vvp_count = 0;    // rows of the measured matrix
  std::size_t tnode_count = 0;  // its columns
  core::MeasurementRound round;
  core::RoundHealth health;  // all zeros in fault-free worlds
};

class SeriesOracle {
 public:
  /// A fresh world from `params`; `rovista.num_threads` shards each
  /// round's matrix exactly as the runner's does.
  SeriesOracle(scenario::ScenarioParams params, core::RovistaConfig rovista);

  /// Recompute the round at `date`. Dates must strictly increase.
  const OracleRound& run_round(util::Date date);

  const std::vector<OracleRound>& rounds() const noexcept { return rounds_; }

  /// Write the published CSV dataset (docs/FORMATS.md section 2) of
  /// every round so far under `directory`: one scores file per date,
  /// the index, and degradation.csv when the world injects faults.
  /// Returns the number of dates written, nullopt on I/O failure.
  std::optional<std::size_t> publish(const std::string& directory) const;

  /// The world the oracle steps. Exposed so benches can feed it the
  /// same extra repository content (ROA churn) they feed the runner's
  /// world between rounds.
  scenario::Scenario& world() noexcept { return publisher_.world(); }

 private:
  snapshot::EpochPublisher publisher_;
  core::RovistaConfig rovista_;
  std::vector<OracleRound> rounds_;
};

}  // namespace rovista::test
