// The replica world source: every call builds a full private Scenario
// from the round's params, advanced to the round date. Production rounds
// measure on EpochReaders of one published epoch
// (snapshot/world_source.h); this is the independent reference they are
// compared against, because a world built from scratch at the same date
// must measure the same bytes. test_golden_round holds it to the golden
// CSV, and bench_snapshot prices its memory against the readers'.
#pragma once

#include "core/parallel_round.h"
#include "scenario/scenario.h"

namespace rovista::test {

/// A factory whose every call builds a bit-identical private world: a
/// fresh Scenario from `params`, advanced to `date` (clamped to the
/// scenario window), with the two standard measurement clients
/// registered A then B. Scenario construction is deterministic in
/// `params`, so replicas share no mutable state yet agree on every host
/// seed, route and counter. Safe to call from several threads at once.
core::ReplicaFactory make_replica_factory(scenario::ScenarioParams params,
                                          util::Date date);

}  // namespace rovista::test
