// Where measurement worlds come from.
//
// One EpochPublisher builds the world once and publishes an immutable
// epoch; every consumer that needs private measurement state — the
// discovery pass and each worker of the parallel round runner — gets an
// EpochReader borrowing that epoch (private hosts/clock/clients, shared
// frozen routing). Memory and clone cost are paid once, not per thread.
// `measure`, `audit`, `longitudinal` and `serve` all run their rounds
// this way.
#pragma once

#include <memory>
#include <vector>

#include "core/parallel_round.h"
#include "core/rovista.h"
#include "scenario/scenario.h"
#include "snapshot/epoch_world.h"

namespace rovista::snapshot {

/// A reader borrowing `epoch` (pins it for the reader's lifetime).
std::unique_ptr<EpochReader> make_reader(EpochRef epoch);

/// Factory stamping out readers of one already-published epoch. Safe to
/// call from several threads at once; every reader pins `epoch`.
core::ReplicaFactory make_reader_factory(EpochRef epoch);

/// The vVPs and tNodes one round measures.
struct RoundInputs {
  std::vector<scan::Vvp> vvps;
  std::vector<scan::Tnode> tnodes;
};

/// Discovery (tNode then vVP acquisition) for the round `epoch` was
/// published for. Probing runs on a private reader of `epoch`, whose
/// plane is a pristine clone of the epoch template — exactly the host
/// state a fresh world at this date would carry — so the epoch itself
/// stays unprobed for the measurement readers. The non-probing inputs
/// (collector feed list, vVP candidates, reference ASes) are
/// date-deterministic metadata read off `world`, the build world the
/// epoch was published from, which must not have advanced since.
RoundInputs acquire_inputs_on_epoch(scenario::Scenario& world, EpochRef epoch,
                                    const core::RovistaConfig& config);

}  // namespace rovista::snapshot
