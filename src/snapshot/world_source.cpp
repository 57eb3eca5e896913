#include "snapshot/world_source.h"

#include <utility>

namespace rovista::snapshot {

std::unique_ptr<EpochReader> make_reader(EpochRef epoch) {
  return std::make_unique<EpochReader>(std::move(epoch));
}

core::ReplicaFactory make_reader_factory(EpochRef epoch) {
  return [epoch = std::move(epoch)] {
    return std::unique_ptr<core::MeasurementReplica>(
        std::make_unique<EpochReader>(epoch));
  };
}

RoundInputs acquire_inputs_on_epoch(scenario::Scenario& world, EpochRef epoch,
                                    const core::RovistaConfig& config) {
  const std::unique_ptr<EpochReader> reader = make_reader(std::move(epoch));
  core::Rovista rovista(reader->plane(), reader->client_a(),
                        reader->client_b(), config);
  const auto snapshot =
      world.collector().snapshot(reader->epoch().shared_routing());
  RoundInputs inputs;
  inputs.tnodes = rovista.acquire_tnodes(
      snapshot, world.current_vrps(),
      world.rov_reference_ases(world.current(), 10),
      world.non_rov_reference_ases(world.current(), 10));
  inputs.vvps = rovista.acquire_vvps(world.vvp_candidates());
  return inputs;
}

}  // namespace rovista::snapshot
