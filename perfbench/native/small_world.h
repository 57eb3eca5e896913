// The 195-AS world of `rovista longitudinal|serve --scale small`.
//
// The CLI keeps these settings private, so the benchmark restates them;
// the traced runs' consistency gates (their published CSVs must equal
// the recorded digests of the CLI runs) fail loudly if the two drift.
#pragma once

#include <cstdint>

#include "core/rovista.h"
#include "scenario/scenario.h"

namespace perfbench {

inline rovista::scenario::ScenarioParams small_params(std::uint64_t seed) {
  rovista::scenario::ScenarioParams params;
  params.seed = seed;
  params.topology.tier1_count = 4;
  params.topology.tier2_count = 14;
  params.topology.tier3_count = 36;
  params.topology.stub_count = 120;
  params.tnode_prefix_count = 4;
  params.measured_as_count = 12;
  params.hosts_per_measured_as = 3;
  params.collector_peer_count = 30;
  return params;
}

inline rovista::core::RovistaConfig small_rovista_config(int threads) {
  rovista::core::RovistaConfig config;
  config.scoring.min_vvps_per_as = 2;
  config.scoring.min_tnodes = 2;
  config.num_threads = threads;
  return config;
}

}  // namespace perfbench
