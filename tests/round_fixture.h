// Shared "standard fixture" for the measurement-round determinism and
// golden regression tests (and mirrored by bench_parallel_round): a
// small deterministic world plus one acquisition pass.
//
// Discovery (tNode/vVP acquisition) mutates host state — probes advance
// IP-ID counters and background RNG streams — so acquire_round_inputs
// runs it on a throwaway world built fresh at the round date: the
// reference that production discovery on an epoch reader
// (snapshot::acquire_inputs_on_epoch) must reproduce.
#pragma once

#include "core/rovista.h"
#include "scenario/scenario.h"
#include "snapshot/world_source.h"

namespace rovista::testfx {

inline scenario::ScenarioParams round_params(std::uint64_t seed = 11) {
  scenario::ScenarioParams params;
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

inline util::Date round_date(const scenario::ScenarioParams& params) {
  return params.start + 150;
}

inline core::RovistaConfig round_config() {
  core::RovistaConfig config;
  config.scoring.min_vvps_per_as = 2;
  config.scoring.min_tnodes = 2;
  return config;
}

using RoundInputs = snapshot::RoundInputs;

inline RoundInputs acquire_round_inputs(const scenario::ScenarioParams& params,
                                        util::Date date,
                                        const core::RovistaConfig& config) {
  scenario::Scenario s(params);
  s.advance_to(date);
  scan::MeasurementClient client_a(s.plane(), s.client_as_a(),
                                   s.client_addr_a());
  scan::MeasurementClient client_b(s.plane(), s.client_as_b(),
                                   s.client_addr_b());
  core::Rovista rovista(s.plane(), client_a, client_b, config);
  const auto snapshot = s.collector().snapshot(s.routing());
  RoundInputs inputs;
  inputs.tnodes = rovista.acquire_tnodes(
      snapshot, s.current_vrps(), s.rov_reference_ases(s.current(), 10),
      s.non_rov_reference_ases(s.current(), 10));
  inputs.vvps = rovista.acquire_vvps(s.vvp_candidates());
  return inputs;
}

}  // namespace rovista::testfx
