// bench_parallel_round — serial vs N-thread measurement-round throughput.
//
// Runs the standard-fixture round with the serial engine (Rovista::
// run_round on one freshly built world) and with the production engine
// — a ParallelRoundRunner over readers of one published epoch, after
// discovery on a reader of it, as `measure` runs — at 1, 2, 4 and 8
// threads, reporting wall time, experiments/second and speedup. Every
// parallel run is checked bit-identical to the serial round — the
// engine's determinism contract — so a reported speedup can never come
// from silently different work.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/common.h"
#include "core/parallel_round.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"

namespace {

using namespace rovista;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

scenario::ScenarioParams fixture_params() {
  scenario::ScenarioParams params;
  params.seed = 11;
  params.topology.tier1_count = 6;
  params.topology.tier2_count = 20;
  params.topology.tier3_count = 50;
  params.topology.stub_count = 180;
  params.tnode_prefix_count = 6;
  params.measured_as_count = 24;
  params.hosts_per_measured_as = 4;
  return params;
}

bool rounds_identical(const core::MeasurementRound& a,
                      const core::MeasurementRound& b) {
  if (a.experiments_run != b.experiments_run ||
      a.inconclusive != b.inconclusive ||
      a.observations.size() != b.observations.size() ||
      a.scores.size() != b.scores.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const auto& x = a.observations[i];
    const auto& y = b.observations[i];
    if (x.vvp_as != y.vvp_as || x.vvp.value() != y.vvp.value() ||
        x.tnode.value() != y.tnode.value() || x.verdict != y.verdict) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    const auto& x = a.scores[i];
    const auto& y = b.scores[i];
    if (x.asn != y.asn ||
        std::memcmp(&x.score, &y.score, sizeof(double)) != 0 ||
        x.vvp_count != y.vvp_count ||
        x.tnodes_consistent != y.tnodes_consistent ||
        x.tnodes_outbound != y.tnodes_outbound ||
        x.tnodes_inconsistent != y.tnodes_inconsistent) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const scenario::ScenarioParams params = fixture_params();
  const util::Date date = params.start + 150;
  core::RovistaConfig config;
  config.scoring.min_vvps_per_as = 2;
  config.scoring.min_tnodes = 2;

  // One published epoch; discovery probes a reader of it.
  std::printf("building fixture world (seed %llu) ...\n",
              static_cast<unsigned long long>(params.seed));
  snapshot::EpochPublisher publisher(params);
  publisher.advance_to(date);
  const snapshot::EpochRef epoch = publisher.publish();
  const snapshot::RoundInputs inputs =
      snapshot::acquire_inputs_on_epoch(publisher.world(), epoch, config);
  const std::vector<scan::Vvp>& vvps = inputs.vvps;
  const std::vector<scan::Tnode>& tnodes = inputs.tnodes;
  std::printf("fixture: %zu vVPs x %zu tNodes = %zu experiments\n",
              vvps.size(), tnodes.size(), vvps.size() * tnodes.size());
  // Speedup is bounded by physical cores; on a 1-core box every thread
  // count should still be bit-identical but none can be faster.
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());

  // Serial engine on a freshly built world.
  core::MeasurementRound serial;
  double serial_s = 0.0;
  {
    scenario::Scenario world(params);
    world.advance_to(date);
    scan::MeasurementClient client_a(world.plane(), world.client_as_a(),
                                     world.client_addr_a());
    scan::MeasurementClient client_b(world.plane(), world.client_as_b(),
                                     world.client_addr_b());
    core::Rovista rovista(world.plane(), client_a, client_b, config);
    const auto start = Clock::now();
    serial = rovista.run_round(vvps, tnodes);
    serial_s = seconds_since(start);
  }
  const double total = static_cast<double>(serial.experiments_run);
  std::printf("%-10s %8.3f s  %9.1f exp/s  speedup %5.2fx  scores %zu\n",
              "serial", serial_s, total / serial_s, 1.0, serial.scores.size());

  const core::ReplicaFactory factory = snapshot::make_reader_factory(epoch);
  bool all_identical = true;
  for (const int threads : {1, 2, 4, 8}) {
    core::ParallelRoundConfig round_config;
    round_config.experiment = config.experiment;
    round_config.scoring = config.scoring;
    round_config.num_threads = threads;
    const core::ParallelRoundRunner runner(factory, round_config);
    const auto start = Clock::now();
    const core::MeasurementRound round = runner.run(vvps, tnodes);
    const double elapsed = seconds_since(start);
    const bool identical = rounds_identical(serial, round);
    all_identical = all_identical && identical;
    char label[32];
    std::snprintf(label, sizeof(label), "%d-thread", threads);
    std::printf("%-10s %8.3f s  %9.1f exp/s  speedup %5.2fx  %s\n", label,
                elapsed, total / elapsed, serial_s / elapsed,
                identical ? "bit-identical" : "MISMATCH vs serial");
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: parallel output diverged from serial\n");
    return 1;
  }
  std::printf("all thread counts bit-identical to the serial engine\n");
  return 0;
}
