// Shared setup for the experiment-regeneration benches.
//
// Every bench builds the same "bench-scale" world (deterministic seed,
// moderate size so the full suite runs in minutes), runs the RoVista
// pipeline at one or more snapshot dates, and prints the paper's
// table/figure rows. Absolute values differ from the paper — the
// substrate is a simulator, not the 2021-2023 Internet — but the shapes
// (who wins, what fraction sits where, where crossovers fall) are the
// reproduction targets; EXPERIMENTS.md records both sides.
#pragma once

#include <sched.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/longitudinal.h"
#include "core/rovista.h"
#include "scenario/scenario.h"
#include "util/csv.h"

namespace rovista::bench {

/// The "host" object every BENCH_*.json carries: CPUs this process may
/// run on, compiler, CMake build type, and the git revision of the
/// working directory the bench runs in, suffixed "-dirty" when it has
/// uncommitted changes ("unknown" outside a checkout).
inline std::string host_json() {
  cpu_set_t cpus;
  const int nproc =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef ROVISTA_BUILD_TYPE
  const std::string build_type = ROVISTA_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  std::string git_rev = "unknown";
  std::FILE* git =
      popen("git describe --always --dirty --abbrev=40 2>/dev/null", "r");
  if (git != nullptr) {
    char line[96] = {0};
    if (std::fgets(line, sizeof line, git) != nullptr) {
      git_rev = line;
      while (!git_rev.empty() && git_rev.back() == '\n') git_rev.pop_back();
    }
    pclose(git);
  }
  return "{\"nproc\": " + std::to_string(nproc) + ", \"compiler\": \"" +
         compiler + "\", \"build_type\": \"" + build_type +
         "\", \"git_rev\": \"" + git_rev + "\"}";
}

inline scenario::ScenarioParams bench_params(std::uint64_t seed = 42) {
  scenario::ScenarioParams params;
  params.seed = seed;
  params.topology.tier1_count = 8;
  params.topology.tier2_count = 28;
  params.topology.tier3_count = 70;
  params.topology.stub_count = 320;
  params.tnode_prefix_count = 10;
  params.moas_invalid_count = 10;
  params.surge_invalid_count = 40;
  params.measured_as_count = 110;
  params.hosts_per_measured_as = 5;
  params.collector_peer_count = 40;
  params.topology.tier2_peer_prob = 0.4;
  params.topology.stub_multihome_prob = 0.5;
  return params;
}

/// The bench world: scenario + clients + framework + longitudinal store.
struct World {
  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<scan::MeasurementClient> client_a;
  std::unique_ptr<scan::MeasurementClient> client_b;
  std::unique_ptr<core::Rovista> rovista;
  core::LongitudinalStore store;

  explicit World(scenario::ScenarioParams params = bench_params()) {
    scenario = std::make_unique<scenario::Scenario>(std::move(params));
    client_a = std::make_unique<scan::MeasurementClient>(
        scenario->plane(), scenario->client_as_a(), scenario->client_addr_a());
    client_b = std::make_unique<scan::MeasurementClient>(
        scenario->plane(), scenario->client_as_b(), scenario->client_addr_b());
    core::RovistaConfig config;
    config.scoring.min_vvps_per_as = 2;
    config.scoring.min_tnodes = 3;
    rovista = std::make_unique<core::Rovista>(scenario->plane(), *client_a,
                                              *client_b, config);
  }

  struct Snapshot {
    std::vector<scan::Tnode> tnodes;
    std::vector<scan::Vvp> vvps;
    core::MeasurementRound round;
  };

  /// Advance to `date`, run the full pipeline, record scores.
  Snapshot run_snapshot(util::Date date) {
    scenario->advance_to(date);
    Snapshot snap;
    const auto collector_view =
        scenario->collector().snapshot(scenario->routing());
    snap.tnodes = rovista->acquire_tnodes(
        collector_view, scenario->current_vrps(),
        scenario->rov_reference_ases(date, 10),
        scenario->non_rov_reference_ases(date, 10));
    snap.vvps = rovista->acquire_vvps(scenario->vvp_candidates());
    snap.round = rovista->run_round(snap.vvps, snap.tnodes);
    store.record(date, snap.round.scores);
    return snap;
  }

  /// Monthly snapshot dates across the window.
  std::vector<util::Date> monthly_dates(int step_days = 30) const {
    std::vector<util::Date> dates;
    for (util::Date d = scenario->start(); d <= scenario->end();
         d += step_days) {
      dates.push_back(d);
    }
    return dates;
  }
};

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace rovista::bench
