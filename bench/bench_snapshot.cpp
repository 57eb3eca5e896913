// bench_snapshot — epoch-snapshot engine cost model vs the replica
// oracle: memory per worker, peak resident memory for an 8-thread
// round, and publish latency.
//
// The replica oracle (tests/replica_oracle.h) pays a full private
// Scenario per worker; the epoch-snapshot engine pays one immutable
// frozen world per publish plus a thin plane clone per reader. This
// bench quantifies both sides of that trade on the standard bench
// fixture and records them in BENCH_snapshot.json:
//
//   * bytes held per worker while 8 workers are alive (glibc
//     mallinfo2 heap delta; 0 on non-glibc builds),
//   * peak resident memory (VmHWM, reset per phase via
//     /proc/self/clear_refs) of a complete 8-thread round, engine
//     setup included — the snapshot round must stay at or under half
//     the replica round's peak,
//   * publish latency of EpochPublisher::publish() in its two regimes:
//     the first (cold) publish converges every announced prefix in the
//     build world and digests every map; a steady-state publish after a
//     one-day incremental advance re-converges only what the day erased,
//     shares every other RouteMap with the previous epoch and re-digests
//     only the maps that changed (median reported).
//
// Both phases' rounds are checked bit-identical to a serial reference
// first; a reported saving can never come from different work.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>

#include "bench/common.h"
#include "core/parallel_round.h"
#include "incremental/longitudinal_engine.h"
#include "replica_oracle.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"

namespace {

using namespace rovista;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

scenario::ScenarioParams fixture_params() {
  // Same fixture as bench_parallel_round, so the two benches' numbers
  // compose.
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
        x.vvp_count != y.vvp_count) {
      return false;
    }
  }
  return true;
}

// -- Memory probes ----------------------------------------------------

std::size_t heap_bytes() {
#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33)
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::size_t>(mi.uordblks) +
         static_cast<std::size_t>(mi.hblkhd);
#else
  return 0;
#endif
#else
  return 0;
#endif
}

void release_freed_heap() {
#if defined(__GLIBC__)
  // Return allocator-cached pages to the kernel so the next phase's
  // VmHWM delta measures that phase's own allocations, not arena reuse.
  malloc_trim(0);
#endif
}

// Reset the kernel's peak-RSS watermark (VmHWM). Returns false where
// /proc/self/clear_refs is unavailable; peaks are then monotonic and
// the JSON flags them as such.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

long read_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      std::sscanf(line + key_len, "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

long peak_rss_kb() { return read_status_kb("VmHWM:"); }
long current_rss_kb() { return read_status_kb("VmRSS:"); }

// Heap bytes held while `count` live workers from `factory` coexist.
std::size_t bytes_per_worker(const core::ReplicaFactory& factory, int count) {
  std::vector<std::unique_ptr<core::MeasurementReplica>> held;
  held.reserve(count);
  const std::size_t before = heap_bytes();
  for (int i = 0; i < count; ++i) held.push_back(factory());
  const std::size_t after = heap_bytes();
  return after > before ? (after - before) / static_cast<std::size_t>(count)
                        : 0;
}

struct PhasePeak {
  long baseline_kb = -1;  // VmRSS entering the phase
  long peak_kb = -1;      // VmHWM at phase end
  long delta_kb() const {
    return peak_kb >= 0 && baseline_kb >= 0 ? peak_kb - baseline_kb : -1;
  }
};

core::ParallelRoundConfig round_config(const core::RovistaConfig& config,
                                       int threads) {
  core::ParallelRoundConfig rc;
  rc.experiment = config.experiment;
  rc.scoring = config.scoring;
  rc.num_threads = threads;
  return rc;
}

}  // namespace

int main() {
  rovista::bench::print_header(
      "bench_snapshot — epoch-snapshot vs replica memory + publish latency",
      "one frozen world for N readers (DESIGN.md, \"Epoch lifecycle\"): "
      "8-thread peak RSS target <= 0.5x the replica oracle's");

  const scenario::ScenarioParams params = fixture_params();
  const util::Date date = params.start + 150;
  core::RovistaConfig config;
  config.scoring.min_vvps_per_as = 2;
  config.scoring.min_tnodes = 2;
  constexpr int kThreads = 8;
  constexpr int kSteadyPublishes = 9;

  // Discovery on a throwaway world (mutates host state), freed before
  // any memory measurement.
  std::printf("building fixture world (seed %llu) ...\n",
              static_cast<unsigned long long>(params.seed));
  std::vector<scan::Vvp> vvps;
  std::vector<scan::Tnode> tnodes;
  {
    scenario::Scenario s(params);
    s.advance_to(date);
    scan::MeasurementClient client_a(s.plane(), s.client_as_a(),
                                     s.client_addr_a());
    scan::MeasurementClient client_b(s.plane(), s.client_as_b(),
                                     s.client_addr_b());
    core::Rovista rovista(s.plane(), client_a, client_b, config);
    const auto snapshot = s.collector().snapshot(s.routing());
    tnodes = rovista.acquire_tnodes(snapshot, s.current_vrps(),
                                    s.rov_reference_ases(s.current(), 10),
                                    s.non_rov_reference_ases(s.current(), 10));
    vvps = rovista.acquire_vvps(s.vvp_candidates());
  }
  std::printf("fixture: %zu vVPs x %zu tNodes\n", vvps.size(), tnodes.size());

  // Serial reference for the identity checks.
  core::MeasurementRound serial;
  {
    scenario::Scenario world(params);
    world.advance_to(date);
    scan::MeasurementClient client_a(world.plane(), world.client_as_a(),
                                     world.client_addr_a());
    scan::MeasurementClient client_b(world.plane(), world.client_as_b(),
                                     world.client_addr_b());
    core::Rovista rovista(world.plane(), client_a, client_b, config);
    serial = rovista.run_round(vvps, tnodes);
  }

  const bool peak_resettable = reset_peak_rss();
  if (!peak_resettable) {
    std::printf("note: /proc/self/clear_refs unavailable, "
                "peak RSS is monotonic across phases\n");
  }

  // -- Setup (unmeasured): build world + publish latency --------------
  //
  // The build world stays alive through both measured phases below: the
  // longitudinal engine keeps its tracking world for every round, so it
  // belongs to the common baseline, not to either phase's bill.
  auto setup_start = Clock::now();
  snapshot::EpochPublisher pub(params);
  pub.advance_to(date);
  const double build_s = seconds_since(setup_start);

  // Publish latency. Cold: the first publish converges every announced
  // prefix. Steady state: one day at a time, installing each day's VRPs
  // the way the longitudinal engine does (by delta), then publishing.
  auto cold_start = Clock::now();
  pub.publish();
  const double cold_publish_s = seconds_since(cold_start);
  std::vector<double> steady_s;
  for (int day = 1; day <= kSteadyPublishes; ++day) {
    pub.advance_to(date + day, incremental::make_vrp_installer(nullptr));
    const auto start = Clock::now();
    snapshot::EpochRef epoch = pub.publish();
    steady_s.push_back(seconds_since(start));
  }
  std::sort(steady_s.begin(), steady_s.end());
  const double steady_median_s = steady_s[steady_s.size() / 2];

  // -- Phase 1: epoch-snapshot engine, one publish + 8-thread round ---
  release_freed_heap();
  (void)reset_peak_rss();
  PhasePeak snap_peak;
  snap_peak.baseline_kb = current_rss_kb();
  core::MeasurementRound snap_round;
  std::size_t reader_bytes = 0;
  double snap_round_s = 0.0;
  {
    snapshot::EpochRef epoch = pub.publish();
    const core::ReplicaFactory reader_factory =
        snapshot::make_reader_factory(epoch);
    reader_bytes = bytes_per_worker(reader_factory, kThreads);

    const core::ParallelRoundRunner runner(reader_factory,
                                           round_config(config, kThreads));
    const auto start = Clock::now();
    snap_round = runner.run(vvps, tnodes);
    snap_round_s = seconds_since(start);
  }
  snap_peak.peak_kb = peak_rss_kb();

  // -- Phase 2: replica oracle, 8-thread round ------------------------
  release_freed_heap();
  (void)reset_peak_rss();
  PhasePeak repl_peak;
  repl_peak.baseline_kb = current_rss_kb();
  core::MeasurementRound repl_round;
  std::size_t replica_bytes = 0;
  double repl_round_s = 0.0;
  {
    const core::ReplicaFactory replica_factory =
        test::make_replica_factory(params, date);
    replica_bytes = bytes_per_worker(replica_factory, kThreads);

    const core::ParallelRoundRunner runner(replica_factory,
                                           round_config(config, kThreads));
    const auto start = Clock::now();
    repl_round = runner.run(vvps, tnodes);
    repl_round_s = seconds_since(start);
  }
  repl_peak.peak_kb = peak_rss_kb();

  const bool snap_identical = rounds_identical(serial, snap_round);
  const bool repl_identical = rounds_identical(serial, repl_round);

  std::printf("world build+advance      %8.3f s\n", build_s);
  std::printf("publish latency          cold %.3f ms  steady-state median "
              "%.3f ms  (min %.3f, max %.3f; %d one-day advances)\n",
              cold_publish_s * 1e3, steady_median_s * 1e3,
              steady_s.front() * 1e3, steady_s.back() * 1e3,
              kSteadyPublishes);
  std::printf("bytes held per worker    snapshot reader %zu  "
              "replica world %zu  (x%d workers)\n",
              reader_bytes, replica_bytes, kThreads);
  std::printf("8-thread round           snapshot %.3f s  replica %.3f s  "
              "(%s / %s)\n",
              snap_round_s, repl_round_s,
              snap_identical ? "bit-identical" : "MISMATCH",
              repl_identical ? "bit-identical" : "MISMATCH");
  const double peak_ratio =
      snap_peak.delta_kb() > 0 && repl_peak.delta_kb() > 0
          ? static_cast<double>(snap_peak.delta_kb()) /
                static_cast<double>(repl_peak.delta_kb())
          : -1.0;
  std::printf("peak RSS over baseline   snapshot %ld KiB  replica %ld KiB  "
              "ratio %.3f (target <= 0.5)\n",
              snap_peak.delta_kb(), repl_peak.delta_kb(), peak_ratio);

  std::FILE* f = std::fopen("BENCH_snapshot.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_snapshot.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host\": %s,\n", rovista::bench::host_json().c_str());
  std::fprintf(f,
               "  \"scenario\": {\"seed\": %llu, \"threads\": %d, "
               "\"vvps\": %zu, \"tnodes\": %zu},\n",
               static_cast<unsigned long long>(params.seed), kThreads,
               vvps.size(), tnodes.size());
  std::fprintf(f,
               "  \"publish_latency\": {\"cold_ms\": %.3f, "
               "\"steady_publishes\": %d, \"steady_median_ms\": %.3f, "
               "\"steady_min_ms\": %.3f, \"steady_max_ms\": %.3f, "
               "\"world_build_s\": %.6f},\n",
               cold_publish_s * 1e3, kSteadyPublishes, steady_median_s * 1e3,
               steady_s.front() * 1e3, steady_s.back() * 1e3, build_s);
  std::fprintf(f,
               "  \"bytes_per_worker\": {\"snapshot_reader\": %zu, "
               "\"replica_world\": %zu, \"ratio\": %.4f},\n",
               reader_bytes, replica_bytes,
               replica_bytes > 0 ? static_cast<double>(reader_bytes) /
                                       static_cast<double>(replica_bytes)
                                 : -1.0);
  std::fprintf(f,
               "  \"peak_rss_8thread\": {\"resettable\": %s, "
               "\"snapshot_baseline_kb\": %ld, \"snapshot_peak_kb\": %ld, "
               "\"snapshot_delta_kb\": %ld, \"replica_baseline_kb\": %ld, "
               "\"replica_peak_kb\": %ld, \"replica_delta_kb\": %ld, "
               "\"ratio\": %.4f, \"target\": 0.5, \"met\": %s},\n",
               peak_resettable ? "true" : "false", snap_peak.baseline_kb,
               snap_peak.peak_kb, snap_peak.delta_kb(), repl_peak.baseline_kb,
               repl_peak.peak_kb, repl_peak.delta_kb(), peak_ratio,
               peak_ratio >= 0.0 && peak_ratio <= 0.5 ? "true" : "false");
  std::fprintf(f,
               "  \"round_s\": {\"snapshot\": %.6f, \"replica\": %.6f},\n",
               snap_round_s, repl_round_s);
  std::fprintf(f, "  \"identical\": %s\n",
               snap_identical && repl_identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_snapshot.json\n");

  if (!snap_identical || !repl_identical) {
    std::fprintf(stderr, "FAIL: engine output diverged from serial\n");
    return 1;
  }
  if (peak_ratio < 0.0 || peak_ratio > 0.5) {
    std::fprintf(stderr,
                 "WARNING: snapshot peak RSS ratio %.3f misses the 0.5x "
                 "target\n",
                 peak_ratio);
  }
  return 0;
}
