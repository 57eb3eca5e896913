// bench_incremental_round — full recompute vs incremental engine over a
// 10-round longitudinal scenario with bounded ROA churn. The full leg is
// the series oracle's from-scratch recompute (tests/series_oracle.h).
//
// The scenario: a fixture-scale world, ten rounds two days apart inside
// a quiet stretch of the timeline (no policy/announcement events, no
// natural VRP churn — found by probing, not hard-coded, so it survives
// parameter changes). Each round a small batch of ROAs in never-announced
// space (198.18.0.0/15, the RFC 2544 benchmarking range) rolls over via
// validity windows: the relying party emits a real announce+withdraw
// delta every round — ≤ 5% of the VRP set — but no announced prefix's
// validity can change. That is the incremental engine's best case and
// the paper's common one: most days the ROA feed churns at the margins
// while the measured world holds still.
//
// The comparison runs twice: once on the plain world and once with a
// slice of ROV deployers carrying SLURM files (slurm_fraction), which
// forces every delta install through the per-view dirty-set path of
// RoutingSystem::apply_vrp_delta. The SLURM columns pin that local
// exceptions no longer cost a full invalidation.
//
// Both comparisons run on the fixture world at seed 11 and again at seed
// 42 (the CLI's default seed), each in its own quiet window.
//
// One untimed warm-up configuration runs first. Every incremental round
// is checked bit-identical to the full recompute, so the reported
// speedup can never come from skipped work that mattered. Results go to BENCH_incremental.json, with the host
// block (bench::host_json); exits non-zero if outputs diverge or any
// 10-round speedup falls below 5x.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "incremental/longitudinal_engine.h"
#include "incremental/vrp_delta.h"
#include "series_oracle.h"

namespace {

using namespace rovista;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 10;
constexpr int kIntervalDays = 2;
constexpr int kChurnRoasPerRound = 4;
constexpr int kThreads = 4;
constexpr double kSlurmFraction = 0.3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

scenario::ScenarioParams fixture_params(std::uint64_t seed) {
  scenario::ScenarioParams params;
  params.seed = seed;
  params.topology.tier1_count = 6;
  params.topology.tier2_count = 20;
  params.topology.tier3_count = 50;
  params.topology.stub_count = 180;
  params.tnode_prefix_count = 6;
  params.measured_as_count = 24;
  params.hosts_per_measured_as = 4;
  return params;
}

// First date d such that [d, d + days_needed) sees no timeline events
// and no natural VRP churn when advanced day by day. SLURM exceptions
// change policy contents only — never event dates or the ROA feed — so
// a window probed on the base params is quiet for the SLURM run too.
std::optional<util::Date> find_quiet_window(
    const scenario::ScenarioParams& params, int days_needed) {
  scenario::Scenario probe(params);
  int quiet_run = 0;
  for (util::Date d = params.start + 1; d <= params.end; d += 1) {
    bool vrp_churn = false;
    const scenario::AdvanceStats stats = probe.advance_to(
        d, [&](bgp::RoutingSystem& routing, const rpki::VrpSet& prev,
               rpki::VrpSet next) {
          vrp_churn = !incremental::VrpDeltaComputer::diff(prev, next).empty();
          routing.set_vrps(std::move(next));
        });
    if (stats.events() == 0 && !vrp_churn) {
      if (++quiet_run >= days_needed) return d - (days_needed - 1);
    } else {
      quiet_run = 0;
    }
  }
  return std::nullopt;
}

// The churn source: one CA certificate over 198.18.0.0/15 per tracking
// world; each round publishes kChurnRoasPerRound ROAs on a round-specific
// /24 whose validity window closes before the next round, so every
// subsequent relying-party run sees both announcements and withdrawals.
struct ChurnFeed {
  rpki::Repository* repo = nullptr;
  std::uint64_t cert_serial = 0;

  explicit ChurnFeed(scenario::Scenario& world) {
    repo = &world.repositories().repository(topology::Rir::kArin);
    rpki::ResourceSet resources;
    resources.prefixes.push_back(
        net::Ipv4Prefix(net::Ipv4Address((198u << 24) | (18u << 16)), 15));
    const auto serial = repo->issue_certificate(
        "bench-churn", std::move(resources), world.params().start - 3650,
        world.params().end + 3650);
    if (!serial.has_value()) {
      std::fprintf(stderr, "FAIL: churn certificate refused\n");
      std::exit(1);
    }
    cert_serial = *serial;
  }

  void publish_round(int round, util::Date date) {
    const net::Ipv4Prefix prefix(
        net::Ipv4Address((198u << 24) | (18u << 16) |
                         (static_cast<std::uint32_t>(round) << 8)),
        24);
    for (int k = 0; k < kChurnRoasPerRound; ++k) {
      repo->publish_roa(cert_serial, 64496u + static_cast<std::uint32_t>(k),
                        {{prefix, prefix.length()}}, date,
                        date + (kIntervalDays - 1));
    }
  }
};

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

struct RoundSample {
  util::Date date;
  double full_s = 0.0;
  double incr_s = 0.0;
  std::size_t vrp_announced = 0;
  std::size_t vrp_withdrawn = 0;
  double churn_fraction = 0.0;
  std::size_t dirty_rows = 0;
  std::size_t total_rows = 0;
  std::size_t executed_pairs = 0;
  std::size_t reused_pairs = 0;
  bool discovery_reused = false;
  bool identical = false;
};

struct ConfigResult {
  std::vector<RoundSample> samples;
  double full_total = 0.0;
  double incr_total = 0.0;
  bool all_identical = true;
  bool churn_bounded = true;

  double speedup() const {
    return incr_total > 0.0 ? full_total / incr_total : 0.0;
  }
};

// One full-vs-incremental comparison: kRounds rounds from `quiet`, the
// oracle and the engine fed the same churn, every round checked
// bit-identical.
ConfigResult run_config(const char* label,
                        const scenario::ScenarioParams& params,
                        util::Date quiet) {
  incremental::IncrementalConfig config;
  config.params = params;
  config.rovista.scoring.min_vvps_per_as = 2;
  config.rovista.scoring.min_tnodes = 2;
  config.rovista.num_threads = kThreads;

  test::SeriesOracle full(config.params, config.rovista);
  incremental::IncrementalLongitudinalRunner incr(config);
  ChurnFeed full_feed(full.world());
  ChurnFeed incr_feed(incr.world());

  ConfigResult result;
  for (int r = 0; r < kRounds; ++r) {
    const util::Date date = quiet + r * kIntervalDays;
    full_feed.publish_round(r, date);
    incr_feed.publish_round(r, date);

    auto start = Clock::now();
    const test::OracleRound& full_round = full.run_round(date);
    const double full_s = seconds_since(start);

    start = Clock::now();
    const incremental::RoundReport incr_report = incr.run_round(date);
    const double incr_s = seconds_since(start);

    RoundSample s;
    s.date = date;
    s.full_s = full_s;
    s.incr_s = incr_s;
    s.vrp_announced = incr_report.vrp_announced;
    s.vrp_withdrawn = incr_report.vrp_withdrawn;
    const std::size_t vrp_total =
        incremental::VrpDeltaComputer::flatten(incr.world().current_vrps())
            .size();
    s.churn_fraction =
        vrp_total == 0 ? 0.0
                       : static_cast<double>(s.vrp_announced +
                                             s.vrp_withdrawn) /
                             static_cast<double>(vrp_total);
    s.dirty_rows = incr_report.dirty_rows;
    s.total_rows = incr_report.total_rows;
    s.executed_pairs = incr_report.executed_pairs;
    s.reused_pairs = incr_report.reused_pairs;
    s.discovery_reused = incr_report.discovery_reused;
    s.identical = rounds_identical(full_round.round, incr_report.round);
    result.samples.push_back(s);

    result.all_identical = result.all_identical && s.identical;
    // Round 0 has no prior snapshot, so its delta is the whole feed.
    result.churn_bounded =
        result.churn_bounded && (r == 0 || s.churn_fraction <= 0.05);
    result.full_total += full_s;
    result.incr_total += incr_s;

    std::printf(
        "%s round %2d %s  full %7.3fs  incr %7.3fs  speedup %6.2fx  "
        "delta +%zu/-%zu (%.1f%%)  dirty rows %zu/%zu  %s\n",
        label, r, date.to_string().c_str(), full_s, incr_s,
        incr_s > 0.0 ? full_s / incr_s : 0.0, s.vrp_announced,
        s.vrp_withdrawn, 100.0 * s.churn_fraction, s.dirty_rows,
        s.total_rows, s.identical ? "bit-identical" : "MISMATCH");
  }
  std::printf("%s 10-round totals: full %.3fs  incremental %.3fs  %.2fx\n",
              label, result.full_total, result.incr_total, result.speedup());
  return result;
}

void write_samples(std::FILE* f, const char* indent,
                   const std::vector<RoundSample>& samples) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const RoundSample& s = samples[i];
    std::fprintf(
        f,
        "%s{\"date\": \"%s\", \"full_s\": %.6f, \"incremental_s\": %.6f, "
        "\"speedup\": %.2f, \"vrp_announced\": %zu, \"vrp_withdrawn\": %zu, "
        "\"churn_fraction\": %.4f, \"dirty_rows\": %zu, \"total_rows\": %zu, "
        "\"executed_pairs\": %zu, \"reused_pairs\": %zu, "
        "\"discovery_reused\": %s, \"identical\": %s}%s\n",
        indent, s.date.to_string().c_str(), s.full_s, s.incr_s,
        s.incr_s > 0.0 ? s.full_s / s.incr_s : 0.0, s.vrp_announced,
        s.vrp_withdrawn, s.churn_fraction, s.dirty_rows, s.total_rows,
        s.executed_pairs, s.reused_pairs,
        s.discovery_reused ? "true" : "false",
        s.identical ? "true" : "false",
        i + 1 < samples.size() ? "," : "");
  }
}

void write_totals(std::FILE* f, const char* indent,
                  const ConfigResult& result, bool trailing_comma) {
  // Steady state excludes round 0, where the incremental engine is by
  // definition a cold full recompute.
  double full_steady = 0.0;
  double incr_steady = 0.0;
  for (std::size_t i = 1; i < result.samples.size(); ++i) {
    full_steady += result.samples[i].full_s;
    incr_steady += result.samples[i].incr_s;
  }
  std::fprintf(f,
               "%s\"total\": {\"full_s\": %.6f, \"incremental_s\": %.6f, "
               "\"speedup\": %.2f},\n",
               indent, result.full_total, result.incr_total,
               result.speedup());
  std::fprintf(f,
               "%s\"steady_state\": {\"full_s\": %.6f, "
               "\"incremental_s\": %.6f, \"speedup\": %.2f}%s\n",
               indent, full_steady, incr_steady,
               incr_steady > 0.0 ? full_steady / incr_steady : 0.0,
               trailing_comma ? "," : "");
}

// Both comparisons on the fixture world of one seed.
struct SeedResult {
  scenario::ScenarioParams params;
  ConfigResult base;
  ConfigResult slurm;
};

std::optional<SeedResult> run_seed(std::uint64_t seed, bool warm_up) {
  SeedResult result;
  result.params = fixture_params(seed);
  std::printf("seed %llu: probing the timeline for a %d-day quiet stretch "
              "...\n",
              static_cast<unsigned long long>(seed), kRounds * kIntervalDays);
  const auto quiet = find_quiet_window(result.params, kRounds * kIntervalDays);
  if (!quiet.has_value()) return std::nullopt;
  std::printf("quiet window starts %s\n", quiet->to_string().c_str());

  if (warm_up) {
    // The first configuration a process runs is ~1.7x slower than the
    // same work later, on both legs. Run it once untimed, so recorded
    // totals do not depend on which configuration runs first.
    run_config("warm ", result.params, *quiet);
  }
  result.base = run_config("base ", result.params, *quiet);
  scenario::ScenarioParams slurm_params = result.params;
  slurm_params.slurm_fraction = kSlurmFraction;
  result.slurm = run_config("slurm", slurm_params, *quiet);
  return result;
}

// One seed's keys, each line prefixed by `indent`.
void write_seed(std::FILE* f, const std::string& indent,
                const SeedResult& r) {
  const std::string in2 = indent + "  ";
  const std::string in3 = in2 + "  ";
  std::fprintf(f,
               "%s\"scenario\": {\"seed\": %llu, \"rounds\": %d, "
               "\"interval_days\": %d, \"threads\": %d, "
               "\"churn_roas_per_round\": %d},\n",
               indent.c_str(), static_cast<unsigned long long>(r.params.seed),
               kRounds, kIntervalDays, kThreads, kChurnRoasPerRound);
  std::fprintf(f, "%s\"rounds\": [\n", indent.c_str());
  write_samples(f, in2.c_str(), r.base.samples);
  std::fprintf(f, "%s],\n", indent.c_str());
  write_totals(f, indent.c_str(), r.base, /*trailing_comma=*/true);
  std::fprintf(f, "%s\"slurm\": {\n", indent.c_str());
  std::fprintf(f, "%s\"slurm_fraction\": %.2f,\n", in2.c_str(),
               kSlurmFraction);
  std::fprintf(f, "%s\"rounds\": [\n", in2.c_str());
  write_samples(f, in3.c_str(), r.slurm.samples);
  std::fprintf(f, "%s],\n", in2.c_str());
  write_totals(f, in2.c_str(), r.slurm, /*trailing_comma=*/false);
  std::fprintf(f, "%s}", indent.c_str());
}

// Seed 11's keys at the top level, as before seed 42 joined; seed 42's
// in a "seed42" block of the same shape when it had a quiet window.
void write_json(const std::string& path, const SeedResult& seed11,
                const std::optional<SeedResult>& seed42) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host\": %s,\n", rovista::bench::host_json().c_str());
  write_seed(f, "  ", seed11);
  if (seed42.has_value()) {
    std::fprintf(f, ",\n  \"seed42\": {\n");
    write_seed(f, "    ", *seed42);
    std::fprintf(f, "\n  }");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  rovista::bench::print_header(
      "bench_incremental_round — VRP-delta-driven recomputation",
      "incremental engine contract (DESIGN.md, \"Incremental longitudinal "
      "engine\")");

  const std::optional<SeedResult> seed11 = run_seed(11, /*warm_up=*/true);
  if (!seed11.has_value()) {
    std::fprintf(stderr, "FAIL: no quiet window in the seed-11 timeline\n");
    return 1;
  }
  const std::optional<SeedResult> seed42 = run_seed(42, /*warm_up=*/false);
  if (!seed42.has_value()) {
    std::printf("seed 42: no quiet window in the timeline, seed 11 only\n");
  }

  write_json("BENCH_incremental.json", *seed11, seed42);
  std::printf("wrote BENCH_incremental.json\n");

  int rc = 0;
  const auto gate = [&](const char* label, const ConfigResult& r) {
    if (!r.all_identical) {
      std::fprintf(stderr, "FAIL(%s): incremental output diverged from full\n",
                   label);
      rc = 1;
    }
    if (!r.churn_bounded) {
      std::fprintf(stderr, "FAIL(%s): per-round ROA churn exceeded 5%%\n",
                   label);
      rc = 1;
    }
    if (r.speedup() < 5.0) {
      std::fprintf(stderr, "FAIL(%s): 10-round speedup %.2fx below 5x\n",
                   label, r.speedup());
      rc = 1;
    }
  };
  gate("base", seed11->base);
  gate("slurm", seed11->slurm);
  if (seed42.has_value()) {
    gate("seed42 base", seed42->base);
    gate("seed42 slurm", seed42->slurm);
  }
  return rc;
}
