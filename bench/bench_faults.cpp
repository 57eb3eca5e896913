// bench_faults — cost of the RPKI supply-chain fault-injection layer.
//
// Two claims are pinned, both against the same fixture-scale world:
//
//   1. Knob-zero overhead. With every fault rate at its default 0 the
//      layer must be free: the scenario never builds a FaultChain and
//      the routing system keeps no per-AS views. The claim is gated on
//      an *upper-bound composition*: the idle machinery's per-advance
//      and per-world-construction cost is measured in tight
//      single-threaded loops (knob-zero vs an *armed-but-idle* world —
//      a fault chain built from a vanishingly small failure rate, so
//      every hook runs but nothing ever degrades), multiplied by a
//      deliberately generous count of hook sites per engine round, and
//      divided by the measured per-round baseline. Differencing two
//      whole multithreaded engine series directly is hopeless on shared
//      hardware — identical back-to-back runs were observed 25% apart —
//      while the composed bound is built from paired single-threaded
//      timings (each rep runs both legs back to back; the gated delta
//      is the smallest over reps, so one quiet rep suffices) and only
//      uses the noisy series time as a min-of-reps denominator, which
//      can only *overstate* the ratio. The
//      armed-idle engine rounds are also checked bit-identical to
//      knob-zero rounds: an empty schedule may not perturb a single
//      observation.
//
//   2. Degraded-world speedup. Under 10% RP failure / 20% divergence /
//      10% RTR drop the incremental engine must stay bit-identical to
//      a full recompute (the series oracle, tests/series_oracle.h) every
//      round — round health included — and keep a real speedup even
//      though failure windows opening and closing dirty routes between
//      rounds.
//
// Results go to BENCH_faults.json; exits non-zero if outputs diverge,
// idle overhead reaches 2%, or the degraded 10-round steady-state
// speedup falls below 1.5x (observed ~2x; the gate leaves headroom
// because a third of the steady rounds are genuine full-dirty
// recomputes forced by fault windows opening or closing).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "faults/fault_chain.h"
#include "incremental/longitudinal_engine.h"
#include "series_oracle.h"

namespace {

using namespace rovista;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 10;
constexpr int kIntervalDays = 5;
constexpr int kThreads = 4;
constexpr int kOverheadDays = 200;
constexpr int kOverheadReps = 5;

constexpr double kFailureRate = 0.10;
constexpr double kDivergenceFraction = 0.20;
constexpr double kDropRate = 0.10;

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

// Enabled, but nothing will ever trip: every per-day fault hook runs
// against an empty schedule.
scenario::ScenarioParams armed_idle_params() {
  scenario::ScenarioParams params = fixture_params();
  params.faults.rp_failure_rate = 1e-12;
  return params;
}

scenario::ScenarioParams faulted_params() {
  scenario::ScenarioParams params = fixture_params();
  params.faults.rp_failure_rate = kFailureRate;
  params.faults.rp_divergence_fraction = kDivergenceFraction;
  params.faults.rtr_drop_rate = kDropRate;
  return params;
}

incremental::IncrementalConfig engine_config(
    const scenario::ScenarioParams& params) {
  incremental::IncrementalConfig config;
  config.params = params;
  config.rovista.scoring.min_vvps_per_as = 2;
  config.rovista.scoring.min_tnodes = 2;
  config.rovista.num_threads = kThreads;
  return config;
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

std::vector<util::Date> round_dates(const scenario::ScenarioParams& params) {
  std::vector<util::Date> dates;
  for (int r = 0; r < kRounds; ++r) {
    dates.push_back(params.start + 100 + r * kIntervalDays);
  }
  return dates;
}

// ---------- claim 1: knob-zero overhead ----------

// Generous upper bounds on how often a single engine round exercises the
// idle fault machinery. Per round the engine advances the tracking world
// once and publishes one epoch; its discovery and measurement readers
// construct and advance no worlds. The bounds below sit far above that
// (they also cover one acquisition world and one world per thread, ≤ 5
// constructions and ≤ 11 advances at kThreads=4), so the composed ratio
// stays an upper bound even if the engine grows more hook sites.
constexpr int kIdleWorldsPerRound = 8;
constexpr int kIdleAdvancesPerRound = 24;

double advance_loop_seconds(const scenario::ScenarioParams& params) {
  scenario::Scenario world(params);
  const auto start = Clock::now();
  for (int day = 1; day <= kOverheadDays; ++day) {
    world.advance_to(params.start + day);
  }
  return seconds_since(start);
}

double construct_seconds(const scenario::ScenarioParams& params) {
  constexpr int kWorlds = 8;
  const auto start = Clock::now();
  for (int i = 0; i < kWorlds; ++i) scenario::Scenario world(params);
  return seconds_since(start) / kWorlds;
}

// Paired timing: each rep measures the knob-zero and the armed-idle leg
// back to back, so sustained background load lands on both. The gated
// delta is the smallest over reps — one quiet rep is enough — while the
// per-leg minima feed the informational ratios.
struct Paired {
  double base_min = 0.0;
  double armed_min = 0.0;
  double delta_min = 0.0;  // min over reps of (armed - base); may be < 0

  double delta() const { return delta_min > 0.0 ? delta_min : 0.0; }
};

template <typename F>
Paired paired_min(F&& once, const scenario::ScenarioParams& base_params,
                  const scenario::ScenarioParams& armed_params) {
  Paired r;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const double b = once(base_params);
    const double a = once(armed_params);
    if (rep == 0 || b < r.base_min) r.base_min = b;
    if (rep == 0 || a < r.armed_min) r.armed_min = a;
    const double d = a - b;
    if (rep == 0 || d < r.delta_min) r.delta_min = d;
  }
  return r;
}

struct OverheadResult {
  // Stable single-threaded numerators: what one idle hook call costs.
  Paired advance;    // kOverheadDays advances per leg
  Paired construct;  // one world construction per leg
  // Denominator: one knob-zero engine round (series min / kRounds).
  double round_baseline_s = 0.0;
  bool identical = false;

  double hook_advance_s() const { return advance.delta() / kOverheadDays; }
  double hook_construct_s() const { return construct.delta(); }
  /// Upper bound on what the idle machinery adds to one engine round.
  double overhead_pct() const {
    if (round_baseline_s <= 0.0) return 0.0;
    const double idle_s = kIdleAdvancesPerRound * hook_advance_s() +
                          kIdleWorldsPerRound * hook_construct_s();
    return 100.0 * idle_s / round_baseline_s;
  }
  double advance_overhead_pct() const {
    return advance.base_min > 0.0
               ? 100.0 * (advance.armed_min - advance.base_min) /
                     advance.base_min
               : 0.0;
  }
};

// Wall seconds for one full kRounds engine series from a cold runner.
double engine_series_seconds(const scenario::ScenarioParams& params) {
  incremental::IncrementalLongitudinalRunner runner(engine_config(params));
  const auto start = Clock::now();
  for (const util::Date date : round_dates(params)) runner.run_round(date);
  return seconds_since(start);
}

OverheadResult measure_overhead() {
  OverheadResult result;
  result.advance =
      paired_min(advance_loop_seconds, fixture_params(), armed_idle_params());
  result.construct =
      paired_min(construct_seconds, fixture_params(), armed_idle_params());
  std::printf(
      "idle hook: %.2fus per advance (%d-day loops: baseline %.3fs, "
      "armed-idle %.3fs, %.2f%%), %.2fus per world construction\n",
      result.hook_advance_s() * 1e6, kOverheadDays, result.advance.base_min,
      result.advance.armed_min, result.advance_overhead_pct(),
      result.hook_construct_s() * 1e6);

  // Bit-identity: an armed-but-idle chain may not change a single
  // measured bit, and may not report a degraded round.
  incremental::IncrementalLongitudinalRunner knob0(
      engine_config(fixture_params()));
  incremental::IncrementalLongitudinalRunner armed(
      engine_config(armed_idle_params()));
  result.identical = true;
  for (const util::Date date : round_dates(fixture_params())) {
    const incremental::RoundReport a = knob0.run_round(date);
    const incremental::RoundReport b = armed.run_round(date);
    if (!rounds_identical(a.round, b.round) || b.health.degraded()) {
      result.identical = false;
    }
  }

  double series_s = 0.0;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const double s = engine_series_seconds(fixture_params());
    if (rep == 0 || s < series_s) series_s = s;
  }
  result.round_baseline_s = series_s / kRounds;
  std::printf(
      "knob-0 overhead (gated upper bound): %.2f%% of a %.3fs round "
      "(<= %d idle advances + %d idle constructions per round)\n",
      result.overhead_pct(), result.round_baseline_s, kIdleAdvancesPerRound,
      kIdleWorldsPerRound);
  std::printf("armed-idle rounds %s knob-0 rounds\n",
              result.identical ? "bit-identical to" : "DIVERGED from");
  return result;
}

// ---------- claim 2: degraded-world speedup ----------

struct RoundSample {
  util::Date date;
  double full_s = 0.0;
  double incr_s = 0.0;
  std::size_t dirty_rows = 0;
  std::size_t total_rows = 0;
  std::size_t stale_ases = 0;
  std::size_t expired_ases = 0;
  std::size_t diverged_ases = 0;
  bool identical = false;
};

struct FaultedResult {
  std::vector<RoundSample> samples;
  double full_total = 0.0;
  double incr_total = 0.0;
  bool all_identical = true;
  bool any_degraded = false;

  double steady_full() const {
    double s = 0.0;
    for (std::size_t i = 1; i < samples.size(); ++i) s += samples[i].full_s;
    return s;
  }
  double steady_incr() const {
    double s = 0.0;
    for (std::size_t i = 1; i < samples.size(); ++i) s += samples[i].incr_s;
    return s;
  }
  double steady_speedup() const {
    return steady_incr() > 0.0 ? steady_full() / steady_incr() : 0.0;
  }
};

FaultedResult run_faulted() {
  const incremental::IncrementalConfig config =
      engine_config(faulted_params());
  test::SeriesOracle full(config.params, config.rovista);
  incremental::IncrementalLongitudinalRunner incr(config);

  FaultedResult result;
  for (const util::Date date : round_dates(config.params)) {
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
    s.dirty_rows = incr_report.dirty_rows;
    s.total_rows = incr_report.total_rows;
    s.stale_ases = incr_report.health.stale_ases;
    s.expired_ases = incr_report.health.expired_ases;
    s.diverged_ases = incr_report.health.diverged_ases;
    s.identical = rounds_identical(full_round.round, incr_report.round) &&
                  full_round.health == incr_report.health;
    result.samples.push_back(s);
    result.full_total += full_s;
    result.incr_total += incr_s;
    result.all_identical = result.all_identical && s.identical;
    result.any_degraded =
        result.any_degraded || incr_report.health.degraded();

    std::printf(
        "faulted %s  full %7.3fs  incr %7.3fs  speedup %6.2fx  "
        "dirty rows %zu/%zu  stale %zu expired %zu diverged %zu  %s\n",
        date.to_string().c_str(), full_s, incr_s,
        incr_s > 0.0 ? full_s / incr_s : 0.0, s.dirty_rows, s.total_rows,
        s.stale_ases, s.expired_ases, s.diverged_ases,
        s.identical ? "bit-identical" : "MISMATCH");
  }
  std::printf(
      "faulted steady state (rounds 1..%d): full %.3fs  incremental %.3fs  "
      "%.2fx\n",
      kRounds - 1, result.steady_full(), result.steady_incr(),
      result.steady_speedup());
  return result;
}

void write_json(const OverheadResult& overhead, const FaultedResult& faulted) {
  std::FILE* f = std::fopen("BENCH_faults.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_faults.json\n");
    std::exit(1);
  }
  const scenario::ScenarioParams params = fixture_params();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host\": %s,\n", bench::host_json().c_str());
  std::fprintf(f,
               "  \"scenario\": {\"seed\": %llu, \"rounds\": %d, "
               "\"interval_days\": %d, \"threads\": %d},\n",
               static_cast<unsigned long long>(params.seed), kRounds,
               kIntervalDays, kThreads);
  std::fprintf(f,
               "  \"knob0_overhead\": {\"reps\": %d, "
               "\"overhead_pct_upper_bound\": %.4f, "
               "\"round_baseline_s\": %.6f, \"identical\": %s,\n",
               kOverheadReps, overhead.overhead_pct(),
               overhead.round_baseline_s,
               overhead.identical ? "true" : "false");
  std::fprintf(f,
               "    \"hook_advance_us\": %.3f, \"hook_construct_us\": %.3f, "
               "\"idle_advances_per_round\": %d, "
               "\"idle_worlds_per_round\": %d,\n",
               overhead.hook_advance_s() * 1e6,
               overhead.hook_construct_s() * 1e6, kIdleAdvancesPerRound,
               kIdleWorldsPerRound);
  std::fprintf(f,
               "    \"advance_days\": %d, \"advance_baseline_s\": %.6f, "
               "\"advance_armed_idle_s\": %.6f, "
               "\"advance_overhead_pct\": %.3f},\n",
               kOverheadDays, overhead.advance.base_min,
               overhead.advance.armed_min, overhead.advance_overhead_pct());
  std::fprintf(f,
               "  \"faulted\": {\n"
               "    \"rp_failure_rate\": %.2f, "
               "\"rp_divergence_fraction\": %.2f, \"rtr_drop_rate\": %.2f,\n",
               kFailureRate, kDivergenceFraction, kDropRate);
  std::fprintf(f, "    \"rounds\": [\n");
  for (std::size_t i = 0; i < faulted.samples.size(); ++i) {
    const RoundSample& s = faulted.samples[i];
    std::fprintf(
        f,
        "      {\"date\": \"%s\", \"full_s\": %.6f, \"incremental_s\": "
        "%.6f, \"speedup\": %.2f, \"dirty_rows\": %zu, \"total_rows\": %zu, "
        "\"stale_ases\": %zu, \"expired_ases\": %zu, \"diverged_ases\": "
        "%zu, \"identical\": %s}%s\n",
        s.date.to_string().c_str(), s.full_s, s.incr_s,
        s.incr_s > 0.0 ? s.full_s / s.incr_s : 0.0, s.dirty_rows,
        s.total_rows, s.stale_ases, s.expired_ases, s.diverged_ases,
        s.identical ? "true" : "false",
        i + 1 < faulted.samples.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"total\": {\"full_s\": %.6f, \"incremental_s\": %.6f, "
               "\"speedup\": %.2f},\n",
               faulted.full_total, faulted.incr_total,
               faulted.incr_total > 0.0
                   ? faulted.full_total / faulted.incr_total
                   : 0.0);
  std::fprintf(f,
               "    \"steady_state\": {\"full_s\": %.6f, "
               "\"incremental_s\": %.6f, \"speedup\": %.2f}\n",
               faulted.steady_full(), faulted.steady_incr(),
               faulted.steady_speedup());
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  rovista::bench::print_header(
      "bench_faults — fault-injection layer cost",
      "knob-0 must be free; degraded worlds must keep the incremental "
      "speedup (DESIGN.md, \"Fault model and degradation contract\")");

  const OverheadResult overhead = measure_overhead();
  const FaultedResult faulted = run_faulted();
  write_json(overhead, faulted);
  std::printf("wrote BENCH_faults.json\n");

  int rc = 0;
  if (!overhead.identical) {
    std::fprintf(stderr,
                 "FAIL: armed-idle rounds diverged from knob-0 rounds\n");
    rc = 1;
  }
  if (overhead.overhead_pct() >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: knob-0 overhead upper bound %.2f%% reaches 2%%\n",
                 overhead.overhead_pct());
    rc = 1;
  }
  if (!faulted.all_identical) {
    std::fprintf(stderr,
                 "FAIL: faulted incremental output diverged from full\n");
    rc = 1;
  }
  if (!faulted.any_degraded) {
    std::fprintf(stderr,
                 "FAIL: no round ran degraded — the bench is vacuous\n");
    rc = 1;
  }
  if (faulted.steady_speedup() < 1.5) {
    std::fprintf(stderr,
                 "FAIL: faulted steady-state speedup %.2fx below 1.5x\n",
                 faulted.steady_speedup());
    rc = 1;
  }
  return rc;
}
