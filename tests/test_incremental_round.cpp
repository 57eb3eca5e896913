// The incremental engine's strict contract (incremental/
// longitudinal_engine.h): every round's MeasurementRound — observations,
// scores, counters — is bit-identical to the from-scratch recompute of
// the series oracle (series_oracle.h) at that date, for any thread
// count, and the published CSV datasets match byte for byte. Also pins
// that the machinery actually engages: a repeated date reuses
// everything, and memoized pair fingerprints equal a fresh recompute.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/publish.h"
#include "dataplane/fingerprint.h"
#include "incremental/longitudinal_engine.h"
#include "persist/checkpoint.h"
#include "persist/wire.h"
#include "incremental/dirty_prefix.h"
#include "incremental/vrp_delta.h"
#include "round_fixture.h"
#include "series_oracle.h"

namespace {

using namespace rovista;

std::vector<util::Date> round_dates(const scenario::ScenarioParams& params) {
  // Spread over the window so the timeline contributes ROV enablements
  // and announcement churn between rounds.
  return {params.start + 150, params.start + 171, params.start + 215};
}

incremental::IncrementalConfig engine_config(int num_threads) {
  incremental::IncrementalConfig config;
  config.params = testfx::round_params();
  config.rovista = testfx::round_config();
  config.rovista.num_threads = num_threads;
  return config;
}

void expect_bit_identical(const core::MeasurementRound& a,
                          const core::MeasurementRound& b,
                          const char* label) {
  EXPECT_EQ(a.experiments_run, b.experiments_run) << label;
  EXPECT_EQ(a.inconclusive, b.inconclusive) << label;
  ASSERT_EQ(a.observations.size(), b.observations.size()) << label;
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const core::PairObservation& x = a.observations[i];
    const core::PairObservation& y = b.observations[i];
    ASSERT_EQ(x.vvp_as, y.vvp_as) << label << " observation " << i;
    ASSERT_EQ(x.vvp.value(), y.vvp.value()) << label << " observation " << i;
    ASSERT_EQ(x.tnode.value(), y.tnode.value())
        << label << " observation " << i;
    ASSERT_EQ(x.verdict, y.verdict) << label << " observation " << i;
  }
  ASSERT_EQ(a.scores.size(), b.scores.size()) << label;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    const core::AsScore& x = a.scores[i];
    const core::AsScore& y = b.scores[i];
    ASSERT_EQ(x.asn, y.asn) << label;
    ASSERT_EQ(std::memcmp(&x.score, &y.score, sizeof(double)), 0)
        << label << " AS" << x.asn << ": " << x.score << " vs " << y.score;
    ASSERT_EQ(x.vvp_count, y.vvp_count) << label;
    ASSERT_EQ(x.tnodes_consistent, y.tnodes_consistent) << label;
    ASSERT_EQ(x.tnodes_outbound, y.tnodes_outbound) << label;
    ASSERT_EQ(x.tnodes_inconsistent, y.tnodes_inconsistent) << label;
  }
}

/// A fresh path under the temp directory, removed with everything under
/// it when the object dies.
struct TempDir {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("rovista-incr-" + std::to_string(::getpid()) + "-" +
       std::to_string(counter++));
  ~TempDir() { std::filesystem::remove_all(path); }
  static inline int counter = 0;
};

std::map<std::string, std::string> read_dir(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream f(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    files[entry.path().filename().string()] = buf.str();
  }
  return files;
}

/// `store` must publish the very files, byte for byte, that `oracle`
/// publishes.
void expect_publishes_oracle_bytes(const test::SeriesOracle& oracle,
                                   const core::LongitudinalStore& store,
                                   const std::string& label) {
  TempDir want;
  TempDir got;
  ASSERT_TRUE(oracle.publish(want.path.string()).has_value()) << label;
  ASSERT_TRUE(core::publish_scores(store, got.path.string()).has_value())
      << label;
  EXPECT_EQ(read_dir(want.path), read_dir(got.path)) << label;
}

/// How many rounds of a series took each reuse, or did real work.
struct SeriesCounts {
  std::size_t discovery_reused = 0;
  std::size_t relying_party_skipped = 0;
  std::size_t epoch_shared = 0;
  std::size_t memo_kept = 0;
  // Rounds after the first (which applies every event since the
  // window's start and measures every row):
  std::size_t event_rounds = 0;  // applied a timeline event
  std::size_t rerun_rounds = 0;  // re-measured some row
};

/// Run the same dated series through a runner of `config` and through
/// the oracle, holding every round to the oracle's, then the published
/// datasets to each other.
SeriesCounts expect_series_matches_oracle(
    const incremental::IncrementalConfig& config,
    const std::vector<util::Date>& dates, const std::string& label) {
  test::SeriesOracle oracle(config.params, config.rovista);
  incremental::IncrementalLongitudinalRunner runner(config);
  SeriesCounts counts;
  for (const util::Date date : dates) {
    const incremental::RoundReport report = runner.run_round(date);
    counts.discovery_reused += report.discovery_reused ? 1 : 0;
    counts.relying_party_skipped += report.relying_party_skipped ? 1 : 0;
    counts.epoch_shared += report.epoch_shared ? 1 : 0;
    counts.memo_kept += report.memo_kept ? 1 : 0;
    if (runner.completed_rounds() > 1) {
      counts.event_rounds += report.events > 0 ? 1 : 0;
      counts.rerun_rounds += report.dirty_rows > 0 ? 1 : 0;
    }
    const std::string round_label = label + " " + date.to_string();
    expect_bit_identical(oracle.run_round(date).round, report.round,
                         round_label.c_str());
  }
  expect_publishes_oracle_bytes(oracle, runner.store(), label);
  return counts;
}

class IncrementalRound : public ::testing::Test {
 protected:
  // One oracle series over the dates, shared across the per-thread-
  // count test cases.
  static void SetUpTestSuite() {
    const incremental::IncrementalConfig config = engine_config(0);
    oracle_ = new test::SeriesOracle(config.params, config.rovista);
    for (const util::Date date : round_dates(config.params)) {
      oracle_->run_round(date);
    }
  }

  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
  }

  static void expect_incremental_matches_oracle(int num_threads) {
    incremental::IncrementalLongitudinalRunner runner(
        engine_config(num_threads));
    const auto dates = round_dates(runner.config().params);
    for (std::size_t i = 0; i < dates.size(); ++i) {
      const incremental::RoundReport report = runner.run_round(dates[i]);
      const std::string label = dates[i].to_string() + " @ " +
                                std::to_string(num_threads) + " threads";
      expect_bit_identical(oracle_->rounds()[i].round, report.round,
                           label.c_str());
    }
  }

  static test::SeriesOracle* oracle_;
};

test::SeriesOracle* IncrementalRound::oracle_ = nullptr;

TEST_F(IncrementalRound, FixtureIsNonTrivial) {
  ASSERT_EQ(oracle_->rounds().size(), 3u);
  for (const test::OracleRound& r : oracle_->rounds()) {
    EXPECT_GE(r.vvp_count, 9u);
    EXPECT_GT(r.vvp_count * r.tnode_count, 0u);
    EXPECT_FALSE(r.round.scores.empty());
  }
  // The window between rounds must exercise real change, or the
  // incremental comparison would be vacuous.
  incremental::IncrementalLongitudinalRunner runner(engine_config(0));
  std::size_t change = 0;
  for (const util::Date date : round_dates(runner.config().params)) {
    const incremental::RoundReport report = runner.run_round(date);
    if (runner.completed_rounds() > 1) {
      change += report.events + report.vrp_announced;
    }
  }
  EXPECT_GT(change, 0u);
}

TEST_F(IncrementalRound, SerialMatchesFullRecompute) {
  expect_incremental_matches_oracle(1);
}

TEST_F(IncrementalRound, TwoThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(2);
}

TEST_F(IncrementalRound, FourThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(4);
}

TEST_F(IncrementalRound, EightThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(8);
}

TEST_F(IncrementalRound, PublishedDatasetsAreByteIdentical) {
  incremental::IncrementalLongitudinalRunner runner(engine_config(4));
  for (const util::Date date : round_dates(runner.config().params)) {
    runner.run_round(date);
  }
  expect_publishes_oracle_bytes(*oracle_, runner.store(), "plain");
}

// `longitudinal --scale small --seed 3 --interval-days 1 --threads 4`
// with checkpoint and archive writes on, the steady-state daily series:
// two daily stretches of it must measure and publish the oracle's
// bytes. Days 470-529 (2023-04-08 on) mix both kinds of day. Five ROV
// enablements land in them, and rows re-run on 2023-04-30 (an
// enablement), 2023-05-01 (a ROA that dirties a prefix) and 2023-05-22
// (an enablement). The quiet days between take every reuse: discovery,
// the relying-party skip, the shared epoch and the kept fingerprint
// memo. Days 414-421 hold the series' one discovery change: the ROV
// enablement of 2023-02-15 (day 418) adds two tNodes. So a reuse rule
// too loose to see an event or a VRP change fails here.
TEST_F(IncrementalRound, DailySeriesMatchesOracle) {
  const auto daily = [](int first, int last, const char* label) {
    TempDir dir;
    incremental::IncrementalConfig config = engine_config(4);
    config.params = testfx::round_params(3);
    config.checkpoint_dir = (dir.path / "ck").string();
    config.archive_dir = (dir.path / "archive").string();
    std::vector<util::Date> dates;
    for (int day = first; day <= last; ++day) {
      dates.push_back(config.params.start + day);
    }
    return expect_series_matches_oracle(config, dates, label);
  };
  const SeriesCounts counts = daily(470, 529, "daily seed 3");
  EXPECT_EQ(counts.event_rounds, 5u);
  EXPECT_EQ(counts.rerun_rounds, 3u);
  EXPECT_GT(counts.discovery_reused, 0u);
  EXPECT_GT(counts.relying_party_skipped, 0u);
  EXPECT_GT(counts.epoch_shared, 0u);
  EXPECT_GT(counts.memo_kept, 0u);

  const SeriesCounts change = daily(414, 421, "daily seed 3, new tNodes");
  EXPECT_EQ(change.event_rounds, 1u);
  EXPECT_EQ(change.rerun_rounds, 1u);
  EXPECT_GT(change.discovery_reused, 0u);
}

// ---------- SLURM scenarios ----------
//
// Same contract, harder world: a third of the ROV deployers carry RFC
// 8416 local exceptions, so every VRP install must run through the
// per-view dirty-set path of RoutingSystem::apply_vrp_delta instead of
// the (removed) invalidate-everything fallback.

incremental::IncrementalConfig slurm_engine_config(int num_threads) {
  incremental::IncrementalConfig config = engine_config(num_threads);
  config.params.slurm_fraction = 0.35;
  return config;
}

// The engine's install path, replicated so a test can drive the tracking
// world directly and observe cache/view state between rounds.
scenario::VrpInstaller delta_installer(std::size_t* delta_size) {
  return [delta_size](bgp::RoutingSystem& routing, const rpki::VrpSet& prev,
                      rpki::VrpSet next) {
    const incremental::VrpDelta delta =
        incremental::VrpDeltaComputer::diff(prev, next);
    const incremental::DirtyPrefixTracker tracker(delta);
    const std::vector<net::Ipv4Prefix> dirty =
        tracker.dirty_prefixes(prev, next, routing);
    if (delta_size != nullptr) {
      *delta_size = delta.announced.size() + delta.withdrawn.size();
    }
    routing.apply_vrp_delta(std::move(next), dirty, delta.announced,
                            delta.withdrawn);
  };
}

class SlurmIncrementalRound : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const incremental::IncrementalConfig config = slurm_engine_config(0);
    oracle_ = new test::SeriesOracle(config.params, config.rovista);
    for (const util::Date date : round_dates(config.params)) {
      oracle_->run_round(date);
    }
  }

  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
  }

  static void expect_incremental_matches_oracle(int num_threads) {
    incremental::IncrementalLongitudinalRunner runner(
        slurm_engine_config(num_threads));
    const auto dates = round_dates(runner.config().params);
    for (std::size_t i = 0; i < dates.size(); ++i) {
      const incremental::RoundReport report = runner.run_round(dates[i]);
      const std::string label = "slurm " + dates[i].to_string() + " @ " +
                                std::to_string(num_threads) + " threads";
      expect_bit_identical(oracle_->rounds()[i].round, report.round,
                           label.c_str());
    }
  }

  static test::SeriesOracle* oracle_;
};

test::SeriesOracle* SlurmIncrementalRound::oracle_ = nullptr;

TEST_F(SlurmIncrementalRound, FixtureHasSlurmBearingPolicies) {
  // The comparison would be vacuous if no AS actually carried exceptions
  // by the first measured date.
  const incremental::IncrementalConfig config = slurm_engine_config(0);
  scenario::Scenario world(config.params);
  world.advance_to(round_dates(config.params).front());
  std::size_t slurm_ases = 0;
  for (const auto asn : world.graph().all_asns()) {
    if (world.routing().policy(asn).has_slurm()) ++slurm_ases;
  }
  EXPECT_GT(slurm_ases, 0u);
  for (const test::OracleRound& r : oracle_->rounds()) {
    EXPECT_GT(r.vvp_count * r.tnode_count, 0u);
    EXPECT_FALSE(r.round.scores.empty());
  }
}

TEST_F(SlurmIncrementalRound, SerialMatchesFullRecompute) {
  expect_incremental_matches_oracle(1);
}

TEST_F(SlurmIncrementalRound, TwoThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(2);
}

TEST_F(SlurmIncrementalRound, FourThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(4);
}

TEST_F(SlurmIncrementalRound, EightThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(8);
}

TEST_F(SlurmIncrementalRound, PublishedDatasetsAreByteIdentical) {
  incremental::IncrementalLongitudinalRunner runner(slurm_engine_config(4));
  for (const util::Date date : round_dates(runner.config().params)) {
    runner.run_round(date);
  }
  expect_publishes_oracle_bytes(*oracle_, runner.store(), "slurm");
}

// `longitudinal --seed 11 --rounds 6 --interval-days 20 --scale small
// --slurm-fraction 0.35`: six rounds from the window's first day, every
// delta install through the per-view dirty-set path.
TEST_F(SlurmIncrementalRound, SixRoundSeriesMatchesOracle) {
  const incremental::IncrementalConfig config = slurm_engine_config(0);
  std::vector<util::Date> dates;
  for (int i = 0; i < 6; ++i) dates.push_back(config.params.start + 20 * i);
  expect_series_matches_oracle(config, dates, "slurm 6 x 20 days");
}

TEST_F(SlurmIncrementalRound, DeltaInstallKeepsCacheAndViews) {
  // Direct proof the fallback is gone: across a VRP delta on a day with
  // no timeline events, converged routes stay cached and the
  // materialized SLURM views survive (invalidate_all + view clearing
  // would zero both).
  incremental::IncrementalLongitudinalRunner runner(slurm_engine_config(1));
  const auto dates = round_dates(runner.config().params);
  runner.run_round(dates[0]);

  bgp::RoutingSystem& routing = runner.world().routing();
  ASSERT_GT(routing.cached_prefixes(), 0u);
  ASSERT_GT(routing.slurm_view_count(), 0u);

  std::size_t delta_size = 0;
  const scenario::VrpInstaller installer = delta_installer(&delta_size);
  util::Date date = dates[0];
  const util::Date limit = runner.config().params.end;
  bool saw_quiet_delta = false;
  while (!saw_quiet_delta && date < limit) {
    date = date + 1;
    // Event days legitimately drop cached routes (policy churn with
    // SLURM configured invalidates everything); re-warm a handful so a
    // quiet-day delta install has state to preserve.
    if (routing.cached_prefixes() == 0) {
      const auto prefixes = routing.all_prefixes();
      for (std::size_t i = 0; i < prefixes.size() && i < 8; ++i) {
        (void)routing.routes_for(prefixes[i]);
      }
    }
    const std::size_t views_before = routing.slurm_view_count();
    const scenario::AdvanceStats stats =
        runner.world().advance_to(date, installer);
    if (stats.events() != 0) continue;  // policy churn clears caches
    EXPECT_EQ(routing.slurm_view_count(), views_before);
    if (delta_size > 0) {
      EXPECT_GT(routing.cached_prefixes(), 0u)
          << "delta install on " << date.to_string()
          << " wiped the route cache";
      saw_quiet_delta = true;
    }
  }
  EXPECT_TRUE(saw_quiet_delta)
      << "no event-free day with a VRP delta inside the window";
}

TEST_F(SlurmIncrementalRound, CheckpointResumeMatchesUninterrupted) {
  // Two rounds, checkpoint, resume in a new runner at a different thread
  // count over the same archive, final round bit-identical and the whole
  // published series byte-identical to the oracle's.
  TempDir archive;
  incremental::IncrementalConfig config = slurm_engine_config(2);
  config.archive_dir = archive.path.string();
  incremental::IncrementalLongitudinalRunner partial(config);
  const auto dates = round_dates(partial.config().params);
  partial.run_round(dates[0]);
  partial.run_round(dates[1]);
  const persist::CheckpointState state = partial.checkpoint_state();

  config.rovista.num_threads = 4;
  incremental::IncrementalLongitudinalRunner resumed(config);
  ASSERT_TRUE(resumed.restore(state));
  EXPECT_EQ(resumed.completed_rounds(), 2u);
  const incremental::RoundReport last = resumed.run_round(dates[2]);
  expect_bit_identical(oracle_->rounds()[2].round, last.round,
                       "slurm resume");
  expect_publishes_oracle_bytes(*oracle_, resumed.store(), "slurm resume");
}

// ---------- Discovery oracle ----------
//
// The engine acquires vVPs and tNodes on a reader of the round's
// published epoch (snapshot::acquire_inputs_on_epoch) and reuses the
// previous round's lists when nothing discovery reads changed. Either
// way the lists must equal discovery on a world built from scratch at
// that date, in plain, SLURM-bearing and fault-injected worlds; the
// repeated and consecutive dates exercise reuse.

void expect_same_inputs(const testfx::RoundInputs& want,
                        const std::vector<scan::Vvp>& vvps,
                        const std::vector<scan::Tnode>& tnodes,
                        const std::string& label) {
  ASSERT_EQ(want.vvps.size(), vvps.size()) << label;
  for (std::size_t i = 0; i < vvps.size(); ++i) {
    EXPECT_EQ(want.vvps[i].address, vvps[i].address) << label << " vVP " << i;
    EXPECT_EQ(want.vvps[i].asn, vvps[i].asn) << label << " vVP " << i;
    EXPECT_EQ(want.vvps[i].est_background_rate, vvps[i].est_background_rate)
        << label << " vVP " << i;
  }
  ASSERT_EQ(want.tnodes.size(), tnodes.size()) << label;
  for (std::size_t i = 0; i < tnodes.size(); ++i) {
    EXPECT_EQ(want.tnodes[i].address, tnodes[i].address)
        << label << " tNode " << i;
    EXPECT_EQ(want.tnodes[i].port, tnodes[i].port) << label << " tNode " << i;
    EXPECT_EQ(want.tnodes[i].prefix, tnodes[i].prefix)
        << label << " tNode " << i;
    EXPECT_EQ(want.tnodes[i].origin, tnodes[i].origin)
        << label << " tNode " << i;
  }
}

TEST(DiscoveryOracle, EpochReaderMatchesFreshWorld) {
  incremental::IncrementalConfig faulted =
      engine_config(1);
  faulted.params.faults.rp_failure_rate = 0.15;
  faulted.params.faults.rp_divergence_fraction = 0.2;
  faulted.params.faults.rtr_drop_rate = 0.15;
  const std::pair<const char*, incremental::IncrementalConfig> fixtures[] = {
      {"plain", engine_config(1)},
      {"slurm", slurm_engine_config(1)},
      {"faulted", faulted}};
  for (const auto& [name, config] : fixtures) {
    incremental::IncrementalLongitudinalRunner runner(config);
    std::size_t reused = 0;
    for (const int offset : {150, 150, 151, 152, 171, 172, 215}) {
      const util::Date date = config.params.start + offset;
      if (runner.run_round(date).discovery_reused) ++reused;
      const std::string label = std::string(name) + " " + date.to_string();
      ASSERT_FALSE(runner.vvps().empty()) << label;
      ASSERT_FALSE(runner.tnodes().empty()) << label;
      expect_same_inputs(
          testfx::acquire_round_inputs(config.params, date, config.rovista),
          runner.vvps(), runner.tnodes(), label);
    }
    EXPECT_GT(reused, 0u) << name << ": no round reused discovery";
  }
}

// ---------- Fingerprint oracle ----------
//
// run_round fingerprints pairs through a per-round memo of word streams
// and keeps last round's fingerprint for every pair whose streams are
// all unchanged. After each round, every cache entry must still hold
// the fingerprint dataplane::pair_fingerprint computes afresh on the
// tracking world: in plain, SLURM-bearing and fault-injected worlds, on
// repeated, consecutive and distant dates, and across a restore, which
// drops the memo so that the next round re-hashes every pair. On +247
// the faulted world's fault views change with no event and no VRP
// delta: its vVP/tNode lists stay, and only the pairs whose journeys
// changed may be re-hashed — the round that catches a memo keeping a
// stale fingerprint. Quiet days (+151, +152, +172, +369) keep last
// round's memo whole; +370 enables ROV at one AS with a VRP delta of
// zero and the same lists, so only the routing generation tells the
// memo that some journeys changed.

void expect_cache_holds_fingerprints(
    incremental::IncrementalLongitudinalRunner& runner,
    const std::string& label) {
  const persist::CheckpointState state = runner.checkpoint_state();
  scenario::Scenario& world = runner.world();
  dataplane::DataPlane& plane = world.plane();
  const std::size_t t_count = runner.tnodes().size();
  ASSERT_EQ(state.cache_entries.size(), runner.vvps().size() * t_count)
      << label;
  for (std::size_t v = 0; v < runner.vvps().size(); ++v) {
    const scan::Vvp& vvp = runner.vvps()[v];
    for (std::size_t t = 0; t < t_count; ++t) {
      const scan::Tnode& tnode = runner.tnodes()[t];
      const auto& entry = state.cache_entries[v * t_count + t];
      ASSERT_TRUE(entry.has_value()) << label << " pair " << v << "," << t;
      const std::uint64_t want = dataplane::pair_fingerprint(
          plane, {world.client_as_a(), world.client_addr_a(), vvp.asn,
                  vvp.address, plane.as_of(tnode.address), tnode.address});
      ASSERT_EQ(entry->fingerprint, want)
          << label << " pair " << v << "," << t;
    }
  }
}

TEST(FingerprintOracle, MemoMatchesRecompute) {
  incremental::IncrementalConfig faulted =
      engine_config(1);
  faulted.params.faults.rp_failure_rate = 0.15;
  faulted.params.faults.rp_divergence_fraction = 0.2;
  faulted.params.faults.rtr_drop_rate = 0.15;
  const std::pair<const char*, incremental::IncrementalConfig> fixtures[] = {
      {"plain", engine_config(1)},
      {"slurm", slurm_engine_config(1)},
      {"faulted", faulted}};
  constexpr int kOffsets[] = {150, 150, 151, 152, 171, 172,
                             215, 246, 247, 369, 370};
  constexpr std::size_t kRepeated = 1;  // +150 again
  constexpr std::size_t kResumeAt = 4;  // restore, then run +171
  constexpr std::size_t kPolicy = 10;   // +370: an enablement, no delta
  std::size_t mixed_rounds = 0;  // re-hashed some pairs, kept the others
  for (auto [name, config] : fixtures) {
    TempDir archive;  // restore() resumes the series' archive
    config.archive_dir = archive.path.string();
    auto runner =
        std::make_unique<incremental::IncrementalLongitudinalRunner>(config);
    bool partial = false;
    std::size_t kept_memos = 0;
    // The faulted world measures no pair by +369.
    const bool faulted_world = std::string(name) == "faulted";
    const std::size_t rounds =
        faulted_world ? kPolicy - 1 : std::size(kOffsets);
    for (std::size_t i = 0; i < rounds; ++i) {
      if (i == kResumeAt) {
        auto resumed =
            std::make_unique<incremental::IncrementalLongitudinalRunner>(
                config);
        ASSERT_TRUE(resumed->restore(runner->checkpoint_state())) << name;
        runner = std::move(resumed);
      }
      const util::Date date = config.params.start + kOffsets[i];
      const incremental::RoundReport report = runner->run_round(date);
      const std::string label = std::string(name) + " " + date.to_string();
      ASSERT_GT(report.total_pairs, 0u) << label;
      expect_cache_holds_fingerprints(*runner, label);
      if (report.memo_kept) {
        ++kept_memos;
        EXPECT_EQ(report.rehashed_pairs, 0u) << label;
      }
      if (i == kPolicy) {
        EXPECT_GT(report.events, 0u) << label;
        EXPECT_EQ(report.vrp_announced + report.vrp_withdrawn, 0u) << label;
        EXPECT_FALSE(report.memo_kept) << label;
        EXPECT_GT(report.rehashed_pairs, 0u) << label;
        EXPECT_LT(report.rehashed_pairs, report.total_pairs) << label;
      }
      if (i == 0 || i == kResumeAt) {
        EXPECT_EQ(report.rehashed_pairs, report.total_pairs) << label;
      } else if (i == kRepeated) {
        EXPECT_EQ(report.rehashed_pairs, 0u) << label;
      } else if (report.rehashed_pairs < report.total_pairs) {
        partial = true;
        if (report.rehashed_pairs > 0) ++mixed_rounds;
      }
    }
    EXPECT_TRUE(partial) << name << ": no round kept any fingerprint";
    // Fault views move the routing generation every day.
    if (!faulted_world) {
      EXPECT_GT(kept_memos, 0u) << name << ": no round kept its memo";
    }
  }
  EXPECT_GT(mixed_rounds, 0u) << "no round re-hashed only some pairs";
}

// ---------- Fault-knob zero golden regression ----------
//
// The fault-injection knobs (ScenarioParams::faults) must be RNG-stream
// gated exactly like --slurm-fraction: with every knob at its default 0,
// the published CSVs, the RVCP checkpoint container bytes, and the
// engine config digest are pinned byte-for-byte to the pre-fault build,
// at every thread count. The publish and config constants below were
// captured from the build immediately before the fault layer landed;
// the checkpoint constant was re-captured once, for RVCP version 3,
// whose CURSOR names the archive instead of holding the rounds. Any
// drift means the gating leaked into a default world.

std::uint64_t digest_string(std::uint64_t h, const std::string& bytes) {
  return persist::fnv1a64(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()),
      h);
}

std::uint64_t digest_published_dir(const std::filesystem::path& dir) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [name, contents] : read_dir(dir)) {  // sorted by name
    h = digest_string(h, name);
    h = digest_string(h, contents);
  }
  return h;
}

constexpr std::uint64_t kGoldenPublishDigest = 0xc298de19204978e2ull;
constexpr std::uint64_t kGoldenCheckpointDigest = 0xec9bde3698e005dbull;
constexpr std::uint64_t kGoldenConfigDigest = 0xb84dfbbc72591e94ull;

TEST(FaultKnobZeroIncrementalRound, GoldenBytesPinnedAtAllThreadCounts) {
  for (const int threads : {1, 2, 4, 8}) {
    // The checkpoint names the runner's archive by frame count, length
    // and CRC, so the digest covers the archived rounds too.
    TempDir archive;
    incremental::IncrementalConfig config =
        engine_config(threads);
    config.archive_dir = archive.path.string();
    incremental::IncrementalLongitudinalRunner runner(config);
    for (const util::Date date : round_dates(config.params)) {
      runner.run_round(date);
    }

    const auto dir = std::filesystem::temp_directory_path() /
                     ("rovista_knob0_" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(core::publish_scores(runner.store(), dir.string()).has_value());
    const std::uint64_t publish_digest = digest_published_dir(dir);
    std::filesystem::remove_all(dir);

    const std::vector<std::uint8_t> checkpoint =
        persist::encode_checkpoint(runner.checkpoint_state());
    const std::uint64_t checkpoint_digest =
        persist::fnv1a64(std::span<const std::uint8_t>(checkpoint));
    const std::uint64_t config_digest =
        incremental::IncrementalLongitudinalRunner::config_digest(config);

    char actual[128];
    std::snprintf(actual, sizeof actual,
                  "publish=0x%016llx checkpoint=0x%016llx config=0x%016llx",
                  static_cast<unsigned long long>(publish_digest),
                  static_cast<unsigned long long>(checkpoint_digest),
                  static_cast<unsigned long long>(config_digest));
    EXPECT_EQ(publish_digest, kGoldenPublishDigest)
        << threads << " threads: " << actual;
    EXPECT_EQ(checkpoint_digest, kGoldenCheckpointDigest)
        << threads << " threads: " << actual;
    EXPECT_EQ(config_digest, kGoldenConfigDigest)
        << threads << " threads: " << actual;
  }
}

TEST_F(IncrementalRound, RepeatedDateReusesEverything) {
  incremental::IncrementalLongitudinalRunner runner(
      engine_config(2));
  const auto dates = round_dates(runner.config().params);
  const incremental::RoundReport first = runner.run_round(dates[0]);
  EXPECT_EQ(first.dirty_rows, first.total_rows);  // cold cache: all rows

  const incremental::RoundReport again = runner.run_round(dates[0]);
  EXPECT_TRUE(again.discovery_reused);
  EXPECT_FALSE(again.matrix_reset);
  EXPECT_EQ(again.events, 0u);
  EXPECT_EQ(again.vrp_announced + again.vrp_withdrawn, 0u);
  EXPECT_EQ(again.dirty_rows, 0u);
  EXPECT_EQ(again.executed_pairs, 0u);
  EXPECT_EQ(again.reused_pairs, again.total_pairs);
  EXPECT_TRUE(again.relying_party_skipped);
  EXPECT_TRUE(again.epoch_shared);
  EXPECT_TRUE(again.memo_kept);
  expect_bit_identical(first.round, again.round, "repeated date");
}

}  // namespace
