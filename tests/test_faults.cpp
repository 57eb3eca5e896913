// Tests for the RPKI supply-chain fault-injection layer (src/faults):
// schedule determinism and knob-0 gating, the divergent relying-party
// implementation, graceful degradation through real RTR sessions
// (stale data, expiry → no validation, corrupt-PDU teardown and
// recovery), stepped-vs-jumped world convergence, and the incremental
// engine's bit-identity contract under nonzero fault rates — including
// checkpoint/resume out of the middle of a failure window.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/rvla_io.h"
#include "core/publish.h"
#include "faults/fault_chain.h"
#include "faults/fault_schedule.h"
#include "incremental/longitudinal_engine.h"
#include "persist/checkpoint.h"
#include "rpki/relying_party.h"
#include "round_fixture.h"
#include "scenario/scenario.h"
#include "series_oracle.h"
#include "util/rng.h"

namespace {

using namespace rovista;
using faults::FaultChain;
using faults::FaultParams;
using faults::FaultSchedule;
using faults::OutageWindow;
using util::Date;

// High enough that failure windows, divergence, and corrupt teardowns
// all occur within the series; low enough that measurement rounds stay
// non-trivial (acquisition needs working reference ASes).
FaultParams test_rates() {
  FaultParams p;
  p.rp_failure_rate = 0.15;
  p.rp_divergence_fraction = 0.2;
  p.rtr_drop_rate = 0.15;
  return p;
}

scenario::ScenarioParams faulted_params(std::uint64_t seed = 11) {
  scenario::ScenarioParams params = testfx::round_params(seed);
  params.faults = test_rates();
  return params;
}

std::vector<faults::Asn> sample_ases(std::size_t n = 24) {
  std::vector<faults::Asn> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<faults::Asn>(100 + 3 * i));
  }
  return out;
}

// ---------- FaultSchedule ----------

TEST(FaultSchedule, KnobZeroDrawsNothing) {
  FaultParams zero;
  EXPECT_FALSE(zero.enabled());
  util::Rng rng(7);
  const std::uint64_t before = rng.uniform_u64(0, 1u << 30);
  util::Rng rng2(7);
  const FaultSchedule s = FaultSchedule::build(
      zero, sample_ases(), Date::from_ymd(2022, 1, 1),
      Date::from_ymd(2022, 12, 31), rng2);
  EXPECT_TRUE(s.empty());
  // build() with disabled knobs must not advance the stream at all.
  EXPECT_EQ(rng2.uniform_u64(0, 1u << 30), before);
  // And a disabled world never reports degradation.
  const FaultSchedule::AsState st =
      s.query(sample_ases()[0], Date::from_ymd(2022, 6, 1));
  EXPECT_FALSE(st.tracked);
  EXPECT_FALSE(st.outage);
}

TEST(FaultSchedule, DeterministicInSeedAndParams) {
  const Date start = Date::from_ymd(2022, 1, 1);
  const Date end = Date::from_ymd(2022, 12, 31);
  util::Rng a(11), b(11), c(12);
  const FaultSchedule s1 =
      FaultSchedule::build(test_rates(), sample_ases(), start, end, a);
  const FaultSchedule s2 =
      FaultSchedule::build(test_rates(), sample_ases(), start, end, b);
  const FaultSchedule s3 =
      FaultSchedule::build(test_rates(), sample_ases(), start, end, c);
  EXPECT_EQ(s1.digest(), s2.digest());
  EXPECT_NE(s1.digest(), s3.digest());
  for (const faults::Asn asn : s1.ases()) {
    EXPECT_EQ(s1.instance_of(asn), s2.instance_of(asn));
  }
  // The digest also covers the params themselves.
  FaultParams other = test_rates();
  other.rtr_drop_rate = 0.2;
  util::Rng d(11);
  const FaultSchedule s4 =
      FaultSchedule::build(other, sample_ases(), start, end, d);
  EXPECT_NE(s1.digest(), s4.digest());
}

TEST(FaultSchedule, WindowsFreezeTheDayBeforeTheyBegin) {
  const Date start = Date::from_ymd(2022, 1, 1);
  const Date end = Date::from_ymd(2022, 12, 31);
  util::Rng rng(11);
  const FaultSchedule s =
      FaultSchedule::build(test_rates(), sample_ases(), start, end, rng);
  ASSERT_FALSE(s.empty());
  std::size_t windows = 0;
  const std::uint32_t instances =
      static_cast<std::uint32_t>(s.params().rp_instance_count);
  for (std::uint32_t i = 0; i < instances; ++i) {
    for (const OutageWindow& w : s.instance_windows(i)) {
      ++windows;
      EXPECT_EQ(w.freeze, w.begin - 1);
      EXPECT_LT(w.begin, w.end);
      EXPECT_LE(w.end, end + 1);
      EXPECT_FALSE(w.corrupt);  // RP crashes are never corrupt-PDU events
    }
  }
  EXPECT_GT(windows, 0u) << "rates this high must produce some outage";
}

TEST(FaultSchedule, QueryReflectsInstanceWindowsAndExpiry) {
  const Date start = Date::from_ymd(2022, 1, 1);
  const Date end = Date::from_ymd(2022, 12, 31);
  util::Rng rng(11);
  FaultParams params = test_rates();
  params.rtr_drop_rate = 0.0;  // isolate the instance-crash channel
  const FaultSchedule s =
      FaultSchedule::build(params, sample_ases(), start, end, rng);
  ASSERT_FALSE(s.empty());
  std::size_t outage_days = 0, expired_days = 0;
  for (const faults::Asn asn : s.ases()) {
    const auto& windows = s.instance_windows(s.instance_of(asn));
    for (Date d = start; d <= end; d = d + 11) {
      const FaultSchedule::AsState st = s.query(asn, d);
      ASSERT_TRUE(st.tracked);
      const OutageWindow* in = nullptr;
      for (const OutageWindow& w : windows) {
        if (w.begin <= d && d < w.end) in = &w;
      }
      EXPECT_EQ(st.outage, in != nullptr) << asn << " @ " << d.to_string();
      if (in != nullptr) {
        ++outage_days;
        EXPECT_EQ(st.freeze, in->freeze);
        EXPECT_EQ(st.expired, d - in->freeze > params.rtr_expire_days);
        if (st.expired) ++expired_days;
      }
    }
  }
  EXPECT_GT(outage_days, 0u);
  EXPECT_GT(expired_days, 0u)
      << "15-day windows with a 7-day expire interval must expire some";
}

// ---------- FaultChain against a real scenario ----------

TEST(FaultChainScenario, KnobZeroBuildsNoChain) {
  scenario::Scenario world(testfx::round_params());
  EXPECT_EQ(world.fault_chain(), nullptr);
  EXPECT_FALSE(world.degradation().degraded());
  EXPECT_EQ(world.routing().effective_view_count(), 0u);
}

TEST(FaultChainScenario, DivergentRunRemovesExactlyTheDivergentRirVrps) {
  scenario::Scenario world(faulted_params());
  world.advance_to(world.start() + 150);
  ASSERT_NE(world.fault_chain(), nullptr);
  const FaultChain& chain = *world.fault_chain();

  const rpki::VrpSet& base = world.current_vrps();
  const rpki::VrpSet diverged =
      chain.divergent_run(base, world.repositories());

  // Everything the divergent repository asserts is gone...
  const rpki::Repository& repo =
      world.repositories().repository(chain.schedule().divergent_rir());
  std::size_t asserted_here = 0;
  std::vector<rpki::Vrp> base_vrps;
  base.for_each([&](const rpki::Vrp& v) { base_vrps.push_back(v); });
  for (const rpki::Roa& roa : repo.roas()) {
    for (const rpki::RoaPrefix& rp : roa.prefixes) {
      const rpki::Vrp v{rp.prefix, rp.effective_max_length(), roa.asn};
      diverged.for_each([&](const rpki::Vrp& d) { EXPECT_FALSE(d == v); });
      asserted_here += static_cast<std::size_t>(
          std::count(base_vrps.begin(), base_vrps.end(), v));
    }
  }
  ASSERT_GT(asserted_here, 0u) << "vacuous: divergent RIR asserted nothing";

  // ...and nothing else is: every surviving VRP is still in the base,
  // and the count difference is exactly what the repository asserted.
  EXPECT_EQ(diverged.size(), base.size() - asserted_here);
  diverged.for_each([&](const rpki::Vrp& d) {
    EXPECT_NE(std::find(base_vrps.begin(), base_vrps.end(), d),
              base_vrps.end());
  });
}

// Scan the schedule for an AS in a given degradation condition on some
// date ≥ `from`; reports the first hit in date order (deterministic).
template <typename Pred>
bool find_degraded(const FaultSchedule& s, Date from, Date to, Pred pred,
                   faults::Asn* asn_out, Date* date_out) {
  for (Date d = from; d <= to; d = d + 1) {
    for (const faults::Asn asn : s.ases()) {
      if (pred(s.query(asn, d))) {
        *asn_out = asn;
        *date_out = d;
        return true;
      }
    }
  }
  return false;
}

TEST(FaultChainScenario, ExpiredAsFallsBackToNoValidation) {
  scenario::Scenario world(faulted_params());
  ASSERT_NE(world.fault_chain(), nullptr);
  const FaultSchedule& schedule = world.fault_chain()->schedule();

  faults::Asn asn = 0;
  Date date = world.start();
  ASSERT_TRUE(find_degraded(
      schedule, world.start() + 30, world.end(),
      [](const FaultSchedule::AsState& st) { return st.outage && st.expired; },
      &asn, &date));
  world.advance_to(date);
  EXPECT_GT(world.degradation().expired_ases, 0u);

  // An expired AS validates *nothing*: routes the fresh base calls
  // Invalid pass through as Unknown (RFC 8210 §6 — past the expire
  // interval the data may not be used, so ROV is effectively off).
  std::size_t base_invalid = 0;
  world.current_vrps().for_each([&](const rpki::Vrp& v) {
    const topology::Asn hijacker = v.asn + 1;
    if (world.current_vrps().validate(v.prefix, hijacker) !=
        rpki::RouteValidity::kInvalid) {
      return;
    }
    ++base_invalid;
    EXPECT_EQ(world.routing().validity_for(asn, v.prefix, hijacker),
              rpki::RouteValidity::kUnknown)
        << "AS" << asn << " should run no validation on "
        << date.to_string();
  });
  EXPECT_GT(base_invalid, 0u) << "vacuous: no invalidatable route found";
}

TEST(FaultChainScenario, StaleAsActsOnItsFreezeDateRun) {
  scenario::Scenario world(faulted_params());
  ASSERT_NE(world.fault_chain(), nullptr);
  const FaultSchedule& schedule = world.fault_chain()->schedule();

  // A frozen-but-unexpired, non-divergent AS must validate exactly like
  // the relying-party run of its freeze date.
  faults::Asn asn = 0;
  Date date = world.start();
  ASSERT_TRUE(find_degraded(
      schedule, world.start() + 30, world.end(),
      [](const FaultSchedule::AsState& st) {
        return st.outage && !st.expired && !st.diverged;
      },
      &asn, &date));
  world.advance_to(date);
  EXPECT_GT(world.degradation().stale_ases, 0u);

  const FaultSchedule::AsState st = schedule.query(asn, date);
  const rpki::VrpSet frozen =
      rpki::run_relying_party(world.repositories(), st.freeze).vrps;
  std::size_t checked = 0;
  world.current_vrps().for_each([&](const rpki::Vrp& v) {
    for (const topology::Asn origin : {v.asn, v.asn + 1}) {
      EXPECT_EQ(world.routing().validity_for(asn, v.prefix, origin),
                frozen.validate(v.prefix, origin))
          << "AS" << asn << " on " << date.to_string() << " (freeze "
          << st.freeze.to_string() << ")";
      ++checked;
    }
  });
  EXPECT_GT(checked, 0u);
}

TEST(FaultChainScenario, CorruptTeardownRaisesErrorReportsAndRecovers) {
  scenario::Scenario world(faulted_params());
  ASSERT_NE(world.fault_chain(), nullptr);
  const FaultSchedule& schedule = world.fault_chain()->schedule();

  faults::Asn asn = 0;
  Date date = world.start();
  ASSERT_TRUE(find_degraded(
      schedule, world.start() + 30, world.end(),
      [](const FaultSchedule::AsState& st) {
        return st.outage && st.corrupt && !st.expired && !st.diverged;
      },
      &asn, &date));
  world.advance_to(date);
  // The poisoned handshake answered the cache with an Error Report...
  EXPECT_GT(world.degradation().error_reports, 0u);

  // ...and the Reset Query retry recovered the exact frozen view — the
  // corrupt-PDU path must not lose or mangle data, only delay it.
  const FaultSchedule::AsState st = schedule.query(asn, date);
  const rpki::VrpSet frozen =
      rpki::run_relying_party(world.repositories(), st.freeze).vrps;
  std::size_t checked = 0;
  world.current_vrps().for_each([&](const rpki::Vrp& v) {
    EXPECT_EQ(world.routing().validity_for(asn, v.prefix, v.asn + 1),
              frozen.validate(v.prefix, v.asn + 1));
    ++checked;
  });
  EXPECT_GT(checked, 0u);
}

TEST(FaultChainScenario, SteppedAndJumpedWorldsConverge) {
  // The schedule is a pure function of (params, AS set, window, seed)
  // and compute() a pure function of (repos, date, fresh): a tracking
  // world stepped day-by-day and a world jumped straight to D must
  // agree on every AS's effective validation — the property that lets
  // the engine's stepped tracking world stand in for a world built
  // fresh at each round date.
  const scenario::ScenarioParams params = faulted_params();
  const Date target = params.start + 150;

  scenario::Scenario stepped(params);
  for (Date d = params.start + 7; d <= target; d = d + 7) {
    stepped.advance_to(d);
  }
  stepped.advance_to(target);

  scenario::Scenario jumped(params);
  jumped.advance_to(target);

  ASSERT_NE(stepped.fault_chain(), nullptr);
  ASSERT_NE(jumped.fault_chain(), nullptr);
  EXPECT_EQ(stepped.fault_chain()->schedule().digest(),
            jumped.fault_chain()->schedule().digest());
  EXPECT_EQ(stepped.routing().effective_binding_count(),
            jumped.routing().effective_binding_count());

  std::vector<std::pair<net::Ipv4Prefix, topology::Asn>> probes;
  stepped.current_vrps().for_each([&](const rpki::Vrp& v) {
    probes.emplace_back(v.prefix, v.asn);
    probes.emplace_back(v.prefix, v.asn + 1);
  });
  ASSERT_FALSE(probes.empty());
  for (const faults::Asn asn : stepped.fault_chain()->schedule().ases()) {
    for (const auto& [prefix, origin] : probes) {
      ASSERT_EQ(stepped.routing().validity_for(asn, prefix, origin),
                jumped.routing().validity_for(asn, prefix, origin))
          << "AS" << asn << " diverged between stepped and jumped worlds";
    }
  }
}

// ---------- incremental engine under nonzero fault rates ----------
//
// Same contract as the SLURM suite in test_incremental_round.cpp, under
// a strictly harder world: per-AS effective views that change with every
// round as failure windows open and close. The reference is the series
// oracle's from-scratch recompute (series_oracle.h), round health
// included.

std::vector<Date> fault_round_dates(const scenario::ScenarioParams& params) {
  return {params.start + 150, params.start + 171, params.start + 215};
}

incremental::IncrementalConfig faulted_engine_config(int num_threads) {
  incremental::IncrementalConfig config;
  config.params = faulted_params();
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
      ("rovista-faults-" + std::to_string(::getpid()) + "-" +
       std::to_string(counter++));
  ~TempDir() { std::filesystem::remove_all(path); }
  static inline int counter = 0;
};

/// The faulted engine config, archiving into `archive` so that a
/// checkpoint of it can be restored.
incremental::IncrementalConfig archived_config(const TempDir& archive,
                                               int num_threads) {
  incremental::IncrementalConfig config = faulted_engine_config(num_threads);
  config.archive_dir = archive.path.string();
  return config;
}

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
/// publishes — degradation.csv included.
void expect_publishes_oracle_bytes(const test::SeriesOracle& oracle,
                                   const core::LongitudinalStore& store,
                                   const std::string& label) {
  TempDir want;
  TempDir got;
  ASSERT_TRUE(oracle.publish(want.path.string()).has_value()) << label;
  ASSERT_TRUE(core::publish_scores(store, got.path.string()).has_value())
      << label;
  const auto want_files = read_dir(want.path);
  // Degraded series publish the per-round health dataset.
  EXPECT_NE(want_files.find("degradation.csv"), want_files.end()) << label;
  EXPECT_EQ(want_files, read_dir(got.path)) << label;
}

class FaultedIncrementalRound : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const incremental::IncrementalConfig config = faulted_engine_config(0);
    oracle_ = new test::SeriesOracle(config.params, config.rovista);
    for (const Date date : fault_round_dates(config.params)) {
      oracle_->run_round(date);
    }
  }

  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
  }

  static void expect_incremental_matches_oracle(int num_threads) {
    incremental::IncrementalLongitudinalRunner runner(
        faulted_engine_config(num_threads));
    const auto dates = fault_round_dates(runner.config().params);
    for (std::size_t i = 0; i < dates.size(); ++i) {
      const incremental::RoundReport report = runner.run_round(dates[i]);
      const std::string label = "faulted " + dates[i].to_string() + " @ " +
                                std::to_string(num_threads) + " threads";
      expect_bit_identical(oracle_->rounds()[i].round, report.round,
                           label.c_str());
      EXPECT_EQ(oracle_->rounds()[i].health, report.health) << label;
    }
  }

  static test::SeriesOracle* oracle_;
};

test::SeriesOracle* FaultedIncrementalRound::oracle_ = nullptr;

TEST_F(FaultedIncrementalRound, FixtureIsActuallyDegraded) {
  // The comparison would be vacuous if no round ran under degradation.
  bool any_degraded = false;
  for (const test::OracleRound& r : oracle_->rounds()) {
    EXPECT_GT(r.vvp_count * r.tnode_count, 0u);
    if (r.health.degraded()) any_degraded = true;
  }
  EXPECT_TRUE(any_degraded);
}

TEST_F(FaultedIncrementalRound, SerialMatchesFullRecompute) {
  expect_incremental_matches_oracle(1);
}

TEST_F(FaultedIncrementalRound, TwoThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(2);
}

TEST_F(FaultedIncrementalRound, FourThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(4);
}

TEST_F(FaultedIncrementalRound, EightThreadsMatchFullRecompute) {
  expect_incremental_matches_oracle(8);
}

TEST_F(FaultedIncrementalRound, PublishedDatasetsAreByteIdentical) {
  incremental::IncrementalLongitudinalRunner runner(faulted_engine_config(4));
  for (const Date date : fault_round_dates(runner.config().params)) {
    runner.run_round(date);
  }
  expect_publishes_oracle_bytes(*oracle_, runner.store(), "faulted");
}

// `longitudinal --seed 11 --rounds 6 --interval-days 20 --scale small
// --rp-failure-rate 0.3 --rp-divergence-fraction 0.25 --rtr-drop-rate
// 0.3`: six rounds under heavier faults than the suite's fixture, every
// round's observations and health, and the published dataset with its
// degradation.csv, held to the oracle.
TEST_F(FaultedIncrementalRound, SixRoundSeriesMatchesOracle) {
  incremental::IncrementalConfig config = faulted_engine_config(0);
  config.params.faults = FaultParams{};
  config.params.faults.rp_failure_rate = 0.3;
  config.params.faults.rp_divergence_fraction = 0.25;
  config.params.faults.rtr_drop_rate = 0.3;
  test::SeriesOracle oracle(config.params, config.rovista);
  incremental::IncrementalLongitudinalRunner runner(config);
  for (int i = 0; i < 6; ++i) {
    const Date date = config.params.start + 20 * i;
    const incremental::RoundReport report = runner.run_round(date);
    const test::OracleRound& want = oracle.run_round(date);
    const std::string label = "faulted 6 x 20 days " + date.to_string();
    expect_bit_identical(want.round, report.round, label.c_str());
    EXPECT_EQ(want.health, report.health) << label;
  }
  expect_publishes_oracle_bytes(oracle, runner.store(), "faulted 6 x 20 days");
}

TEST_F(FaultedIncrementalRound, CheckpointResumeMidFailureWindow) {
  // Kill after two rounds — the second sits inside active failure
  // windows — and resume in a new runner at a different thread count:
  // the final round and the whole published series must match the
  // oracle byte for byte.
  TempDir archive;
  incremental::IncrementalLongitudinalRunner partial(
      archived_config(archive, /*num_threads=*/2));
  const auto dates = fault_round_dates(partial.config().params);
  partial.run_round(dates[0]);
  const incremental::RoundReport second = partial.run_round(dates[1]);
  // Divergence alone is permanent; demand an *active* failure window
  // (stale or expired ASes) so the checkpoint really lands mid-outage.
  ASSERT_GT(second.health.stale_ases + second.health.expired_ases, 0u)
      << "fixture must checkpoint mid-failure-window for this test to bite";
  const persist::CheckpointState state = partial.checkpoint_state();
  EXPECT_TRUE(state.faulted);

  incremental::IncrementalLongitudinalRunner resumed(
      archived_config(archive, /*num_threads=*/4));
  ASSERT_TRUE(resumed.restore(state));
  EXPECT_EQ(resumed.completed_rounds(), 2u);
  const incremental::RoundReport last = resumed.run_round(dates[2]);
  expect_bit_identical(oracle_->rounds()[2].round, last.round,
                       "faulted resume");
  EXPECT_EQ(oracle_->rounds()[2].health, last.health);
  expect_publishes_oracle_bytes(*oracle_, resumed.store(), "faulted resume");
}

TEST_F(FaultedIncrementalRound, CheckpointRoundTripsThroughWireFormat) {
  TempDir archive;
  incremental::IncrementalLongitudinalRunner partial(
      archived_config(archive, /*num_threads=*/2));
  const auto dates = fault_round_dates(partial.config().params);
  const incremental::RoundReport first = partial.run_round(dates[0]);
  const incremental::RoundReport second = partial.run_round(dates[1]);
  const persist::CheckpointState state = partial.checkpoint_state();

  // Faulted state adds the FAULTS section, and the canonical encoding
  // round-trips.
  const std::vector<std::uint8_t> bytes = persist::encode_checkpoint(state);
  const auto inspection = persist::inspect_checkpoint(bytes);
  ASSERT_TRUE(inspection.has_value());
  EXPECT_EQ(inspection->format_version, persist::kFormatVersion);
  ASSERT_EQ(inspection->sections.size(), 6u);
  EXPECT_EQ(inspection->sections.back().id, persist::kSectionFaults);
  std::string error;
  const auto decoded = persist::decode_checkpoint(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_TRUE(decoded->faulted);
  EXPECT_EQ(decoded->fault_digest, state.fault_digest);
  EXPECT_EQ(decoded->archive, state.archive);
  EXPECT_EQ(decoded->archive.frames, 2u);
  EXPECT_EQ(persist::encode_checkpoint(*decoded), bytes);

  // The rounds' health lives in the archive frames the checkpoint names.
  auto cursor = analytics::RvlaCursor::open(archive.path.string(), &error);
  ASSERT_TRUE(cursor.has_value()) << error;
  for (const incremental::RoundReport* report : {&first, &second}) {
    const auto frame = cursor->next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->has_health);
    EXPECT_EQ(frame->health, report->health);
  }
}

TEST_F(FaultedIncrementalRound, RestoreRefusesForeignFaultWorlds) {
  TempDir archive;
  incremental::IncrementalLongitudinalRunner partial(
      archived_config(archive, /*num_threads=*/2));
  const auto dates = fault_round_dates(partial.config().params);
  partial.run_round(dates[0]);
  const persist::CheckpointState state = partial.checkpoint_state();

  // A checkpoint from a different fault world must not resume: the
  // schedule digest is the guard.
  persist::CheckpointState tampered = state;
  tampered.fault_digest ^= 1;
  incremental::IncrementalLongitudinalRunner fresh(
      archived_config(archive, /*num_threads=*/2));
  EXPECT_FALSE(fresh.restore(tampered));

  // Nor may a faulted checkpoint resume into a fault-free engine (or
  // vice versa) — the mode itself is part of the contract.
  persist::CheckpointState unfaulted = state;
  unfaulted.faulted = false;
  unfaulted.fault_digest = 0;
  EXPECT_FALSE(fresh.restore(unfaulted));

  // The untampered state still restores (the runner stayed untouched).
  EXPECT_TRUE(fresh.restore(state));
}

// Regression: per-AS effective views can change with a VRP delta of
// exactly zero — a failure window opening, or stale data crossing the
// expire threshold. The engine's discovery-reuse fast path used to
// condition only on (events, touched_announced) and silently reused
// vVP/tNode lists acquired on a world whose reference-AS ROV behaviour
// had flipped, diverging from the oracle. A dense date walk must
// stay bit-identical round for round, and the views-digest guard must
// actually fire: at least one round with no events and no touched
// prefixes still re-acquires discovery.
TEST(FaultedIncrementalViews, ViewFlipWithZeroVrpDeltaForcesReacquisition) {
  const incremental::IncrementalConfig config = faulted_engine_config(2);
  test::SeriesOracle oracle(config.params, config.rovista);
  incremental::IncrementalLongitudinalRunner incr(config);

  const Date start = config.params.start;
  bool digest_guard_fired = false;
  for (int offset = 100; offset <= 200; offset += 5) {
    const Date date = start + offset;
    const test::OracleRound& a = oracle.run_round(date);
    const incremental::RoundReport b = incr.run_round(date);
    const std::string label = "faulted dense walk " + date.to_string();
    expect_bit_identical(a.round, b.round, label.c_str());
    EXPECT_EQ(a.health, b.health) << label;
    // Skip the cold first round: it re-acquires regardless of the guard.
    if (offset > 100 && b.events == 0 && b.touched_announced == 0 &&
        !b.discovery_reused) {
      digest_guard_fired = true;
    }
  }
  EXPECT_TRUE(digest_guard_fired)
      << "no round exercised the effective-views digest guard — the "
         "fixture no longer reproduces a view flip with zero VRP delta";
}

// ---------- fault soak ----------
//
// High fault rates, fine-grained windows, a couple hundred consecutive
// days of the full distribution chain (relying-party runs, RTR sessions
// with corrupt-PDU teardowns, per-AS view installs). Drives every
// degradation path hot under the sanitizers in scripts/tier1.sh.

TEST(FaultSoak, TwoHundredDaysOfHeavyDegradation) {
  scenario::ScenarioParams params = testfx::round_params(23);
  params.faults.rp_failure_rate = 0.5;
  params.faults.rp_divergence_fraction = 0.4;
  params.faults.rtr_drop_rate = 0.6;
  params.faults.rtr_corrupt_fraction = 0.7;
  params.faults.fault_window_days = 5;
  params.faults.rtr_expire_days = 3;

  scenario::Scenario world(params);
  ASSERT_NE(world.fault_chain(), nullptr);
  const std::vector<faults::Asn>& tracked =
      world.fault_chain()->schedule().ases();
  ASSERT_FALSE(tracked.empty());

  std::uint64_t degraded_days = 0, error_reports = 0, expired_seen = 0;
  for (int day = 1; day <= 200; ++day) {
    const Date date = params.start + day;
    world.advance_to(date);
    const faults::DegradationStats& stats = world.degradation();
    if (stats.degraded()) ++degraded_days;
    error_reports += stats.error_reports;
    expired_seen += stats.expired_ases;

    // Invariants that must hold on every single day.
    ASSERT_LE(stats.stale_ases + stats.expired_ases, tracked.size());
    ASSERT_LE(stats.diverged_ases, tracked.size());
    ASSERT_GE(stats.max_staleness_days, 0);
    ASSERT_EQ(world.routing().effective_binding_count() == 0,
              world.routing().effective_view_count() == 0);

    // Exercise the per-AS view lookup path (keeps the route cache and
    // the effective-view machinery honest under churn).
    if (day % 7 == 0) {
      std::size_t probed = 0;
      world.current_vrps().for_each([&](const rpki::Vrp& v) {
        if (probed >= 8) return;
        for (const faults::Asn asn :
             {tracked.front(), tracked[tracked.size() / 2],
              tracked.back()}) {
          (void)world.routing().validity_for(asn, v.prefix, v.asn + 1);
        }
        ++probed;
      });
    }
  }

  // At these rates the soak must actually have soaked.
  EXPECT_GT(degraded_days, 100u);
  EXPECT_GT(error_reports, 0u);
  EXPECT_GT(expired_seen, 0u);
}

}  // namespace
