// Readers-vs-installer stress harness for the epoch-snapshot engine.
//
// N reader threads score measurement rows against a pinned epoch while
// the publisher concurrently applies VRP deltas, policy changes and
// fault-view flips to its private build world and publishes fresh
// epochs (>= 3 per scenario, across several seeds). Run under the TSan
// preset (-DSANITIZE=thread) by scripts/tier1.sh: any shared mutable
// state between a reader and the installer is a reported race, not a
// flaky diff. On top of the race check the harness asserts the
// semantic contract: every reader sees bit-identical scores to a
// serial reference taken before the installer started, the pinned
// epoch's digest never moves, and after release the epoch chain
// collapses back to exactly one live epoch.
//
// The FaultWindowFlip case covers the nastiest publish: a fault window
// opening with a VRP delta of exactly zero — per-AS effective views
// change while the relying-party output bytes do not — which is
// invisible to any delta-based invalidation and must still be fully
// contained in the next epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "round_fixture.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"

namespace {

using namespace rovista;

std::vector<rpki::Vrp> flatten(const rpki::VrpSet& set) {
  std::vector<rpki::Vrp> vrps;
  vrps.reserve(set.size());
  set.for_each([&](const rpki::Vrp& v) { vrps.push_back(v); });
  std::sort(vrps.begin(), vrps.end());
  return vrps;
}

// One reader turn: stamp out a private world from the pinned epoch and
// score the (small) row slice serially.
core::MeasurementRound score_slice(const snapshot::EpochRef& epoch,
                                   const std::vector<scan::Vvp>& vvps,
                                   const std::vector<scan::Tnode>& tnodes,
                                   const core::RovistaConfig& config) {
  const std::unique_ptr<snapshot::EpochReader> reader =
      snapshot::make_reader(epoch);
  core::Rovista rovista(reader->plane(), reader->client_a(),
                        reader->client_b(), config);
  return rovista.run_round(vvps, tnodes);
}

void expect_same_round(const core::MeasurementRound& want,
                       const core::MeasurementRound& got) {
  ASSERT_EQ(want.observations.size(), got.observations.size());
  for (std::size_t i = 0; i < want.observations.size(); ++i) {
    EXPECT_EQ(want.observations[i].verdict, got.observations[i].verdict)
        << "observation " << i;
  }
  ASSERT_EQ(want.scores.size(), got.scores.size());
  for (std::size_t i = 0; i < want.scores.size(); ++i) {
    EXPECT_EQ(want.scores[i].asn, got.scores[i].asn);
    EXPECT_EQ(std::memcmp(&want.scores[i].score, &got.scores[i].score,
                          sizeof(double)),
              0)
        << "AS" << want.scores[i].asn;
  }
}

// Core harness: readers pinned to the first epoch keep scoring while
// the main thread publishes `publishes` more epochs over an evolving
// build world.
void readers_vs_installer(scenario::ScenarioParams params, int publishes) {
  const core::RovistaConfig config = testfx::round_config();
  const util::Date date = testfx::round_date(params);
  testfx::RoundInputs inputs =
      testfx::acquire_round_inputs(params, date, config);
  ASSERT_GE(inputs.vvps.size(), 2u);
  ASSERT_GE(inputs.tnodes.size(), 2u);
  // A small slice keeps the TSan run affordable; two vVPs × all tNodes
  // still runs the full probe/verdict pipeline per reader iteration.
  inputs.vvps.resize(2);

  snapshot::EpochPublisher pub(params);
  pub.advance_to(date);
  snapshot::EpochRef epoch = pub.publish();

  const core::MeasurementRound reference =
      score_slice(epoch, inputs.vvps, inputs.tnodes, config);
  ASSERT_GT(reference.experiments_run, 0u);

  constexpr int kReaders = 4;
  constexpr int kIterations = 2;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SCOPED_TRACE("reader " + std::to_string(r));
      const std::uint64_t pin_digest = epoch->digest();
      for (int i = 0; i < kIterations; ++i) {
        expect_same_round(
            reference, score_slice(epoch, inputs.vvps, inputs.tnodes, config));
        EXPECT_EQ(epoch->recompute_digest(), pin_digest);
      }
    });
  }

  // The installer, concurrent with every reader above. First a publish
  // with nothing changed: the new epoch shares the frozen state the
  // readers are using. Then evolve the build world and publish. Each of
  // those publishes clones the routing state and shares its route maps
  // with the epoch the readers have pinned — if publication shared
  // anything mutable with readers, TSan flags it here.
  pub.publish();
  EXPECT_TRUE(pub.last_publish_shared());
  for (int p = 1; p <= publishes; ++p) {
    pub.advance_to(date + 20 * p);
    snapshot::EpochRef fresh = pub.publish();
    EXPECT_EQ(fresh->sequence(), static_cast<std::uint64_t>(p) + 2);
  }

  for (std::thread& t : readers) t.join();
  EXPECT_EQ(pub.published_epochs(), static_cast<std::uint64_t>(publishes) + 2);

  // Reclamation: dropping the last pin collapses the chain to just the
  // current epoch.
  epoch.reset();
  EXPECT_EQ(pub.live_epochs(), 1);
}

TEST(SnapshotStress, ReadersVsInstallerMultiSeed) {
  for (const std::uint64_t seed : {11ull, 17ull, 23ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    readers_vs_installer(testfx::round_params(seed), /*publishes=*/3);
  }
}

TEST(SnapshotStress, ReadersVsInstallerUnderFaultInjection) {
  // Knobs high enough that fault windows open and close inside the
  // publish span, low enough that tNode discovery still finds anchors
  // (at 0.3 the degraded relying-party views starve acquisition).
  scenario::ScenarioParams params = testfx::round_params(11);
  params.faults.rp_failure_rate = 0.15;
  params.faults.rp_divergence_fraction = 0.15;
  params.faults.rtr_drop_rate = 0.15;
  readers_vs_installer(std::move(params), /*publishes=*/3);
}

TEST(SnapshotStress, FaultWindowFlipWithZeroVrpDelta) {
  // Same moderated knobs as above: strong enough that windows open
  // somewhere in the scouted 150 days, weak enough that the world at
  // the flip still yields runnable measurement rows.
  scenario::ScenarioParams params = testfx::round_params(11);
  params.faults.rp_failure_rate = 0.15;
  params.faults.rp_divergence_fraction = 0.15;
  params.faults.rtr_drop_rate = 0.15;

  // Scout pass: walk the calendar day by day until a day where the
  // relying-party output is byte-identical to the previous day's but
  // the per-AS effective views flipped (a failure window opening or
  // stale data crossing the expiry threshold).
  util::Date flip_day;
  bool found = false;
  {
    scenario::Scenario scout(params);
    util::Date d = scout.start() + 30;
    scout.advance_to(d);
    std::vector<rpki::Vrp> prev_vrps = flatten(scout.current_vrps());
    std::uint64_t prev_views = scout.effective_views_digest();
    for (int i = 1; i <= 150 && !found; ++i) {
      scout.advance_to(d + i);
      const std::vector<rpki::Vrp> vrps = flatten(scout.current_vrps());
      const std::uint64_t views = scout.effective_views_digest();
      if (vrps == prev_vrps && views != prev_views) {
        flip_day = d + i;
        found = true;
      }
      prev_vrps = std::move(vrps);
      prev_views = views;
    }
  }
  ASSERT_TRUE(found) << "no zero-VRP-delta fault-view flip in the scouted "
                        "window; adjust fault knobs or seed";

  // Real pass: pin the epoch published the day before the flip, then —
  // with readers scoring against it — publish across the flip itself
  // plus two more days. The flip epoch must differ from the pinned one
  // (the views changed) even though the VRP bytes did not.
  const core::RovistaConfig config = testfx::round_config();
  snapshot::EpochPublisher pub(params);
  pub.advance_to(flip_day - 1);
  snapshot::EpochRef before = pub.publish();
  const std::vector<rpki::Vrp> vrps_before =
      flatten(pub.world().current_vrps());
  const std::uint64_t views_before = pub.world().effective_views_digest();

  testfx::RoundInputs inputs =
      testfx::acquire_round_inputs(params, flip_day - 1, config);
  ASSERT_GE(inputs.vvps.size(), 2u);
  inputs.vvps.resize(2);
  const core::MeasurementRound reference =
      score_slice(before, inputs.vvps, inputs.tnodes, config);
  ASSERT_GT(reference.experiments_run, 0u);

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      const std::uint64_t pin_digest = before->digest();
      expect_same_round(
          reference, score_slice(before, inputs.vvps, inputs.tnodes, config));
      EXPECT_EQ(before->recompute_digest(), pin_digest);
    });
  }

  pub.advance_to(flip_day);
  snapshot::EpochRef at_flip = pub.publish();
  EXPECT_EQ(flatten(pub.world().current_vrps()), vrps_before)
      << "scouted flip day unexpectedly carried a VRP delta";
  EXPECT_NE(pub.world().effective_views_digest(), views_before);
  EXPECT_NE(at_flip->digest(), before->digest())
      << "zero-delta view flip did not reach the published epoch";
  pub.advance_to(flip_day + 1);
  pub.publish();
  pub.advance_to(flip_day + 2);
  pub.publish();

  for (std::thread& t : readers) t.join();
  EXPECT_EQ(before->recompute_digest(), before->digest());
  before.reset();
  at_flip.reset();
  EXPECT_EQ(pub.live_epochs(), 1);
}

}  // namespace
