// Determinism harness for the parallel measurement engine.
//
// The contract under test (core/parallel_round.h): a MeasurementRound is
// a pure function of (scenario params, date, vVPs, tNodes, config) —
// independent of thread count, scheduling, and repetition. The serial
// reference is Rovista::run_round executed against one freshly built
// world; the engine under test is the production one, a
// ParallelRoundRunner over EpochReaders of one published epoch.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/parallel_round.h"
#include "round_fixture.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"

namespace {

using namespace rovista;

class ParallelRound : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    params_ = new scenario::ScenarioParams(testfx::round_params());
    date_ = testfx::round_date(*params_);
    config_ = new core::RovistaConfig(testfx::round_config());
    inputs_ = new testfx::RoundInputs(
        testfx::acquire_round_inputs(*params_, date_, *config_));
    {
      // `measure`'s path: discovery probes a reader of the published
      // epoch, and the round measures on further readers of that epoch.
      snapshot::EpochPublisher publisher(*params_);
      publisher.advance_to(date_);
      const snapshot::EpochRef epoch = publisher.publish();
      probed_inputs_ = new testfx::RoundInputs(
          snapshot::acquire_inputs_on_epoch(publisher.world(), epoch,
                                            *config_));
      probed_factory_ =
          new core::ReplicaFactory(snapshot::make_reader_factory(epoch));
    }
    {
      // The same reader factory over an epoch nobody probed, fed the
      // fresh-world discovery inputs.
      snapshot::EpochPublisher publisher(*params_);
      publisher.advance_to(date_);
      unprobed_factory_ = new core::ReplicaFactory(
          snapshot::make_reader_factory(publisher.publish()));
    }

    // Serial reference: the plain nested-loop engine on a world built
    // from scratch at the round date.
    scenario::Scenario world(*params_);
    world.advance_to(date_);
    scan::MeasurementClient client_a(world.plane(), world.client_as_a(),
                                     world.client_addr_a());
    scan::MeasurementClient client_b(world.plane(), world.client_as_b(),
                                     world.client_addr_b());
    core::Rovista rovista(world.plane(), client_a, client_b, *config_);
    serial_ = new core::MeasurementRound(
        rovista.run_round(inputs_->vvps, inputs_->tnodes));
  }

  static void TearDownTestSuite() {
    delete serial_;
    delete unprobed_factory_;
    delete probed_factory_;
    delete probed_inputs_;
    delete inputs_;
    delete config_;
    delete params_;
  }

  static core::MeasurementRound run(int num_threads,
                                    const core::ReplicaFactory& factory,
                                    const testfx::RoundInputs& inputs) {
    core::ParallelRoundConfig config;
    config.experiment = config_->experiment;
    config.scoring = config_->scoring;
    config.num_threads = num_threads;
    const core::ParallelRoundRunner runner(factory, config);
    return runner.run(inputs.vvps, inputs.tnodes);
  }

  static core::MeasurementRound run_with_threads(int num_threads) {
    return run(num_threads, *probed_factory_, *probed_inputs_);
  }

  static core::MeasurementRound run_unprobed(int num_threads) {
    return run(num_threads, *unprobed_factory_, *inputs_);
  }

  static void expect_bit_identical(const core::MeasurementRound& a,
                                   const core::MeasurementRound& b) {
    EXPECT_EQ(a.experiments_run, b.experiments_run);
    EXPECT_EQ(a.inconclusive, b.inconclusive);
    ASSERT_EQ(a.observations.size(), b.observations.size());
    for (std::size_t i = 0; i < a.observations.size(); ++i) {
      const core::PairObservation& x = a.observations[i];
      const core::PairObservation& y = b.observations[i];
      ASSERT_EQ(x.vvp_as, y.vvp_as) << "observation " << i;
      ASSERT_EQ(x.vvp.value(), y.vvp.value()) << "observation " << i;
      ASSERT_EQ(x.tnode.value(), y.tnode.value()) << "observation " << i;
      ASSERT_EQ(x.verdict, y.verdict) << "observation " << i;
    }
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
      const core::AsScore& x = a.scores[i];
      const core::AsScore& y = b.scores[i];
      ASSERT_EQ(x.asn, y.asn);
      // Bit-identical, not approximately-equal: the whole point.
      ASSERT_EQ(std::memcmp(&x.score, &y.score, sizeof(double)), 0)
          << "AS" << x.asn << ": " << x.score << " vs " << y.score;
      ASSERT_EQ(x.vvp_count, y.vvp_count);
      ASSERT_EQ(x.tnodes_consistent, y.tnodes_consistent);
      ASSERT_EQ(x.tnodes_outbound, y.tnodes_outbound);
      ASSERT_EQ(x.tnodes_inconsistent, y.tnodes_inconsistent);
    }
  }

  static scenario::ScenarioParams* params_;
  static util::Date date_;
  static core::RovistaConfig* config_;
  static testfx::RoundInputs* inputs_;
  static testfx::RoundInputs* probed_inputs_;
  static core::ReplicaFactory* probed_factory_;
  static core::ReplicaFactory* unprobed_factory_;
  static core::MeasurementRound* serial_;
};

scenario::ScenarioParams* ParallelRound::params_ = nullptr;
util::Date ParallelRound::date_;
core::RovistaConfig* ParallelRound::config_ = nullptr;
testfx::RoundInputs* ParallelRound::inputs_ = nullptr;
testfx::RoundInputs* ParallelRound::probed_inputs_ = nullptr;
core::ReplicaFactory* ParallelRound::probed_factory_ = nullptr;
core::ReplicaFactory* ParallelRound::unprobed_factory_ = nullptr;
core::MeasurementRound* ParallelRound::serial_ = nullptr;

TEST_F(ParallelRound, FixtureIsNonTrivial) {
  // Guard against a vacuous determinism check: the standard fixture must
  // exercise real sharding (more vVPs than the widest pool below) and
  // produce actual verdicts and scores.
  EXPECT_GE(inputs_->vvps.size(), 9u);
  EXPECT_GE(inputs_->tnodes.size(), 3u);
  EXPECT_GT(serial_->experiments_run, 0u);
  EXPECT_LT(serial_->inconclusive, serial_->experiments_run);
  EXPECT_FALSE(serial_->scores.empty());
}

// Thread counts 0 (`measure` without --threads) and 1 run the shards
// inline; both must publish what N workers do.
TEST_F(ParallelRound, ZeroThreadsMatchSerial) {
  expect_bit_identical(*serial_, run_with_threads(0));
}

TEST_F(ParallelRound, OneThreadMatchesSerial) {
  expect_bit_identical(*serial_, run_with_threads(1));
}

TEST_F(ParallelRound, TwoThreadsMatchSerial) {
  expect_bit_identical(*serial_, run_with_threads(2));
}

TEST_F(ParallelRound, FourThreadsMatchSerial) {
  expect_bit_identical(*serial_, run_with_threads(4));
}

TEST_F(ParallelRound, EightThreadsMatchSerial) {
  expect_bit_identical(*serial_, run_with_threads(8));
}

TEST_F(ParallelRound, RepeatedInvocationsBitIdentical) {
  // Same seed, same config, two fresh runs: scheduling must not leak in.
  expect_bit_identical(run_with_threads(4), run_with_threads(4));
}

// --- unprobed epoch, fresh-world discovery inputs --------------------
//
// The reader factory on its own: no discovery ever touched this epoch.
// A mismatch above but not here points at discovery on an epoch reader
// (probes leaking into the epoch, or inputs that differ from the
// fresh-world reference).

TEST_F(ParallelRound, SnapshotEngineOneThreadMatchesSerial) {
  expect_bit_identical(*serial_, run_unprobed(1));
}

TEST_F(ParallelRound, SnapshotEngineTwoThreadsMatchSerial) {
  expect_bit_identical(*serial_, run_unprobed(2));
}

TEST_F(ParallelRound, SnapshotEngineFourThreadsMatchSerial) {
  expect_bit_identical(*serial_, run_unprobed(4));
}

TEST_F(ParallelRound, SnapshotEngineEightThreadsMatchSerial) {
  expect_bit_identical(*serial_, run_unprobed(8));
}

TEST_F(ParallelRound, SnapshotEngineRepeatedInvocationsBitIdentical) {
  expect_bit_identical(run_unprobed(4), run_unprobed(4));
}

TEST_F(ParallelRound, RovistaParallelEntryPointMatches) {
  // The RovistaConfig::num_threads knob routes through the same engine.
  scenario::Scenario world(*params_);
  world.advance_to(date_);
  scan::MeasurementClient client_a(world.plane(), world.client_as_a(),
                                   world.client_addr_a());
  scan::MeasurementClient client_b(world.plane(), world.client_as_b(),
                                   world.client_addr_b());
  core::RovistaConfig config = *config_;
  config.num_threads = 8;
  core::Rovista rovista(world.plane(), client_a, client_b, config);
  expect_bit_identical(*serial_,
                       rovista.run_round_parallel(
                           *unprobed_factory_, inputs_->vvps, inputs_->tnodes));
}

TEST_F(ParallelRound, CloneFreshPlaneIsIndependentAndPristine) {
  scenario::Scenario world(*params_);
  world.advance_to(date_);
  auto replica = world.plane().clone_fresh(world.routing());

  // Every host exists in the replica, and the replica starts pristine.
  for (const auto addr : world.vvp_candidates()) {
    ASSERT_NE(replica->host(addr), nullptr);
    EXPECT_EQ(replica->as_of(addr), world.plane().as_of(addr));
  }
  EXPECT_EQ(replica->sim().now(), 0u);
  EXPECT_EQ(replica->packets_sent(), 0u);

  // Mutating the original must not touch the replica.
  scan::MeasurementClient client_a(world.plane(), world.client_as_a(),
                                   world.client_addr_a());
  const auto target = world.vvp_candidates().front();
  client_a.probe_at(world.plane().sim().now() + 1000, target, 80, 40001);
  world.plane().sim().run();
  EXPECT_GT(world.plane().packets_sent(), 0u);
  EXPECT_EQ(replica->packets_sent(), 0u);
  EXPECT_EQ(replica->sim().now(), 0u);
  EXPECT_EQ(replica->sim().pending(), 0u);
}

}  // namespace
