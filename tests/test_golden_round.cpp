// Golden regression test: the standard fixture's per-AS scores are
// snapshotted in tests/data/golden_round_scores.csv. Any change to the
// measurement pipeline that shifts a verdict or score — however subtle —
// fails this diff, so performance work cannot silently change results.
//
// Regenerate intentionally with:
//   ROVISTA_REGEN_GOLDEN=1 ./test_golden_round
// and commit the diff together with an explanation of why verdicts moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/parallel_round.h"
#include "replica_oracle.h"
#include "round_fixture.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"

#ifndef ROVISTA_TEST_DATA_DIR
#error "ROVISTA_TEST_DATA_DIR must be defined by the build"
#endif

namespace {

using namespace rovista;

std::string render_scores(const std::vector<core::AsScore>& scores) {
  std::string out =
      "asn,score,vvp_count,tnodes_consistent,tnodes_outbound,"
      "tnodes_inconsistent\n";
  char line[160];
  for (const core::AsScore& s : scores) {
    // %.17g round-trips doubles exactly: the diff is bit-level.
    std::snprintf(line, sizeof(line), "%u,%.17g,%d,%d,%d,%d\n", s.asn,
                  s.score, s.vvp_count, s.tnodes_consistent,
                  s.tnodes_outbound, s.tnodes_inconsistent);
    out += line;
  }
  return out;
}

// The reference axis: the serial round on worlds built from scratch
// (tests/replica_oracle.h) with fresh-world discovery inputs.
TEST(GoldenRound, ScoresMatchCheckedInGolden) {
  const scenario::ScenarioParams params = testfx::round_params();
  const util::Date date = testfx::round_date(params);
  const core::RovistaConfig config = testfx::round_config();
  const testfx::RoundInputs inputs =
      testfx::acquire_round_inputs(params, date, config);
  ASSERT_FALSE(inputs.vvps.empty());
  ASSERT_FALSE(inputs.tnodes.empty());

  core::ParallelRoundConfig round_config;
  round_config.experiment = config.experiment;
  round_config.scoring = config.scoring;
  round_config.num_threads = 0;  // serial reference engine
  const core::ParallelRoundRunner runner(
      test::make_replica_factory(params, date), round_config);
  const core::MeasurementRound round =
      runner.run(inputs.vvps, inputs.tnodes);
  ASSERT_FALSE(round.scores.empty());
  const std::string got = render_scores(round.scores);

  const std::string path =
      std::string(ROVISTA_TEST_DATA_DIR) + "/golden_round_scores.csv";
  if (std::getenv("ROVISTA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with ROVISTA_REGEN_GOLDEN=1 to create it";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got)
      << "measurement verdicts changed; if intentional, regenerate with "
         "ROVISTA_REGEN_GOLDEN=1 and explain the change in the commit";
}

// The production axis, the path `measure` runs: one published epoch,
// discovery on a reader of it, the round on further readers of it — at
// every thread count, the golden bytes the reference axis produces.
TEST(GoldenRound, SnapshotEngineMatchesSameGolden) {
  const scenario::ScenarioParams params = testfx::round_params();
  const core::RovistaConfig config = testfx::round_config();
  snapshot::EpochPublisher publisher(params);
  publisher.advance_to(testfx::round_date(params));
  const snapshot::EpochRef epoch = publisher.publish();
  const testfx::RoundInputs inputs =
      snapshot::acquire_inputs_on_epoch(publisher.world(), epoch, config);
  const std::string path =
      std::string(ROVISTA_TEST_DATA_DIR) + "/golden_round_scores.csv";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();

  for (const int threads : {0, 1, 2, 4, 8}) {
    core::ParallelRoundConfig round_config;
    round_config.experiment = config.experiment;
    round_config.scoring = config.scoring;
    round_config.num_threads = threads;
    const core::ParallelRoundRunner runner(snapshot::make_reader_factory(epoch),
                                           round_config);
    const core::MeasurementRound round =
        runner.run(inputs.vvps, inputs.tnodes);
    EXPECT_EQ(want.str(), render_scores(round.scores))
        << threads << " threads: the production round diverged from the "
        << "golden scores the reference axis produces";
  }
}

}  // namespace
