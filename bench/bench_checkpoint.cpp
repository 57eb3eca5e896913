// bench_checkpoint — what crash-safety costs and what resume saves.
//
// Runs a 4-round fixture-scale longitudinal series, measuring per round
// the measurement work itself (which includes the round's durable RVLA
// append), the checkpoint state capture + RVCP encode, and the durable
// write (encode + in-place slot commit with fdatasync on the held
// CheckpointWriter), plus the RVCP size, which stays flat: the
// checkpoint names an archive prefix instead of holding the rounds.
// Then simulates a restart after round 3: loads the newest slot of a
// copy of the checkpoint directory through the slot-aware loader,
// restores a fresh runner over a copy of the archive as it stood then
// (frame stream + world replay + store rebuild), and compares that
// against the cold alternative of re-running the first three rounds
// from scratch.
//
// Gates (exit non-zero):
//   - the written file must load and restore,
//   - the resumed runner's final round must be bit-identical to the
//     uninterrupted runner's,
//   - restore must beat re-running the skipped rounds (it does by
//     orders of magnitude — replay is measurement-free; the gate is a
//     generous 2x so scheduler noise cannot flake CI).
// Results go to BENCH_checkpoint.json.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "incremental/longitudinal_engine.h"
#include "persist/checkpoint.h"
#include "persist/checkpoint_io.h"

namespace {

using namespace rovista;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 4;
constexpr int kIntervalDays = 2;
constexpr int kResumeAfter = 3;

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

incremental::IncrementalConfig engine_config() {
  incremental::IncrementalConfig config;
  config.params = fixture_params();
  config.rovista.scoring.min_vvps_per_as = 2;
  config.rovista.scoring.min_tnodes = 2;
  return config;
}

bool rounds_identical(const core::MeasurementRound& a,
                      const core::MeasurementRound& b) {
  if (a.observations.size() != b.observations.size() ||
      a.scores.size() != b.scores.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    if (a.observations[i].verdict != b.observations[i].verdict ||
        a.observations[i].vvp.value() != b.observations[i].vvp.value() ||
        a.observations[i].tnode.value() != b.observations[i].tnode.value()) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    if (a.scores[i].asn != b.scores[i].asn ||
        std::memcmp(&a.scores[i].score, &b.scores[i].score,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct RoundSample {
  util::Date date;
  double round_s = 0.0;    // measurement work
  double capture_s = 0.0;  // checkpoint_state() + RVCP encode
  double write_s = 0.0;    // durable slot commit (encode + fdatasync)
  std::size_t bytes = 0;
};

}  // namespace

int main() {
  const incremental::IncrementalConfig config = engine_config();
  std::vector<util::Date> dates;
  for (int i = 0; i < kRounds; ++i) {
    dates.push_back(config.params.start + 150 + i * kIntervalDays);
  }

  namespace fs = std::filesystem;
  const std::string ckdir =
      (fs::temp_directory_path() /
       ("rovista-bench-ckpt-" + std::to_string(::getpid())))
          .string();
  fs::remove_all(ckdir);

  // Uninterrupted series, with per-round checkpoint cost accounting.
  incremental::IncrementalConfig archived = config;
  archived.archive_dir = (fs::path(ckdir) / "archive").string();
  incremental::IncrementalLongitudinalRunner uninterrupted(archived);
  auto writer = persist::CheckpointWriter::open(ckdir);
  if (!writer.has_value()) {
    std::fprintf(stderr, "FAIL: cannot open the checkpoint slots\n");
    return 1;
  }
  const std::string frozen_dir = (fs::path(ckdir) / "after3").string();
  std::vector<RoundSample> samples;
  std::vector<incremental::RoundReport> reports;
  double cold_prefix_s = 0.0;  // measurement time of the resumed-over rounds
  for (int i = 0; i < kRounds; ++i) {
    RoundSample s;
    s.date = dates[static_cast<std::size_t>(i)];
    Clock::time_point t = Clock::now();
    reports.push_back(uninterrupted.run_round(s.date));
    s.round_s = seconds_since(t);
    if (i < kResumeAfter) cold_prefix_s += s.round_s;

    t = Clock::now();
    const persist::CheckpointState state = uninterrupted.checkpoint_state();
    const std::vector<std::uint8_t> bytes = persist::encode_checkpoint(state);
    s.capture_s = seconds_since(t);
    s.bytes = bytes.size();

    t = Clock::now();
    if (!writer->write(state)) {
      std::fprintf(stderr, "FAIL: checkpoint write refused\n");
      return 1;
    }
    s.write_s = seconds_since(t);
    samples.push_back(s);

    if (i + 1 == kResumeAfter) {
      // Freeze the after-round-3 slots and archive for the resume
      // measurement: the next round appends a frame and overwrites the
      // older slot, so copy them aside.
      fs::create_directories(frozen_dir);
      for (const std::string& slot :
           persist::CheckpointPaths::in(ckdir).slots()) {
        fs::copy_file(slot, fs::path(frozen_dir) / fs::path(slot).filename(),
                      fs::copy_options::overwrite_existing);
      }
      fs::copy(archived.archive_dir, fs::path(frozen_dir) / "archive",
               fs::copy_options::recursive);
    }
  }

  // Simulated restart: load the after-round-3 checkpoint and restore.
  Clock::time_point t = Clock::now();
  const auto state = persist::load_checkpoint_file(frozen_dir);
  if (!state.has_value() ||
      state->archive.frames != static_cast<std::uint64_t>(kResumeAfter)) {
    std::fprintf(stderr, "FAIL: frozen checkpoint does not load\n");
    return 1;
  }
  incremental::IncrementalConfig resume_config = config;
  resume_config.archive_dir = (fs::path(frozen_dir) / "archive").string();
  incremental::IncrementalLongitudinalRunner resumed(resume_config);
  if (!resumed.restore(*state)) {
    std::fprintf(stderr, "FAIL: restore refused a valid checkpoint\n");
    return 1;
  }
  const double resume_s = seconds_since(t);

  const incremental::RoundReport last =
      resumed.run_round(dates[static_cast<std::size_t>(kRounds - 1)]);
  const bool identical =
      rounds_identical(reports.back().round, last.round);
  fs::remove_all(ckdir);

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: resumed final round diverged from uninterrupted\n");
    return 1;
  }
  if (resume_s * 2.0 >= cold_prefix_s) {
    std::fprintf(stderr,
                 "FAIL: resume (%.3fs) not clearly faster than re-running "
                 "%d rounds (%.3fs)\n",
                 resume_s, kResumeAfter, cold_prefix_s);
    return 1;
  }

  std::FILE* f = std::fopen("BENCH_checkpoint.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_checkpoint.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host\": %s,\n", bench::host_json().c_str());
  std::fprintf(f,
               "  \"scenario\": {\"seed\": %llu, \"rounds\": %d, "
               "\"interval_days\": %d, \"resume_after\": %d},\n",
               static_cast<unsigned long long>(config.params.seed), kRounds,
               kIntervalDays, kResumeAfter);
  std::fprintf(f, "  \"rounds\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const RoundSample& s = samples[i];
    std::fprintf(f,
                 "    {\"date\": \"%s\", \"round_s\": %.6f, "
                 "\"capture_encode_s\": %.6f, \"durable_write_s\": %.6f, "
                 "\"checkpoint_bytes\": %zu, \"overhead_fraction\": %.6f}%s\n",
                 s.date.to_string().c_str(), s.round_s, s.capture_s, s.write_s,
                 s.bytes,
                 s.round_s > 0.0 ? (s.capture_s + s.write_s) / s.round_s : 0.0,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"resume\": {\"load_restore_s\": %.6f, "
               "\"cold_rerun_s\": %.6f, \"speedup\": %.1f, "
               "\"final_round_identical\": true}\n",
               resume_s, cold_prefix_s,
               resume_s > 0.0 ? cold_prefix_s / resume_s : 0.0);
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf(
      "checkpoint bench: %zu-byte checkpoints, capture+encode %.1f ms, "
      "durable write %.1f ms, resume %.3fs vs cold %.3fs (%.0fx)\n",
      samples.back().bytes, samples.back().capture_s * 1e3,
      samples.back().write_s * 1e3, resume_s, cold_prefix_s,
      resume_s > 0.0 ? cold_prefix_s / resume_s : 0.0);
  return 0;
}
