// Traced in-process pipelines: the per-layer half of the benchmark.
//
// Both workloads run one pipeline built only from public library calls,
// with a span around each call into a layer:
//
//   cold round   EpochPublisher build and advance, publish, digest,
//                reader, collector snapshot, tNode and vVP acquisition,
//                run_round_parallel on a reader factory, a full
//                re-convergence of the build world, publish_scores —
//                what `rovista measure` does, on the workload's world
//   series       IncrementalLongitudinalRunner::run_round per day, then
//                ScoreFeed::publish, write_checkpoint() and an RVLA
//                append per round, with an in-process serve::Server up
//                throughout
//   publish      publish_scores over the whole series
//   queries      the streaming RVLA queries and publish_archive
//   quiet serve  2 s of the open-loop driver against the finished feed
//
// serve-publishing also drives load during the series, from the first
// round until 95% of the rounds have published; that is the only
// difference between the two workloads' pipelines besides the thread
// count.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct TracedOptions {
  bool load_while_publishing = false;  // serve-publishing
  std::uint64_t world_seed = 42;
  std::uint64_t load_seed = 1;  // the open-loop driver's request stream
  int rounds = 600;
  int threads = 4;
  std::string work_dir;    // scratch outputs (created)
  std::string trace_path;  // Chrome trace-event JSON
};

struct TracedResult {
  bool ok = false;
  std::string error;  // first failed gate
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

TracedResult run_traced(const TracedOptions& options);

}  // namespace perfbench
