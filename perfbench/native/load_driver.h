// Open-loop RQP load driver, built on the public codec (serve/rqp.h).
//
// One thread sends request i at t0 + i / rate over a fixed set of
// connections, whether or not earlier answers have come back, so a
// stalled server faces the backlog independent users would build.
// Latency is timed from each request's scheduled send time, and the
// driver reports how late it sent against that schedule: when that
// lateness grows, the numbers describe the driver, not the server.
//
// The mix is SCORE, TRAJECTORY and REACH over the server's scored ASNs;
// REACH asks for traceroutes to real tNode hosts of the world. Every
// SCORE answer is kept (deduplicated) so the caller can byte-compare it
// against the published dataset: OK answers through `rovista
// feedcheck`, UNKNOWN_AS answers by checking the AS is absent from that
// date's published CSV.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "scenario/scenario.h"

namespace perfbench {

enum OpIndex { kScoreOp = 0, kTrajectoryOp = 1, kReachOp = 2, kOpCount = 3 };

const char* op_name(int op);

struct ReachTarget {
  std::uint32_t address = 0;  // host order
  std::uint16_t port = 0;
};

/// Real tNode hosts: address + 10 inside each exclusively-invalid
/// prefix, TCP port 80.
std::vector<ReachTarget> tnode_hosts(const rovista::scenario::Scenario& world);

// Every load the benchmark drives: 5,000 requests/s over 4 connections,
// 10% TRAJECTORY, 5% REACH and the rest SCORE.
inline constexpr double kRate = 5000.0;
inline constexpr int kConnections = 4;
inline constexpr double kTrajectoryShare = 0.10;
inline constexpr double kReachShare = 0.05;
// After sending stops, answers still due this long count as lost.
inline constexpr double kDrainSeconds = 5.0;

struct LoadOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t seed = 1;
  double max_seconds = 60.0;  // sending stops here at the latest
};

struct LoadResult {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t unexpected = 0;        // an answer with a status we did not expect
  std::uint64_t transport_errors = 0;  // connect/send/recv/parse failures, lost answers
  std::uint64_t score_sent = 0;
  std::uint64_t score_ok = 0;          // SCORE answers with status OK
  double seconds = 0.0;                // length of the sending window
  std::array<std::vector<double>, kOpCount> latency_ms;  // from the schedule
  std::vector<double> late_ms;  // per request: enqueue time minus schedule
  std::uint64_t min_sequence = 0;
  std::uint64_t max_sequence = 0;
  // SCORE answers, deduplicated: OK as (date days, asn, score field),
  // UNKNOWN_AS as (date days, asn asked for).
  std::set<std::tuple<std::int64_t, std::uint32_t, std::string>> scores;
  std::set<std::pair<std::int64_t, std::uint32_t>> unknown;

  std::uint64_t failed() const noexcept {
    return unexpected + transport_errors;
  }
  /// The driver asks only for ASNs the server listed as scored, so at
  /// least half the SCORE answers must be OK; a server that answers
  /// UNKNOWN_AS to everything would otherwise pass every byte check.
  bool enough_scores() const noexcept {
    return score_sent > 0 && 2 * score_ok >= score_sent;
  }
  std::vector<double> all_latencies_ms() const;
};

/// The scored ASN set (RQP ASNS), polling until a round is published or
/// `timeout_s` passes.
std::optional<std::vector<std::uint32_t>> fetch_asns(const std::string& host,
                                                     std::uint16_t port,
                                                     double timeout_s);

/// Run the open loop until `stop` is set or max_seconds pass, then wait
/// up to drain_seconds for the answers still due.
LoadResult run_open_loop(const LoadOptions& options,
                         const std::vector<std::uint32_t>& asns,
                         const std::vector<ReachTarget>& reach,
                         const std::atomic<bool>& stop);

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Write the SCORE answers for `rovista feedcheck` (date,asn,score CSV)
/// and the UNKNOWN_AS answers (date,asn CSV).
bool write_score_records(const LoadResult& result, const std::string& path);
bool write_unknown_records(const LoadResult& result, const std::string& path);

}  // namespace perfbench
