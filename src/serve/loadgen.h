// Load generator and client utilities for the RQP query server.
//
// `run_loadgen` simulates a population of concurrent clients hammering
// a `rovista serve` daemon with an **open-loop** arrival process: when
// `rate` is set, request i is *due* at `t0 + i/rate` and is sent on
// schedule whether or not earlier responses have returned (latency is
// measured from the scheduled arrival, so queueing delay counts — the
// honest way to measure a saturated server). With `rate == 0` the
// generator runs closed-loop at maximum throughput with a bounded
// pipeline per connection. Requests are spread over `connections`
// TCP connections driven by `threads` sender threads, all nonblocking.
//
// Every OK SCORE response is recorded as (round date, ASN, exact score
// string). `verify_record_against_published` then byte-compares each
// record against the published CSV dataset — if the server ever served
// a torn read across an epoch swap, some record will disagree with the
// CSV of its own round date.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/rqp.h"

namespace rovista::serve {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connections = 8;
  int threads = 2;
  std::uint64_t requests = 1000;  // total across all threads
  /// Open-loop arrival rate (requests/second); 0 = closed loop.
  double rate = 0.0;
  /// Closed-loop: max outstanding requests per connection.
  int pipeline = 16;
  /// Request mix: fractions of TRAJECTORY and REACH; the rest SCORE.
  double trajectory_fraction = 0.0;
  double reach_fraction = 0.0;
  /// REACH destination (host-order IPv4) and port; 0 probes 0.0.0.0,
  /// so `rovista loadgen` refuses a REACH share without --reach-dst.
  std::uint32_t reach_dst = 0;
  std::uint16_t reach_port = 0;
  /// ASNs to query. Empty = fetch the server's scored set first.
  std::vector<std::uint32_t> asns;
  std::uint64_t seed = 1;
  /// Per-thread inactivity timeout: give up if nothing arrives.
  int timeout_ms = 30000;
  /// Record OK SCORE responses (for verify_record_against_published).
  bool record = false;
};

struct ScoreRecord {
  std::int64_t date_days = 0;
  std::uint32_t asn = 0;
  std::string score_str;
};

struct LoadgenResult {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t no_data = 0;
  std::uint64_t unknown_as = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t transport_errors = 0;  // connect/send/recv/parse failures
  double wall_s = 0.0;
  double qps = 0.0;      // received / wall
  double p50_ms = 0.0;   // latency percentiles (scheduled-arrival based
  double p99_ms = 0.0;   // under open loop, send-based under closed loop)
  double max_ms = 0.0;
  std::uint64_t min_epoch_sequence = 0;  // snapshot sequences observed,
  std::uint64_t max_epoch_sequence = 0;  // proof the burst spanned swaps
  std::vector<ScoreRecord> records;
};

LoadgenResult run_loadgen(const LoadgenOptions& options);

/// One blocking request/response connection — the simple client used by
/// tests, the loadgen bootstrap (ASNS fetch) and `rovista query --live`
/// style tooling. Not thread-safe.
class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  bool connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const noexcept { return fd_ >= 0; }

  /// Send one request and block for its response (responses arrive in
  /// order on a connection). False on transport error or protocol
  /// violation (the connection is closed then).
  bool call(const Request& request, Response& response);

 private:
  int fd_ = -1;
  FrameDecoder decoder_{kMaxResponseFrame};
};

/// Write records as "date,asn,score" CSV (with header).
bool write_record_csv(const std::vector<ScoreRecord>& records,
                      const std::string& path);

/// Byte-compare a loadgen record file against a published score
/// dataset (core::publish_scores layout): every recorded (date, asn)
/// must exist in `scores-<date>.csv` with the exact same score field.
/// Empty record files fail (nothing was proven). On mismatch, `diag`
/// names the first offending record.
bool verify_record_against_published(const std::string& record_path,
                                     const std::string& published_dir,
                                     std::size_t* checked, std::string* diag);

}  // namespace rovista::serve
