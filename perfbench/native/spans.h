// Span recorder for the traced runs.
//
// A Scope times one call into a layer on the steady clock and records
// it, with the span that was open on the same thread when it began as
// its parent. Records stay in memory until write_chrome_trace() writes
// them as Chrome trace-event JSON (chrome://tracing and Perfetto open
// it). Counts measured at a boundary ride along as span args.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  struct Record {
    std::string name;
    double start_us = 0.0;  // since the log was created
    double dur_us = 0.0;
    int tid = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = top level on its thread
    std::vector<std::pair<std::string, double>> args;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void arg(std::string key, double value) {
      record_.args.emplace_back(std::move(key), value);
    }

   private:
    SpanLog& log_;
    Clock::time_point start_;
    Record record_;
  };

  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Durations (ms) of every span named `name`, in completion order.
  std::vector<double> durations_ms(std::string_view name) const;
  /// Sum of their durations, in seconds.
  double total_s(std::string_view name) const;
  /// Sum of the durations of the top-level spans opened on the thread
  /// that created the log, in seconds.
  double top_level_s() const;

  bool write_chrome_trace(const std::string& path) const;

 private:
  void add(Record record);

  const Clock::time_point t0_ = Clock::now();
  const int owner_tid_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

}  // namespace perfbench
