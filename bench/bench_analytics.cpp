// bench_analytics — what the RVLA archive costs and what streaming buys.
//
// Builds a synthetic multi-year score series (R rounds x A ASes with
// per-round churn), appends it frame by frame through the durable
// RvlaWriter (frame fdatasync on the held data descriptor, then an
// in-place head slot commit), and then answers every query in
// src/analytics/queries.h twice: streaming off the archive, and walking
// an in-memory LongitudinalStore fed the same rounds. Reports archive
// size per frame, append latency, and per-query stream-vs-memory wall
// time.
//
// Gates (exit non-zero):
//   - every streaming answer must be value-identical to the store's
//     (compared through the shared CSV renderers, so equality is the
//     same byte equality tier-1 checks),
//   - the published dataset (publish_archive) must byte-match
//     core::publish_scores.
//
// Results go to BENCH_analytics.json. --smoke shrinks the series for
// the tier-1 stage; the identity gates all still run.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analytics/queries.h"
#include "bench/common.h"
#include "analytics/rvla_io.h"
#include "core/longitudinal.h"
#include "core/publish.h"
#include "util/csv.h"

namespace {

using namespace rovista;
using core::Asn;
using util::Date;
using Clock = std::chrono::steady_clock;

namespace fs = std::filesystem;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Shape {
  int rounds = 600;  // ~ the paper's 20 months of daily-ish rounds
  int ases = 2000;
};

Shape smoke_shape() { return Shape{40, 200}; }

struct QuerySample {
  const char* name;
  double stream_s = 0.0;
  double memory_s = 0.0;
};

bool same_files(const fs::path& a, const fs::path& b) {
  auto slurp = [](const fs::path& p) {
    std::ifstream f(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
  };
  std::vector<std::string> names_a, names_b;
  for (const auto& e : fs::directory_iterator(a)) {
    names_a.push_back(e.path().filename().string());
  }
  for (const auto& e : fs::directory_iterator(b)) {
    names_b.push_back(e.path().filename().string());
  }
  std::sort(names_a.begin(), names_a.end());
  std::sort(names_b.begin(), names_b.end());
  if (names_a != names_b) return false;
  for (const std::string& name : names_a) {
    if (slurp(a / name) != slurp(b / name)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_analytics.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const Shape shape = smoke ? smoke_shape() : Shape{};

  const std::string dir =
      (fs::temp_directory_path() /
       ("rovista-bench-rvla-" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  // --- build the series: archive (timed appends) + in-memory store ---
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> level(0, 8);    // score = 12.5 * level
  std::uniform_int_distribution<int> percent(0, 99);
  std::vector<double> current(static_cast<std::size_t>(shape.ases));
  for (double& score : current) score = 12.5 * level(rng);

  std::string error;
  auto writer = analytics::RvlaWriter::create(dir, {}, &error);
  if (!writer.has_value()) {
    std::fprintf(stderr, "FAIL: create: %s\n", error.c_str());
    return 1;
  }
  core::LongitudinalStore store;
  core::RoundHealth none;
  const Date base = Date::from_ymd(2021, 7, 1);

  double append_s = 0.0;
  double record_s = 0.0;
  for (int round = 0; round < shape.rounds; ++round) {
    const Date date = base + round;
    std::vector<std::pair<Asn, double>> pairs;
    std::vector<core::AsScore> scores;
    pairs.reserve(static_cast<std::size_t>(shape.ases));
    scores.reserve(static_cast<std::size_t>(shape.ases));
    for (int i = 0; i < shape.ases; ++i) {
      if (percent(rng) < 2) {  // ~2% of ASes move per round
        current[static_cast<std::size_t>(i)] = 12.5 * level(rng);
      }
      const Asn asn = static_cast<Asn>(64500 + i);
      const double score = current[static_cast<std::size_t>(i)];
      pairs.emplace_back(asn, score);
      core::AsScore s;
      s.asn = asn;
      s.score = score;
      scores.push_back(s);
    }

    Clock::time_point t = Clock::now();
    if (!writer->append(analytics::make_frame(date, pairs, false, none),
                        &error)) {
      std::fprintf(stderr, "FAIL: append: %s\n", error.c_str());
      return 1;
    }
    append_s += seconds_since(t);

    t = Clock::now();
    store.record(date, scores);
    record_s += seconds_since(t);
  }
  const std::uint64_t archive_bytes = writer->head().data_size;

  // --- queries: streaming vs the in-memory walk, identity-gated ---
  std::vector<QuerySample> samples;
  bool identical = true;

  {
    QuerySample s{"latest_cdf"};
    Clock::time_point t = Clock::now();
    const auto streamed = analytics::latest_scores(dir, &error);
    const std::string stream_csv =
        streamed.has_value() ? analytics::latest_cdf_csv(*streamed) : "";
    s.stream_s = seconds_since(t);

    t = Clock::now();
    std::vector<std::pair<Asn, double>> walked;
    for (const Asn asn : store.ases()) {
      walked.emplace_back(asn, *store.latest_score(asn));
    }
    const std::string memory_csv = analytics::latest_cdf_csv(walked);
    s.memory_s = seconds_since(t);
    identical = identical && streamed.has_value() && stream_csv == memory_csv;
    samples.push_back(s);
  }
  {
    QuerySample s{"fraction_trend"};
    Clock::time_point t = Clock::now();
    const auto streamed = analytics::fraction_trend(dir, 100.0, &error);
    const std::string stream_csv =
        streamed.has_value() ? analytics::fraction_trend_csv(*streamed, 100.0)
                             : "";
    s.stream_s = seconds_since(t);

    t = Clock::now();
    std::vector<std::pair<Date, double>> walked;
    for (const Date date : store.dates()) {
      walked.emplace_back(date, store.fraction_at_least(date, 100.0));
    }
    const std::string memory_csv =
        analytics::fraction_trend_csv(walked, 100.0);
    s.memory_s = seconds_since(t);
    identical = identical && streamed.has_value() && stream_csv == memory_csv;
    samples.push_back(s);
  }
  {
    QuerySample s{"as_series"};
    const Asn asn = 64500 + static_cast<Asn>(shape.ases) / 2;
    Clock::time_point t = Clock::now();
    const auto streamed = analytics::as_series(dir, asn, &error);
    const std::string stream_csv =
        streamed.has_value() ? analytics::series_csv(asn, *streamed) : "";
    s.stream_s = seconds_since(t);

    t = Clock::now();
    const std::string memory_csv = analytics::series_csv(asn,
                                                         store.series(asn));
    s.memory_s = seconds_since(t);
    identical = identical && streamed.has_value() && stream_csv == memory_csv;
    samples.push_back(s);
  }
  {
    QuerySample s{"score_jumps"};
    Clock::time_point t = Clock::now();
    const auto streamed = analytics::score_jumps(dir, 0.0, 100.0, &error);
    const std::string stream_csv =
        streamed.has_value() ? analytics::jumps_csv(*streamed) : "";
    s.stream_s = seconds_since(t);

    t = Clock::now();
    const std::string memory_csv =
        analytics::jumps_csv(store.score_jumps(0.0, 100.0));
    s.memory_s = seconds_since(t);
    identical = identical && streamed.has_value() && stream_csv == memory_csv;
    samples.push_back(s);
  }
  {
    QuerySample s{"publish"};
    const fs::path pub_store = fs::path(dir + "-pub-store");
    const fs::path pub_archive = fs::path(dir + "-pub-archive");
    fs::remove_all(pub_store);
    fs::remove_all(pub_archive);

    Clock::time_point t = Clock::now();
    const auto written =
        analytics::publish_archive(dir, pub_archive.string(), &error);
    s.stream_s = seconds_since(t);

    t = Clock::now();
    const auto from_store = core::publish_scores(store, pub_store.string());
    s.memory_s = seconds_since(t);

    identical = identical && written.has_value() && from_store.has_value() &&
                *written == *from_store &&
                same_files(pub_store, pub_archive);
    fs::remove_all(pub_store);
    fs::remove_all(pub_archive);
    samples.push_back(s);
  }

  fs::remove_all(dir);
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: a streaming answer diverged from the store\n");
    return 1;
  }

  const double bytes_per_frame =
      static_cast<double>(archive_bytes) / shape.rounds;
  const double append_ms = append_s * 1e3 / shape.rounds;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host\": %s,\n", bench::host_json().c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"series\": {\"rounds\": %d, \"ases\": %d},\n",
               shape.rounds, shape.ases);
  std::fprintf(f,
               "  \"archive\": {\"bytes\": %llu, \"bytes_per_frame\": %.1f, "
               "\"append_total_s\": %.6f, \"append_mean_ms\": %.4f, "
               "\"store_record_total_s\": %.6f},\n",
               static_cast<unsigned long long>(archive_bytes),
               bytes_per_frame, append_s, append_ms, record_s);
  std::fprintf(f, "  \"queries\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const QuerySample& s = samples[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"stream_s\": %.6f, "
                 "\"memory_s\": %.6f}%s\n",
                 s.name, s.stream_s, s.memory_s,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"identity_ok\": true,\n");
  std::fprintf(f, "  \"ok\": true\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf(
      "analytics bench: %d rounds x %d ASes, %.1f bytes/frame, append "
      "%.2f ms/round, every streaming answer identical to the store\n",
      shape.rounds, shape.ases, bytes_per_frame, append_ms);
  return 0;
}
