#include "traced.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/queries.h"
#include "analytics/rvla.h"
#include "analytics/rvla_io.h"
#include "core/longitudinal.h"
#include "core/publish.h"
#include "core/rovista.h"
#include "incremental/longitudinal_engine.h"
#include "load_driver.h"
#include "persist/checkpoint_io.h"
#include "serve/loadgen.h"
#include "serve/score_feed.h"
#include "serve/server.h"
#include "small_world.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"
#include "spans.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace rovista;

namespace {

double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string read_file(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// True when both directories hold the same file names with the same
// bytes.
bool same_tree(const fs::path& a, const fs::path& b) {
  std::vector<fs::path> names_a;
  std::vector<fs::path> names_b;
  for (const auto& e : fs::directory_iterator(a)) {
    names_a.push_back(e.path().filename());
  }
  for (const auto& e : fs::directory_iterator(b)) {
    names_b.push_back(e.path().filename());
  }
  std::sort(names_a.begin(), names_a.end());
  std::sort(names_b.begin(), names_b.end());
  if (names_a != names_b) return false;
  for (const fs::path& name : names_a) {
    if (read_file(a / name) != read_file(b / name)) return false;
  }
  return true;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// The highest percentile with at least ten samples beyond it, capped at
// p98 (a 600-round series has 600 samples).
double tail(std::vector<double> v) { return percentile(std::move(v), 0.98); }

// The quiet load after the series: 2 s at kRate is about 10,000
// requests, so its p99 has a hundred samples beyond it.
constexpr double kQuietSeconds = 2.0;

struct Load {
  std::atomic<bool> stop{false};
  LoadResult result;
  std::thread thread;  // declared last: runs against the members above

  void start(const LoadOptions& options, std::vector<std::uint32_t> asns,
             std::vector<ReachTarget> reach, SpanLog& log) {
    thread = std::thread([this, options, asns = std::move(asns),
                          reach = std::move(reach), &log] {
      SpanLog::Scope span(log, "serve.load");
      result = run_open_loop(options, asns, reach, stop);
      span.arg("sent", static_cast<double>(result.sent));
    });
  }
  void wait() {
    if (thread.joinable()) thread.join();
  }
  void finish() {
    stop.store(true);
    wait();
  }
  ~Load() { finish(); }
};

}  // namespace

TracedResult run_traced(const TracedOptions& o) {
  TracedResult out;
  std::map<std::string, double>& m = out.metrics;
  const auto fail = [&](std::string why) {
    if (out.error.empty()) out.error = std::move(why);
  };

  SpanLog log;
  const Clock::time_point wall0 = Clock::now();
  const fs::path work(o.work_dir);
  fs::create_directories(work);

  const scenario::ScenarioParams params = small_params(o.world_seed);
  const core::RovistaConfig config = small_rovista_config(o.threads);
  const util::Date start = params.start;

  // --- cold round: `measure`'s pipeline, one public call per layer ---
  {
    SpanLog::Scope stage(log, "stage.cold_round");
    std::unique_ptr<snapshot::EpochPublisher> publisher;
    {
      SpanLog::Scope s(log, "scenario.build");
      publisher = std::make_unique<snapshot::EpochPublisher>(params);
    }
    {
      SpanLog::Scope s(log, "scenario.advance");
      publisher->advance_to(start);
    }
    m["mem.rss_mb_build"] = rss_mb();
    snapshot::EpochRef epoch;
    {
      SpanLog::Scope s(log, "snapshot.publish");
      epoch = publisher->publish();
    }
    {
      SpanLog::Scope s(log, "snapshot.digest");
      if (epoch->recompute_digest() != epoch->digest()) {
        fail("epoch digest changed between publish and recompute");
      }
    }
    m["snapshot.epoch_cached_prefixes"] =
        static_cast<double>(epoch->shared_routing().cached_prefixes());
    std::unique_ptr<snapshot::EpochReader> reader;
    {
      SpanLog::Scope s(log, "snapshot.reader");
      reader = snapshot::make_reader(epoch);
    }
    scenario::Scenario& world = publisher->world();
    core::Rovista rovista(reader->plane(), reader->client_a(),
                          reader->client_b(), config);
    bgp::CollectorSnapshot view;
    {
      SpanLog::Scope s(log, "bgp.collector_snapshot");
      view = world.collector().snapshot(reader->epoch().shared_routing());
    }
    std::vector<scan::Tnode> tnodes;
    {
      SpanLog::Scope s(log, "scan.tnode_acquire");
      tnodes = rovista.acquire_tnodes(
          view, world.current_vrps(),
          world.rov_reference_ases(world.current(), 10),
          world.non_rov_reference_ases(world.current(), 10));
      s.arg("tnodes", static_cast<double>(tnodes.size()));
    }
    std::vector<scan::Vvp> vvps;
    {
      SpanLog::Scope s(log, "scan.vvp_acquire");
      vvps = rovista.acquire_vvps(world.vvp_candidates());
      s.arg("vvps", static_cast<double>(vvps.size()));
    }
    core::MeasurementRound round;
    {
      SpanLog::Scope s(log, "core.round");
      round = rovista.run_round_parallel(snapshot::make_reader_factory(epoch),
                                         vvps, tnodes);
      s.arg("pairs", static_cast<double>(round.experiments_run));
    }
    m["core.pairs"] = static_cast<double>(round.experiments_run);
    m["core.inconclusive_frac"] =
        round.experiments_run == 0
            ? 0.0
            : static_cast<double>(round.inconclusive) /
                  static_cast<double>(round.experiments_run);
    m["mem.rss_mb_publish"] = rss_mb();
    {
      SpanLog::Scope s(log, "bgp.converge_all");
      bgp::RoutingSystem& routing = world.routing();
      routing.invalidate_all();
      const std::vector<net::Ipv4Prefix> prefixes = routing.all_prefixes();
      for (const net::Ipv4Prefix& p : prefixes) routing.routes_for(p);
      m["bgp.prefixes"] = static_cast<double>(prefixes.size());
    }
    {
      SpanLog::Scope s(log, "core.publish_csv.cold");
      core::LongitudinalStore store;
      store.record(world.current(), round.scores);
      if (!core::publish_scores(store, (work / "cold").string())) {
        fail("could not publish the cold round");
      }
    }
  }

  // --- series: one round per day, with the per-round writes ---
  incremental::IncrementalConfig ic;
  ic.params = params;
  ic.rovista = config;
  ic.checkpoint_dir = (work / "checkpoint").string();
  ic.checkpoint_every = 0;  // the benchmark writes them itself, timed
  std::unique_ptr<incremental::IncrementalLongitudinalRunner> runner;
  {
    SpanLog::Scope s(log, "incremental.runner_build");
    runner = std::make_unique<incremental::IncrementalLongitudinalRunner>(ic);
  }
  auto feed = std::make_shared<serve::ScoreFeed>();
  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::Server server(server_options, feed);
  if (!server.start()) {
    out.error = "could not start the in-process server";
    return out;
  }
  const std::string archive_dir = (work / "archive").string();
  std::string error;
  std::optional<analytics::RvlaWriter> archive =
      analytics::RvlaWriter::create(archive_dir, {}, &error);
  if (!archive.has_value()) fail("archive: " + error);

  const std::vector<ReachTarget> reach = tnode_hosts(runner->world());
  LoadOptions load_options;
  load_options.port = server.port();
  load_options.seed = o.load_seed;
  load_options.max_seconds = 600.0;
  Load busy;

  std::size_t total_pairs = 0;
  std::size_t reused_pairs = 0;
  std::size_t reused_discovery = 0;
  std::size_t dirty_prefixes = 0;
  long live_epochs_max = 0;
  double checkpoint_bytes = 0.0;
  std::vector<double> frame_bytes;
  const int stop_round = std::max(1, o.rounds * 95 / 100);
  {
    SpanLog::Scope stage(log, "stage.series");
    for (int i = 0; i < o.rounds; ++i) {
      util::Date date = start + i;
      if (date > params.end) date = params.end;
      incremental::RoundReport report;
      {
        SpanLog::Scope s(log, "incremental.round");
        report = runner->run_round(date);
        s.arg("executed_pairs", static_cast<double>(report.executed_pairs));
      }
      total_pairs += report.total_pairs;
      reused_pairs += report.reused_pairs;
      reused_discovery += report.discovery_reused ? 1 : 0;
      dirty_prefixes += report.dirty_prefix_count;
      {
        SpanLog::Scope s(log, "serve.feed_publish");
        feed->publish(report.date, report.round.scores,
                      runner->publisher().current());
      }
      live_epochs_max =
          std::max(live_epochs_max, runner->publisher().live_epochs());
      {
        SpanLog::Scope s(log, "persist.checkpoint");
        if (!runner->write_checkpoint()) fail("checkpoint write failed");
      }
      checkpoint_bytes = static_cast<double>(fs::file_size(
          persist::CheckpointPaths::in(ic.checkpoint_dir).current));
      if (archive.has_value()) {
        std::vector<std::pair<core::Asn, double>> scores;
        for (const core::AsScore& s : report.round.scores) {
          scores.emplace_back(s.asn, s.score);
        }
        const std::uint64_t before = archive->head().data_size;
        SpanLog::Scope s(log, "analytics.append");
        if (!archive->append(analytics::make_frame(date, scores, false, {}),
                             &error)) {
          fail("archive append: " + error);
        }
        frame_bytes.push_back(
            static_cast<double>(archive->head().data_size - before));
      }
      if (o.load_while_publishing && i == 0) {
        const auto asns = fetch_asns(load_options.host, server.port(), 10.0);
        if (!asns.has_value()) {
          fail("no scored ASNs after the first round");
        } else {
          busy.start(load_options, *asns, reach, log);
        }
      }
      if (i + 1 == stop_round) busy.finish();
    }
    busy.finish();
  }

  // --- publish the series, then answer the paper's queries off RVLA ---
  const fs::path published = work / "published";
  {
    SpanLog::Scope stage(log, "stage.publish");
    SpanLog::Scope s(log, "core.publish_csv");
    if (!core::publish_scores(runner->store(), published.string())) {
      fail("could not publish the series");
    }
  }
  const std::string first_csv = "scores-" + start.to_string() + ".csv";
  if (read_file(work / "cold" / first_csv) != read_file(published / first_csv)) {
    fail("the cold round and the series' first round disagree");
  }
  std::vector<double> query_ms;
  {
    SpanLog::Scope stage(log, "stage.queries");
    const auto timed = [&](const char* name, auto&& query) {
      const Clock::time_point t = Clock::now();
      {
        SpanLog::Scope s(log, std::string("analytics.query.") + name);
        if (!query()) fail(std::string("analytics query failed: ") + name);
      }
      query_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t).count());
    };
    const core::Asn some_as =
        runner->store().ases().empty() ? 0 : runner->store().ases().front();
    timed("latest_scores", [&] {
      return analytics::latest_scores(archive_dir, &error).has_value();
    });
    timed("fraction_trend", [&] {
      return analytics::fraction_trend(archive_dir, 100.0, &error).has_value();
    });
    timed("score_jumps", [&] {
      return analytics::score_jumps(archive_dir, 0.0, 100.0, &error)
          .has_value();
    });
    timed("churn", [&] {
      return analytics::churn(archive_dir, &error).has_value();
    });
    timed("as_series", [&] {
      return analytics::as_series(archive_dir, some_as, &error).has_value();
    });
    timed("publish_archive", [&] {
      return analytics::publish_archive(archive_dir,
                                        (work / "republished").string(), &error)
          .has_value();
    });
  }
  if (!same_tree(published, work / "republished")) {
    fail("publish_archive differs from publish_scores");
  }

  // --- the same load against the finished feed ---
  Load quiet;
  {
    SpanLog::Scope stage(log, "stage.quiet_serve");
    const auto asns = fetch_asns(load_options.host, server.port(), 10.0);
    if (!asns.has_value()) {
      fail("no scored ASNs in the finished feed");
    } else {
      LoadOptions q = load_options;
      q.max_seconds = kQuietSeconds;
      q.seed = o.load_seed + 1;
      quiet.start(q, *asns, reach, log);
      quiet.wait();
    }
  }
  server.stop();
  const double wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();

  // Every SCORE answer must match the published dataset.
  const LoadResult& main_load = o.load_while_publishing ? busy.result : quiet.result;
  for (const LoadResult* r : {&busy.result, &quiet.result}) {
    if (r->sent == 0 && r != &main_load) continue;
    if (!r->enough_scores()) {
      fail("only " + std::to_string(r->score_ok) + " of " +
           std::to_string(r->score_sent) + " SCORE requests came back OK");
    }
    const std::string records = (work / "records.csv").string();
    std::size_t checked = 0;
    std::string diag;
    if (!write_score_records(*r, records) ||
        !serve::verify_record_against_published(records, published.string(),
                                                &checked, &diag)) {
      fail("served scores disagree with the published dataset: " + diag);
    }
    for (const auto& [days, asn] : r->unknown) {
      if (runner->store().score_on(asn, util::Date(days)).has_value()) {
        fail("UNKNOWN_AS for AS" + std::to_string(asn) +
             ", which the published round scores");
      }
    }
    out.attempted += r->sent;
    out.failed += r->failed();
  }
  if (out.failed > 0) fail("the load driver saw failed requests");

  const std::vector<double> rounds_ms = log.durations_ms("incremental.round");
  m["scenario.build_s"] = log.total_s("scenario.build");
  m["scenario.advance_s"] = log.total_s("scenario.advance");
  m["snapshot.publish_s"] = log.total_s("snapshot.publish");
  m["snapshot.digest_s"] = log.total_s("snapshot.digest");
  m["snapshot.reader_ms"] = log.total_s("snapshot.reader") * 1000.0;
  m["snapshot.live_epochs_max"] = static_cast<double>(live_epochs_max);
  m["bgp.collector_snapshot_s"] = log.total_s("bgp.collector_snapshot");
  m["bgp.converge_all_s"] = log.total_s("bgp.converge_all");
  m["scan.tnode_acquire_s"] = log.total_s("scan.tnode_acquire");
  m["scan.vvp_acquire_s"] = log.total_s("scan.vvp_acquire");
  m["core.round_s"] = log.total_s("core.round");
  m["core.publish_csv_ms"] = log.total_s("core.publish_csv") * 1000.0;
  m["incremental.round_ms_p50"] = median(rounds_ms);
  m["incremental.round_ms_p98"] = tail(rounds_ms);
  m["incremental.reused_pair_frac"] =
      total_pairs == 0 ? 0.0
                       : static_cast<double>(reused_pairs) /
                             static_cast<double>(total_pairs);
  m["incremental.discovery_reused_frac"] =
      static_cast<double>(reused_discovery) / std::max(1, o.rounds);
  m["incremental.dirty_prefixes"] = static_cast<double>(dirty_prefixes);
  m["persist.checkpoint_ms_p50"] = median(log.durations_ms("persist.checkpoint"));
  m["persist.checkpoint_bytes"] = checkpoint_bytes;
  m["analytics.append_ms_p50"] = median(log.durations_ms("analytics.append"));
  m["analytics.frame_bytes"] = median(frame_bytes);
  m["analytics.query_ms"] = median(query_ms);
  m["serve.feed_publish_ms_p50"] = median(log.durations_ms("serve.feed_publish"));
  for (int op = 0; op < kOpCount; ++op) {
    m[std::string("serve.") + op_name(op) + "_ms_p99"] =
        percentile(main_load.latency_ms[static_cast<std::size_t>(op)], 0.99);
  }
  m["serve.quiet_p99_ms"] = percentile(quiet.result.all_latencies_ms(), 0.99);
  m["serve.frames_per_batch"] =
      server.io().batches_served() == 0
          ? 0.0
          : static_cast<double>(server.io().frames_served()) /
                static_cast<double>(server.io().batches_served());
  m["driver.late_ms_p99"] = percentile(main_load.late_ms, 0.99);
  m["trace.stage_sum_s"] = log.top_level_s();
  m["trace.wall_s"] = wall_s;

  out.attempted += static_cast<std::uint64_t>(o.rounds);
  if (!log.write_chrome_trace(o.trace_path)) fail("could not write the trace");
  out.ok = out.error.empty();
  return out;
}

}  // namespace perfbench
