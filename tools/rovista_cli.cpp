// rovista — command-line front end.
//
// Subcommands:
//   measure  --seed N --date YYYY-MM-DD --out DIR
//            run one full measurement round against a simulated Internet
//            and publish the per-AS scores as the daily CSV dataset
//   query    --dir DIR [--asn N]
//            query a published score dataset (latest scores, or one AS's
//            full series)
//   audit    --seed N --asn N [--date YYYY-MM-DD]
//            audit one AS: score, per-tNode verdicts, leak paths
//   longitudinal
//            --seed N --rounds N [--interval-days N] [--threads N]
//            [--out FILE] [--publish DIR]
//            run a dated sequence of rounds through the incremental
//            engine and emit a per-round CSV series
//   serve    --seed N --rounds N [--port P] [--workers N] ...
//            long-lived RQP query daemon: answers score / trajectory /
//            reachability queries over live epoch snapshots while the
//            incremental engine publishes rounds behind it
//   loadgen  --port P [--requests N] [--connections N] ...
//            open- or closed-loop load generator for a serve daemon
//   feedcheck --record FILE --published DIR
//            byte-compare a loadgen score record against a published
//            CSV dataset (the torn-read oracle of the tier-1 stage)
//
// Everything is deterministic in --seed; see README.md for the library
// behind it.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fstream>

#include <cstdlib>

#include "analytics/queries.h"
#include "bgp/mrt.h"
#include "core/publish.h"
#include "core/rovista.h"
#include "dataplane/traceroute.h"
#include "incremental/longitudinal_engine.h"
#include "persist/checkpoint.h"
#include "persist/checkpoint_io.h"
#include "persist/wire.h"
#include "scenario/scenario.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"
#include "util/csv.h"
#include "util/strings.h"

namespace {

using namespace rovista;

struct Args {
  std::map<std::string, std::string> options;

  const char* get(const char* key, const char* fallback = nullptr) const {
    const auto it = options.find(key);
    return it != options.end() ? it->second.c_str() : fallback;
  }
  bool has(const char* key) const { return options.count(key) != 0; }
};

/// Parse `--flag [value]` options for `command`, which accepts exactly
/// the flag names in `accepted`. Any other flag is refused with a
/// one-line error (nullopt; the caller exits 2): a silently ignored
/// flag would run a different configuration than the one asked for.
std::optional<Args> parse_args(int argc, char** argv, int from,
                               const char* command,
                               std::span<const std::string_view> accepted) {
  Args args;
  for (int i = from; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string_view name = argv[i] + 2;
    if (std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
      std::fprintf(stderr, "error: unknown flag %s for %s\n", argv[i],
                   command);
      return std::nullopt;
    }
    // A flag followed by another flag (or nothing) is a bare switch,
    // e.g. --resume; otherwise the next token is its value.
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      args.options[argv[i] + 2] = "";
    }
  }
  return args;
}

// Typed flag readers. An absent flag leaves `out` at its default; a
// malformed value is refused with a one-line error (false; the caller
// exits 2) instead of silently running on the default.
bool read_u64(const Args& args, const char* flag, std::uint64_t& out) {
  const char* v = args.get(flag);
  if (v == nullptr || util::parse_u64(v, out)) return true;
  std::fprintf(stderr, "error: --%s wants a non-negative integer, got '%s'\n",
               flag, v);
  return false;
}

// The largest thread or worker count, and the largest connection count,
// a flag accepts: each unit is an OS thread or a socket, and a larger
// value would also wrap the int it is stored in.
constexpr std::uint64_t kMaxThreads = 256;
constexpr std::uint64_t kMaxConnections = 4096;

/// A count in [lo, hi]; outside it, a one-line refusal.
bool read_count(const Args& args, const char* flag, std::uint64_t& out,
                std::uint64_t lo, std::uint64_t hi) {
  if (!read_u64(args, flag, out)) return false;
  if (out >= lo && out <= hi) return true;
  std::fprintf(stderr, "error: --%s wants a count in [%llu, %llu], got '%s'\n",
               flag, static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi), args.get(flag));
  return false;
}

/// --checkpoint-every: a round count the engine's int holds. 0, or a
/// value above INT_MAX, would write no periodic checkpoint at all.
bool read_checkpoint_every(const Args& args, int& out) {
  std::uint64_t every = 1;
  if (!read_u64(args, "checkpoint-every", every)) return false;
  if (every >= 1 &&
      every <= static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    out = static_cast<int>(every);
    return true;
  }
  std::fprintf(stderr,
               "error: --checkpoint-every wants a round count in [1, %d], "
               "got '%s'\n",
               std::numeric_limits<int>::max(), args.get("checkpoint-every"));
  return false;
}

/// A command run without a flag it cannot do without: one line, exit 2.
int refuse_missing(const char* command, const char* flags) {
  std::fprintf(stderr, "error: %s needs %s\n", command, flags);
  return 2;
}

bool read_date(const Args& args, const char* flag, util::Date& out) {
  const char* v = args.get(flag);
  if (v == nullptr || util::Date::parse(v, out)) return true;
  std::fprintf(stderr, "error: --%s wants a date YYYY-MM-DD, got '%s'\n",
               flag, v);
  return false;
}

/// A real number in [lo, hi].
bool read_double(const Args& args, const char* flag, double& out, double lo,
                 double hi) {
  const char* v = args.get(flag);
  if (v == nullptr) return true;
  double x = 0.0;
  if (util::parse_double(v, x) && x >= lo && x <= hi) {
    out = x;
    return true;
  }
  std::fprintf(stderr, "error: --%s wants a number in [%g, %g], got '%s'\n",
               flag, lo, hi, v);
  return false;
}

/// --topology caida:FILE | synthetic:FACTOR (default synthetic:1).
/// caida: loads a CAIDA serial-2 as-rel file (docs/FORMATS.md section 4)
/// instead of generating a world. synthetic:FACTOR scales the generated
/// world: transit and stub counts multiply by FACTOR while the peer-edge
/// densities divide by it, holding per-AS peer degree (and so total edge
/// count) roughly linear in FACTOR. synthetic:1 is the standard paper
/// world, byte-identical to omitting the flag.
bool parse_topology(const Args& args, scenario::ScenarioParams& params) {
  const char* t = args.get("topology");
  if (t == nullptr) return true;
  const std::string value = t;
  if (value.rfind("caida:", 0) == 0) {
    const std::string path = value.substr(6);
    if (path.empty()) {
      std::fprintf(stderr, "error: --topology caida: needs a file path\n");
      return false;
    }
    params.topology.caida_path = path;
    return true;
  }
  if (value.rfind("synthetic:", 0) == 0) {
    std::uint64_t factor = 0;
    if (!util::parse_u64(value.c_str() + 10, factor) || factor < 1 ||
        factor > 64) {
      std::fprintf(stderr,
                   "error: --topology synthetic: factor must be 1..64\n");
      return false;
    }
    const int f = static_cast<int>(factor);
    params.topology.tier2_count *= f;
    params.topology.tier3_count *= f;
    params.topology.stub_count *= f;
    params.topology.tier2_peer_prob /= f;
    params.topology.tier3_peer_prob /= f;
    return true;
  }
  std::fprintf(stderr,
               "error: --topology must be caida:FILE or synthetic:FACTOR\n");
  return false;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: rovista <command> [options]\n"
      "  measure --seed N --date YYYY-MM-DD --out DIR [--mrt FILE]\n"
      "          [--threads N] [--topology caida:FILE|synthetic:FACTOR]\n"
      "          run one round, publish scores, optionally archive the\n"
      "          collector table as an MRT TABLE_DUMP_V2 file;\n"
      "          --threads shards the round by vVP across readers of one\n"
      "          published world (output bit-identical for any count,\n"
      "          omitted and 0 included; see DESIGN.md);\n"
      "          --topology swaps the simulated Internet: a CAIDA\n"
      "          serial-2 as-rel file (docs/FORMATS.md section 4) or a\n"
      "          scaled synthetic world (FACTOR 1..64 multiplies transit\n"
      "          and stub counts; measure worlds cap at ~32.5k ASes —\n"
      "          factor <= 6 on default tiers)\n"
      "  query   --dir DIR [--asn N]                    read a dataset\n"
      "  audit   --seed N --asn N [--date YYYY-MM-DD]   audit one AS\n"
      "  longitudinal --seed N --rounds N [--interval-days N]\n"
      "          [--start YYYY-MM-DD] [--threads N]\n"
      "          [--out FILE] [--publish DIR] [--scale small|paper]\n"
      "          [--slurm-fraction F]\n"
      "          [--rp-failure-rate F] [--rp-divergence-fraction F]\n"
      "          [--rtr-drop-rate F]\n"
      "          [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n"
      "          [--archive DIR] [--die-after N]\n"
      "          run a dated round sequence, one round every\n"
      "          --interval-days (>= 1, default 30); VRP deltas drive\n"
      "          dirty-prefix recomputation and a reachability-aware\n"
      "          score cache (scores bit-identical to a full recompute\n"
      "          of each round), and the per-round series goes to --out\n"
      "          as CSV. With --checkpoint-dir the\n"
      "          series writes crash-safe RVCP checkpoints (see\n"
      "          docs/FORMATS.md) that point into its RVLA archive,\n"
      "          kept in --archive or else in the checkpoint directory,\n"
      "          and --resume continues an interrupted series\n"
      "          bit-identically. The fault knobs inject RPKI\n"
      "          supply-chain failures (RP crashes serving stale VRPs,\n"
      "          RTR session drops/corrupt PDUs, divergent RP\n"
      "          implementations); all default to 0, which leaves every\n"
      "          output byte-identical to a fault-free run. --archive\n"
      "          appends every completed round as one durable RVLA frame\n"
      "          (docs/FORMATS.md section 5) for `rovista analyze`.\n"
      "          --die-after is the crash-safety test hook: _Exit(137)\n"
      "          after N completed rounds, skipping destructors\n"
      "  analyze --archive DIR\n"
      "          [--query info|latest-cdf|fraction-trend|series|jumps|churn]\n"
      "          [--threshold T] [--asn N] [--low L] [--high H]\n"
      "          [--out FILE] [--publish DIR]\n"
      "          stream the paper's longitudinal queries straight off an\n"
      "          RVLA archive — no in-memory store, memory stays O(ASes)\n"
      "          regardless of round count. latest-cdf = Fig. 5 CDF of\n"
      "          each AS's latest score; fraction-trend = Fig. 6 fraction\n"
      "          of ASes at or above --threshold (default 100) per date;\n"
      "          series = one AS's full (date, score) trajectory (--asn);\n"
      "          jumps = section-7.3 scans for scores moving from\n"
      "          <= --low (default 0) to >= --high (default 100) between\n"
      "          consecutive rounds; churn = per-transition change\n"
      "          aggregates. Answers are bit-identical to the in-memory\n"
      "          LongitudinalStore (tier-1 byte-compares them). CSV goes\n"
      "          to stdout or --out; --publish re-emits the section-2\n"
      "          dataset byte-identically to `longitudinal --publish`\n"
      "  checkpoint inspect (--dir DIR | --file FILE)\n"
      "          print each slot's seq and CRC verdict, the RVCP section\n"
      "          table and integrity verdict, the archive prefix it\n"
      "          names, and the slot a resume would take, without\n"
      "          restoring anything\n"
      "  serve   --seed N --rounds N [--interval-days N]\n"
      "          [--start YYYY-MM-DD]\n"
      "          [--scale small|paper] [--port P] [--workers N]\n"
      "          [--threads N] [--publish DIR] [--warn-depth N]\n"
      "          [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n"
      "          [--archive DIR]\n"
      "          start the RQP v1 query daemon (docs/FORMATS.md section 3)\n"
      "          on 127.0.0.1 (--port 0 = kernel-assigned; the bound port\n"
      "          is announced as 'LISTENING <port>' on stdout), run the\n"
      "          round series behind it, then keep serving until SIGTERM\n"
      "          (graceful: in-flight responses are flushed). --resume\n"
      "          continues an RVCP checkpoint and warm-starts scores/\n"
      "          trajectories from the restored rounds of its archive;\n"
      "          --publish writes the CSV dataset once the series ends\n"
      "          and announces 'PUBLISHED <dir>'; --warn-depth enables\n"
      "          the pin-leak diagnostic on the epoch chain; --archive\n"
      "          appends rounds to an RVLA archive and, without --resume,\n"
      "          warm-starts scores/trajectories from it when it already\n"
      "          holds rounds\n"
      "  loadgen --port P [--host H] [--requests N] [--connections N]\n"
      "          [--threads N] [--rate R] [--pipeline N]\n"
      "          [--traj-fraction F] [--reach-fraction F] [--seed N]\n"
      "          [--reach-dst ADDR32] [--reach-port P]\n"
      "          [--timeout-ms N] [--record FILE] [--json FILE]\n"
      "          drive a serve daemon: open-loop at --rate req/s, or\n"
      "          closed-loop at --pipeline outstanding per connection;\n"
      "          --record captures every OK score response for feedcheck;\n"
      "          --reach-fraction sends that share of requests as\n"
      "          reachability queries to --reach-dst (a numeric IPv4,\n"
      "          required when the fraction is above 0) and --reach-port\n"
      "  feedcheck --record FILE --published DIR\n"
      "          verify a loadgen record byte-for-byte against a\n"
      "          published dataset: every served score must equal the\n"
      "          published score of its own round's date\n");
  return 2;
}

// The measurement settings every round-running command shares.
core::RovistaConfig round_config(std::uint64_t threads) {
  core::RovistaConfig config;
  config.scoring.min_vvps_per_as = 2;
  config.scoring.min_tnodes = 3;
  config.num_threads = static_cast<int>(threads);
  return config;
}

// measure and audit: build one world at `date` (clamped to the scenario
// window) and publish it as one epoch. Discovery probes a reader of that
// epoch and the round measures on further readers of it, so every
// --threads value measures the same unprobed world.
snapshot::EpochRef publish_round_world(snapshot::EpochPublisher& publisher,
                                       util::Date date) {
  const scenario::Scenario& world = publisher.world();
  publisher.advance_to(std::clamp(date, world.start(), world.end()));
  return publisher.publish();
}

// The (vVP, tNode) matrix on readers of `epoch`, sharded across
// config.num_threads workers (0 and 1 run it inline).
core::MeasurementRound measure_epoch(const snapshot::EpochRef& epoch,
                                     const snapshot::RoundInputs& inputs,
                                     const core::RovistaConfig& config) {
  const core::ParallelRoundRunner runner(
      snapshot::make_reader_factory(epoch),
      {config.experiment, config.scoring, config.num_threads});
  return runner.run(inputs.vvps, inputs.tnodes);
}

int cmd_measure(const Args& args) {
  std::uint64_t seed = 42;
  util::Date date = util::Date::from_ymd(2023, 9, 12);
  std::uint64_t threads = 0;
  if (!read_u64(args, "seed", seed) || !read_date(args, "date", date) ||
      !read_count(args, "threads", threads, 0, kMaxThreads)) {
    return 2;
  }
  const char* out = args.get("out");
  if (out == nullptr) return refuse_missing("measure", "--out");
  scenario::ScenarioParams params;
  params.seed = seed;
  if (!parse_topology(args, params)) return 2;

  std::printf("building world (seed %llu) ...\n",
              static_cast<unsigned long long>(seed));
  snapshot::EpochPublisher publisher(std::move(params));
  scenario::Scenario& world = publisher.world();
  const snapshot::EpochRef epoch = publish_round_world(publisher, date);
  const core::RovistaConfig config = round_config(threads);
  const snapshot::RoundInputs inputs =
      snapshot::acquire_inputs_on_epoch(world, epoch, config);
  std::printf("ASes: %zu, tNodes: %zu\n", world.graph().size(),
              inputs.tnodes.size());
  std::printf("vVPs: %zu\n", inputs.vvps.size());
  std::printf("measuring with %llu worker threads\n",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  threads, 1)));
  const core::MeasurementRound round = measure_epoch(epoch, inputs, config);
  std::printf("experiments: %zu, ASes scored: %zu\n", round.experiments_run,
              round.scores.size());

  core::LongitudinalStore store;
  store.record(world.current(), round.scores);
  const auto written = core::publish_scores(store, out);
  if (!written.has_value()) {
    std::fprintf(stderr, "error: could not write %s\n", out);
    return 1;
  }
  std::printf("published %zu snapshot(s) under %s\n", *written, out);

  // Also archive the collector's table the way RouteViews would: an MRT
  // TABLE_DUMP_V2 file next to the score dataset.
  if (const char* mrt_path = args.get("mrt")) {
    const auto view = world.collector().snapshot(epoch->shared_routing());
    const auto bytes = bgp::mrt::export_table_dump(
        view, static_cast<std::uint32_t>(
                  world.current().days_since_epoch() * 86400));
    std::ofstream f(mrt_path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (f) {
      std::printf("wrote MRT table dump (%zu bytes, %zu entries) to %s\n",
                  bytes.size(), view.entries.size(), mrt_path);
    } else {
      std::fprintf(stderr, "error: could not write %s\n", mrt_path);
      return 1;
    }
  }
  return 0;
}

int cmd_query(const Args& args) {
  std::uint64_t asn = 0;
  if (!read_u64(args, "asn", asn)) return 2;
  const char* dir = args.get("dir");
  if (dir == nullptr) return refuse_missing("query", "--dir");
  const auto store = core::load_scores(dir);
  if (!store.has_value()) {
    std::fprintf(stderr, "error: no dataset at %s\n", dir);
    return 1;
  }
  if (args.has("asn")) {
    const auto series = store->series(static_cast<core::Asn>(asn));
    if (series.empty()) {
      std::printf("AS%llu: no measurements\n",
                  static_cast<unsigned long long>(asn));
      return 0;
    }
    for (const auto& [date, score] : series) {
      std::printf("%s  AS%llu  %.2f%%\n", date.to_string().c_str(),
                  static_cast<unsigned long long>(asn), score);
    }
    return 0;
  }
  util::Table table({"ASN", "latest score"});
  for (const auto asn : store->ases()) {
    const auto score = store->latest_score(asn);
    table.add_row({std::to_string(asn),
                   score ? util::fmt_double(*score, 2) + "%" : "-"});
  }
  std::printf("%s", table.to_text().c_str());
  return 0;
}

int cmd_audit(const Args& args) {
  std::uint64_t asn64 = 0;
  std::uint64_t seed = 42;
  util::Date date = util::Date::from_ymd(2023, 9, 12);
  if (!read_u64(args, "asn", asn64) || !read_u64(args, "seed", seed) ||
      !read_date(args, "date", date)) {
    return 2;
  }
  if (!args.has("asn")) return refuse_missing("audit", "--asn");
  const auto asn = static_cast<core::Asn>(asn64);

  scenario::ScenarioParams params;
  params.seed = seed;
  snapshot::EpochPublisher publisher(std::move(params));
  scenario::Scenario& world = publisher.world();
  if (!world.graph().contains(asn)) {
    std::fprintf(stderr, "error: AS%u does not exist in this world\n", asn);
    return 1;
  }
  const snapshot::EpochRef epoch = publish_round_world(publisher, date);
  const core::RovistaConfig config = round_config(0);
  snapshot::RoundInputs inputs =
      snapshot::acquire_inputs_on_epoch(world, epoch, config);
  std::erase_if(inputs.vvps,
                [asn](const scan::Vvp& vvp) { return vvp.asn != asn; });
  if (inputs.vvps.empty()) {
    std::printf("AS%u has no usable vVPs — unmeasurable from outside\n",
                asn);
    return 0;
  }
  const core::MeasurementRound round = measure_epoch(epoch, inputs, config);
  for (const auto& score : round.scores) {
    if (score.asn != asn) continue;
    std::printf("AS%u ROV protection score: %.1f%% (%d vVPs, %d tNodes)\n",
                asn, score.score, score.vvp_count, score.tnodes_consistent);
    if (score.score < 100.0) {
      std::printf("reachable RPKI-invalid destinations:\n");
      const std::unique_ptr<snapshot::EpochReader> reader =
          snapshot::make_reader(epoch);
      for (const auto& tnode : inputs.tnodes) {
        const auto tr = dataplane::tcp_traceroute(reader->plane(), asn,
                                                  tnode.address, tnode.port);
        if (!tr.reached) continue;
        std::string path;
        for (const auto hop : tr.hops) {
          path += "AS" + std::to_string(hop) + " ";
        }
        std::printf("  %s via %s\n", tnode.address.to_string().c_str(),
                    path.c_str());
      }
    }
    return 0;
  }
  std::printf("AS%u: not enough conclusive measurements\n", asn);
  return 0;
}

// A dated round series, as longitudinal and serve run it.
struct Series {
  incremental::IncrementalConfig config;
  std::uint64_t rounds = 0;
  util::Date start;
  std::uint64_t interval_days = 30;

  // Round i measures at min(start + i * interval, scenario end) — the
  // closed form makes the date sequence a function of the round index,
  // so a resumed process recomputes exactly the dates it skips.
  util::Date date(std::uint64_t i) const {
    util::Date d = start + static_cast<int>(i * interval_days);
    if (d > config.params.end) d = config.params.end;
    return d;
  }
};

/// The flags longitudinal and serve share: --seed, --rounds,
/// --interval-days, --start, --threads, --scale and the checkpoint and
/// archive flags. nullopt after a one-line refusal (the caller exits 2).
std::optional<Series> read_series(const Args& args, const char* command) {
  Series series;
  incremental::IncrementalConfig& config = series.config;
  std::uint64_t threads = 0;
  int checkpoint_every = 1;
  if (!read_u64(args, "seed", config.params.seed) ||
      !read_u64(args, "rounds", series.rounds) ||
      !read_u64(args, "interval-days", series.interval_days) ||
      !read_count(args, "threads", threads, 0, kMaxThreads) ||
      !read_checkpoint_every(args, checkpoint_every)) {
    return std::nullopt;
  }
  if (series.rounds == 0) {
    std::fprintf(stderr, "error: %s needs --rounds N with N >= 1\n",
                 command);
    return std::nullopt;
  }
  if (series.interval_days == 0) {
    std::fprintf(stderr, "error: --interval-days wants a day count >= 1, "
                         "got '0'\n");
    return std::nullopt;
  }
  const char* scale = args.get("scale", "paper");
  const bool small = std::strcmp(scale, "small") == 0;
  if (!small && std::strcmp(scale, "paper") != 0) {
    std::fprintf(stderr, "error: --scale wants small or paper, got '%s'\n",
                 scale);
    return std::nullopt;
  }
  config.rovista = round_config(threads);
  if (small) {
    // The tests' standard small world (tests/round_fixture.h) — fast
    // enough for CI series like the tier-1 kill/resume stage.
    config.params.topology.tier1_count = 4;
    config.params.topology.tier2_count = 14;
    config.params.topology.tier3_count = 36;
    config.params.topology.stub_count = 120;
    config.params.tnode_prefix_count = 4;
    config.params.measured_as_count = 12;
    config.params.hosts_per_measured_as = 3;
    config.params.collector_peer_count = 30;
    config.rovista.scoring.min_tnodes = 2;
  }
  series.start = config.params.start;
  if (!read_date(args, "start", series.start)) return std::nullopt;

  if (args.has("checkpoint-dir")) {
    config.checkpoint_dir = args.get("checkpoint-dir");
    config.checkpoint_every = checkpoint_every;
    // Series-shape guard: the engine digest covers the world and the
    // measurement config; this covers the CLI-level schedule, so a
    // checkpoint from a differently-paced series — longitudinal's or
    // serve's alike — is refused on resume.
    persist::ByteWriter tag;
    tag.i64(series.start.days_since_epoch());
    tag.u64(series.interval_days);
    tag.u8(small ? 1 : 0);
    config.checkpoint_user_tag = persist::fnv1a64(tag.data());
  } else if (args.has("resume") || args.has("checkpoint-every")) {
    std::fprintf(stderr,
                 "error: --resume/--checkpoint-every need --checkpoint-dir\n");
    return std::nullopt;
  }
  if (args.has("archive")) config.archive_dir = args.get("archive");
  for (const char* flag : {"checkpoint-dir", "archive"}) {
    if (args.has(flag) && *args.get(flag) == '\0') {
      std::fprintf(stderr, "error: --%s wants a directory\n", flag);
      return std::nullopt;
    }
  }
  return series;
}

int cmd_longitudinal(const Args& args) {
  std::optional<Series> series = read_series(args, "longitudinal");
  // Test hook for the tier-1 crash-safety stage: simulate a process
  // death (no destructors, no exit checkpoint) after N completed rounds.
  std::uint64_t die_after = 0;
  if (!series.has_value() || !read_u64(args, "die-after", die_after)) {
    return 2;
  }
  incremental::IncrementalConfig& config = series->config;
  // --slurm-fraction: the share of ROV deployers carrying RFC 8416
  // local exceptions; exercises the per-view delta-invalidation path of
  // apply_vrp_delta. Fault-injection knobs (faults/fault_schedule.h)
  // all default to 0; a knob-0 run splits no fault RNG stream and
  // produces bytes identical to a fault-free build.
  faults::FaultParams& faults = config.params.faults;
  if (!read_double(args, "slurm-fraction", config.params.slurm_fraction, 0.0,
                   1.0) ||
      !read_double(args, "rp-failure-rate", faults.rp_failure_rate, 0.0,
                   1.0) ||
      !read_double(args, "rp-divergence-fraction",
                   faults.rp_divergence_fraction, 0.0, 1.0) ||
      !read_double(args, "rtr-drop-rate", faults.rtr_drop_rate, 0.0, 1.0)) {
    return 2;
  }
  const bool faulted = faults.enabled();
  const std::uint64_t rounds = series->rounds;

  std::printf("running %llu rounds (seed %llu) ...\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(config.params.seed));
  incremental::IncrementalLongitudinalRunner runner(config);

  std::uint64_t first_round = 0;
  if (args.has("resume")) {
    if (runner.resume_from_checkpoint()) {
      first_round = runner.completed_rounds();
      std::printf("resumed from checkpoint: %llu round(s) already done\n",
                  static_cast<unsigned long long>(first_round));
    } else {
      std::printf("no usable checkpoint — starting from scratch\n");
    }
  }

  // The degradation columns appear only in faulted runs, so a knob-0
  // series CSV stays byte-identical to a pre-fault build's.
  std::string csv =
      "date,events,vrp_announced,vrp_withdrawn,dirty_prefixes,"
      "discovery_reused,dirty_rows,total_rows,executed_pairs,reused_pairs,"
      "ases_scored";
  if (faulted) {
    csv +=
        ",stale_ases,expired_ases,diverged_ases,max_staleness_days,"
        "error_reports";
  }
  csv += '\n';
  for (std::uint64_t i = first_round; i < rounds; ++i) {
    const incremental::RoundReport report = runner.run_round(series->date(i));
    std::printf(
        "%s  events=%zu vrp+%zu/-%zu dirty_prefixes=%zu rows %zu/%zu "
        "pairs %zu run / %zu cached  ases=%zu\n",
        report.date.to_string().c_str(), report.events, report.vrp_announced,
        report.vrp_withdrawn, report.dirty_prefix_count, report.dirty_rows,
        report.total_rows, report.executed_pairs, report.reused_pairs,
        report.round.scores.size());
    if (faulted) {
      std::printf(
          "            chain health: stale=%llu expired=%llu diverged=%llu "
          "max_staleness=%lldd error_reports=%llu\n",
          static_cast<unsigned long long>(report.health.stale_ases),
          static_cast<unsigned long long>(report.health.expired_ases),
          static_cast<unsigned long long>(report.health.diverged_ases),
          static_cast<long long>(report.health.max_staleness_days),
          static_cast<unsigned long long>(report.health.error_reports));
    }
    csv += report.date.to_string() + ',' + std::to_string(report.events) +
           ',' + std::to_string(report.vrp_announced) + ',' +
           std::to_string(report.vrp_withdrawn) + ',' +
           std::to_string(report.dirty_prefix_count) + ',' +
           (report.discovery_reused ? "1" : "0") + ',' +
           std::to_string(report.dirty_rows) + ',' +
           std::to_string(report.total_rows) + ',' +
           std::to_string(report.executed_pairs) + ',' +
           std::to_string(report.reused_pairs) + ',' +
           std::to_string(report.round.scores.size());
    if (faulted) {
      csv += ',' + std::to_string(report.health.stale_ases) + ',' +
             std::to_string(report.health.expired_ases) + ',' +
             std::to_string(report.health.diverged_ases) + ',' +
             std::to_string(report.health.max_staleness_days) + ',' +
             std::to_string(report.health.error_reports);
    }
    csv += '\n';
    if (die_after > 0 && runner.completed_rounds() >= die_after) {
      // Death, not exit: skip destructors so nothing gets flushed or
      // checkpointed beyond what run_round already persisted.
      std::_Exit(137);
    }
  }

  if (const char* out = args.get("out")) {
    std::ofstream f(out);
    f << csv;
    if (!f) {
      std::fprintf(stderr, "error: could not write %s\n", out);
      return 1;
    }
    std::printf("wrote round series to %s\n", out);
  } else {
    std::printf("%s", csv.c_str());
  }
  if (const char* publish = args.get("publish")) {
    const auto written = core::publish_scores(runner.store(), publish);
    if (!written.has_value()) {
      std::fprintf(stderr, "error: could not write %s\n", publish);
      return 1;
    }
    std::printf("published %zu snapshot(s) under %s\n", *written, publish);
  }
  return 0;
}

// `rovista analyze`: the paper's longitudinal queries, streamed off an
// RVLA archive (docs/FORMATS.md §5). Every answer is bit-identical to
// the in-memory LongitudinalStore fed the same rounds — the tier-1
// archive stage byte-diffs --publish output against `longitudinal
// --publish`, and tests/test_rvla.cpp oracle-gates the query CSVs.
int cmd_analyze(const Args& args) {
  // Scores are percentages, so every score threshold lies in [0, 100].
  double threshold = 100.0;
  double low = 0.0;
  double high = 100.0;
  std::uint64_t asn = 0;
  if (!read_double(args, "threshold", threshold, 0.0, 100.0) ||
      !read_double(args, "low", low, 0.0, 100.0) ||
      !read_double(args, "high", high, 0.0, 100.0) ||
      !read_u64(args, "asn", asn)) {
    return 2;
  }
  const char* dir = args.get("archive");
  if (dir == nullptr) return refuse_missing("analyze", "--archive");
  const char* query = args.get("query", "info");

  std::string error;
  std::string csv;
  if (std::strcmp(query, "info") == 0) {
    const auto info = analytics::archive_info(dir, &error);
    if (!info.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("archive %s\n", dir);
    std::printf("  frames:     %llu\n",
                static_cast<unsigned long long>(info->frames));
    std::printf("  data bytes: %llu\n",
                static_cast<unsigned long long>(info->data_bytes));
    std::printf("  ases:       %llu\n",
                static_cast<unsigned long long>(info->as_count));
    std::printf("  dates:      %llu%s\n",
                static_cast<unsigned long long>(info->date_count),
                info->any_health ? "  (with round health)" : "");
    if (info->first_date.has_value()) {
      std::printf("  range:      %s .. %s\n",
                  info->first_date->to_string().c_str(),
                  info->last_date->to_string().c_str());
    }
  } else if (std::strcmp(query, "latest-cdf") == 0) {
    const auto latest = analytics::latest_scores(dir, &error);
    if (!latest.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::latest_cdf_csv(*latest);
  } else if (std::strcmp(query, "fraction-trend") == 0) {
    const auto trend = analytics::fraction_trend(dir, threshold, &error);
    if (!trend.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::fraction_trend_csv(*trend, threshold);
  } else if (std::strcmp(query, "series") == 0) {
    if (!args.has("asn")) {
      std::fprintf(stderr, "error: --query series needs --asn N\n");
      return 2;
    }
    const auto series = analytics::as_series(
        dir, static_cast<core::Asn>(asn), &error);
    if (!series.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::series_csv(static_cast<core::Asn>(asn), *series);
  } else if (std::strcmp(query, "jumps") == 0) {
    const auto jumps = analytics::score_jumps(dir, low, high, &error);
    if (!jumps.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::jumps_csv(*jumps);
  } else if (std::strcmp(query, "churn") == 0) {
    const auto rows = analytics::churn(dir, &error);
    if (!rows.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::churn_csv(*rows);
  } else {
    std::fprintf(stderr, "error: unknown --query '%s'\n", query);
    return 2;
  }

  if (!csv.empty()) {
    if (const char* out = args.get("out")) {
      std::ofstream f(out);
      f << csv;
      if (!f) {
        std::fprintf(stderr, "error: could not write %s\n", out);
        return 1;
      }
      std::printf("wrote %s\n", out);
    } else {
      std::printf("%s", csv.c_str());
    }
  }

  if (const char* publish = args.get("publish")) {
    const auto written = analytics::publish_archive(dir, publish, &error);
    if (!written.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("published %zu snapshot(s) under %s\n", *written, publish);
  }
  return 0;
}

// The section table and decode verdict of one RVCP image; true iff it
// loads.
bool print_rvcp(std::span<const std::uint8_t> bytes) {
  const auto info = persist::inspect_checkpoint(bytes);
  if (!info.has_value()) {
    std::printf("  RVCP image of %zu bytes — too short for a header\n",
                bytes.size());
    return false;
  }
  std::printf("  magic            %s\n", info->magic_ok ? "RVCP" : "BAD");
  std::printf("  format version   %u%s\n", info->format_version,
              info->version_supported ? "" : " (unsupported)");
  std::printf("  sections         %u (table CRC %s)\n", info->section_count,
              info->table_crc_ok ? "ok" : "BAD");
  util::Table table(
      {"section", "id", "offset", "length", "crc stored", "crc actual", "ok"});
  for (const auto& s : info->sections) {
    char stored[16];
    char actual[16];
    std::snprintf(stored, sizeof stored, "%08x", s.stored_crc);
    std::snprintf(actual, sizeof actual, "%08x",
                  s.in_bounds ? s.computed_crc : 0);
    table.add_row({persist::section_name(s.id), std::to_string(s.id),
                   std::to_string(s.offset), std::to_string(s.length), stored,
                   s.in_bounds ? actual : "-",
                   !s.in_bounds ? "OUT OF BOUNDS"
                                : (s.crc_ok ? "ok" : "BAD")});
  }
  std::printf("%s", table.to_text().c_str());

  if (!info->decodes) {
    std::string error;
    persist::decode_checkpoint(bytes, &error);
    std::printf("  verdict: NOT loadable — %s\n", error.c_str());
    return false;
  }
  const auto state = persist::decode_checkpoint(bytes);
  std::size_t cached = 0;
  for (const auto& e : state->cache_entries) {
    if (e.has_value()) ++cached;
  }
  std::printf("  verdict: loadable\n");
  std::printf("  config digest    %016llx\n",
              static_cast<unsigned long long>(state->config_digest));
  std::printf("  series tag       %016llx\n",
              static_cast<unsigned long long>(state->user_tag));
  std::printf("  archive          %llu frame(s), %llu bytes committed, "
              "CRC %08x\n",
              static_cast<unsigned long long>(state->archive.frames),
              static_cast<unsigned long long>(state->archive.length),
              state->archive.crc);
  std::printf("  discovery        %zu vVPs, %zu tNodes\n",
              state->vvps.size(), state->tnodes.size());
  std::printf("  score cache      %zu x %zu matrix, %zu cached\n",
              state->cache_vvp_addrs.size(), state->cache_tnode_addrs.size(),
              cached);
  std::printf("  VRP snapshot     %zu VRPs\n", state->vrps.size());
  return true;
}

// One checkpoint file, slot image or unslotted image from an older
// build: its slot verdict, then the RVCP report of what it holds. True
// iff it loads.
bool print_checkpoint_file(const std::string& path) {
  const persist::SlotFile f = persist::read_slot(path);
  using Kind = persist::SlotFile::Kind;
  switch (f.kind) {
    case Kind::kAbsent:
      std::printf("%s: absent or empty\n", path.c_str());
      return false;
    case Kind::kValid:
      std::printf("%s: %zu bytes, slot seq %llu, slot CRC ok\n", path.c_str(),
                  f.bytes.size(), static_cast<unsigned long long>(f.seq));
      break;
    case Kind::kTorn:
      std::printf("%s: %zu bytes, slot image BAD — %s\n", path.c_str(),
                  f.bytes.size(), f.why.c_str());
      break;
    case Kind::kUnslotted:
      std::printf("%s: %zu bytes, unslotted image (older build)\n",
                  path.c_str(), f.bytes.size());
      break;
  }
  return print_rvcp(f.payload()) && f.kind != Kind::kTorn;
}

int cmd_checkpoint_inspect(const Args& args) {
  if (const char* file = args.get("file")) {
    return print_checkpoint_file(file) ? 0 : 1;
  }
  const char* dir = args.get("dir");
  if (dir == nullptr) {
    return refuse_missing("checkpoint inspect", "--dir or --file");
  }
  const persist::CheckpointPaths paths = persist::CheckpointPaths::in(dir);
  for (const std::string& slot : paths.slots()) print_checkpoint_file(slot);
  const auto loaded = persist::load_checkpoint_slot(dir);
  if (!loaded.has_value()) {
    std::printf("resume: nothing loadable in %s — a resume cold-starts\n",
                dir);
    return 1;
  }
  const persist::SlotChoice& from = loaded->second;
  const std::string which = from.slotted
                                ? "seq " + std::to_string(from.seq)
                                : std::string("unslotted image");
  std::printf("resume takes slot %d: %s (%s)\n", from.slot,
              paths.slots()[from.slot].c_str(), which.c_str());
  return 0;
}

int cmd_serve(const Args& args) {
  std::optional<Series> series = read_series(args, "serve");
  std::uint64_t port = 0;
  std::uint64_t workers = 2;
  std::uint64_t warn_depth = 0;
  if (!series.has_value() || !read_u64(args, "port", port) ||
      !read_count(args, "workers", workers, 1, kMaxThreads) ||
      !read_u64(args, "warn-depth", warn_depth)) {
    return 2;
  }
  if (port > 65535) {
    std::fprintf(stderr, "error: --port wants 0..65535, got '%s'\n",
                 args.get("port"));
    return 2;
  }
  const incremental::IncrementalConfig& config = series->config;

  // Block the shutdown signals before any thread exists, so workers and
  // the round thread inherit the mask and only sigwait below sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  incremental::IncrementalLongitudinalRunner runner(config);
  if (warn_depth > 0) {
    runner.publisher().set_live_epoch_warn_depth(
        static_cast<long>(warn_depth));
  }

  auto feed = std::make_shared<serve::ScoreFeed>();
  std::uint64_t first_round = 0;
  if (args.has("resume")) {
    if (runner.resume_from_checkpoint()) {
      first_round = runner.completed_rounds();
      // Warm start: serve restored scores and trajectories immediately,
      // off the archive the resume just cut back to the restored
      // rounds; reachability waits for the first live epoch.
      feed->seed_from_archive(runner.archive_dir());
      std::printf("resumed from checkpoint: %llu round(s) already done\n",
                  static_cast<unsigned long long>(first_round));
    } else {
      std::printf("no usable checkpoint — starting from scratch\n");
    }
  } else if (!config.archive_dir.empty()) {
    // Warm start off a previous run's RVLA archive: restored scores and
    // trajectories serve immediately; the first live round then begins
    // a fresh archive, as every cold start does.
    if (feed->seed_from_archive(config.archive_dir)) {
      std::printf("seeded feed from archive %s\n",
                  config.archive_dir.c_str());
    }
  }

  serve::ServerOptions server_options;
  server_options.port = static_cast<std::uint16_t>(port);
  server_options.workers = static_cast<int>(workers);
  serve::Server server(server_options, feed);
  if (!server.start()) {
    std::fprintf(stderr, "error: could not start server\n");
    return 1;
  }
  // The machine-readable contract: with --port 0 this is the only way
  // to learn the kernel-assigned port. Flushed, so a pipe reader sees
  // it before the first (slow) round completes.
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  std::atomic<bool> stop{false};
  std::atomic<int> rc{0};
  std::thread round_thread([&] {
    for (std::uint64_t i = first_round;
         i < series->rounds && !stop.load(std::memory_order_relaxed); ++i) {
      const incremental::RoundReport report =
          runner.run_round(series->date(i));
      feed->publish(report.date, report.round.scores,
                    runner.publisher().current());
      std::printf("ROUND %s ases=%zu live_epochs=%ld\n",
                  report.date.to_string().c_str(),
                  report.round.scores.size(),
                  runner.publisher().live_epochs());
      std::fflush(stdout);
    }
    if (const char* publish = args.get("publish")) {
      const auto written = core::publish_scores(runner.store(), publish);
      if (!written.has_value()) {
        std::fprintf(stderr, "error: could not write %s\n", publish);
        rc.store(1, std::memory_order_relaxed);
        return;
      }
      std::printf("PUBLISHED %s rounds=%zu\n", publish, *written);
      std::fflush(stdout);
    }
  });

  int sig = 0;
  sigwait(&sigs, &sig);
  stop.store(true, std::memory_order_relaxed);
  round_thread.join();
  server.stop();
  std::printf("SERVED connections=%llu frames=%llu batches=%llu\n",
              static_cast<unsigned long long>(
                  server.io().connections_accepted()),
              static_cast<unsigned long long>(server.io().frames_served()),
              static_cast<unsigned long long>(server.io().batches_served()));
  return rc.load(std::memory_order_relaxed);
}

int cmd_loadgen(const Args& args) {
  serve::LoadgenOptions options;
  std::uint64_t port = 0;
  std::uint64_t connections = static_cast<std::uint64_t>(options.connections);
  std::uint64_t threads = static_cast<std::uint64_t>(options.threads);
  std::uint64_t pipeline = static_cast<std::uint64_t>(options.pipeline);
  std::uint64_t reach_dst = options.reach_dst;
  std::uint64_t reach_port = options.reach_port;
  std::uint64_t timeout_ms = static_cast<std::uint64_t>(options.timeout_ms);
  if (!read_u64(args, "port", port) ||
      !read_u64(args, "requests", options.requests) ||
      !read_count(args, "connections", connections, 0, kMaxConnections) ||
      !read_count(args, "threads", threads, 0, kMaxThreads) ||
      !read_u64(args, "pipeline", pipeline) ||
      !read_u64(args, "reach-dst", reach_dst) ||
      !read_u64(args, "reach-port", reach_port) ||
      !read_u64(args, "seed", options.seed) ||
      !read_u64(args, "timeout-ms", timeout_ms) ||
      !read_double(args, "rate", options.rate, 0.0,
                   std::numeric_limits<double>::infinity()) ||
      !read_double(args, "traj-fraction", options.trajectory_fraction, 0.0,
                   1.0) ||
      !read_double(args, "reach-fraction", options.reach_fraction, 0.0, 1.0)) {
    return 2;
  }
  if (port == 0 || port > 65535) {
    return refuse_missing("loadgen", "--port in 1..65535");
  }
  if (options.reach_fraction > 0.0 && !args.has("reach-dst")) {
    std::fprintf(stderr,
                 "error: --reach-fraction above 0 needs --reach-dst\n");
    return 2;
  }
  options.port = static_cast<std::uint16_t>(port);
  options.host = args.get("host", "127.0.0.1");
  options.connections = static_cast<int>(connections);
  options.threads = static_cast<int>(threads);
  options.pipeline = static_cast<int>(pipeline);
  options.reach_dst = static_cast<std::uint32_t>(reach_dst);
  options.reach_port = static_cast<std::uint16_t>(reach_port);
  options.timeout_ms = static_cast<int>(timeout_ms);
  const char* record = args.get("record");
  options.record = record != nullptr;

  const serve::LoadgenResult result = serve::run_loadgen(options);

  std::printf(
      "sent=%llu received=%llu ok=%llu no_data=%llu unknown_as=%llu "
      "bad_request=%llu transport_errors=%llu\n",
      static_cast<unsigned long long>(result.sent),
      static_cast<unsigned long long>(result.received),
      static_cast<unsigned long long>(result.ok),
      static_cast<unsigned long long>(result.no_data),
      static_cast<unsigned long long>(result.unknown_as),
      static_cast<unsigned long long>(result.bad_request),
      static_cast<unsigned long long>(result.transport_errors));
  std::printf("qps=%.0f p50_ms=%.3f p99_ms=%.3f max_ms=%.3f wall_s=%.3f\n",
              result.qps, result.p50_ms, result.p99_ms, result.max_ms,
              result.wall_s);
  std::printf("feed sequences observed: %llu..%llu\n",
              static_cast<unsigned long long>(result.min_epoch_sequence),
              static_cast<unsigned long long>(result.max_epoch_sequence));

  if (record != nullptr) {
    if (!serve::write_record_csv(result.records, record)) {
      std::fprintf(stderr, "error: could not write %s\n", record);
      return 1;
    }
    std::printf("recorded %zu score response(s) to %s\n",
                result.records.size(), record);
  }
  if (const char* json = args.get("json")) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: could not write %s\n", json);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"sent\": %llu,\n"
                 "  \"received\": %llu,\n"
                 "  \"ok\": %llu,\n"
                 "  \"transport_errors\": %llu,\n"
                 "  \"qps\": %.1f,\n"
                 "  \"p50_ms\": %.4f,\n"
                 "  \"p99_ms\": %.4f,\n"
                 "  \"max_ms\": %.4f,\n"
                 "  \"wall_s\": %.4f\n"
                 "}\n",
                 static_cast<unsigned long long>(result.sent),
                 static_cast<unsigned long long>(result.received),
                 static_cast<unsigned long long>(result.ok),
                 static_cast<unsigned long long>(result.transport_errors),
                 result.qps, result.p50_ms, result.p99_ms, result.max_ms,
                 result.wall_s);
    std::fclose(f);
  }
  const bool clean = result.transport_errors == 0 &&
                     result.sent == options.requests &&
                     result.received == result.sent;
  return clean ? 0 : 1;
}

int cmd_feedcheck(const Args& args) {
  const char* record = args.get("record");
  const char* published = args.get("published");
  if (record == nullptr) return refuse_missing("feedcheck", "--record");
  if (published == nullptr) return refuse_missing("feedcheck", "--published");
  std::size_t checked = 0;
  std::string diag;
  if (!serve::verify_record_against_published(record, published, &checked,
                                              &diag)) {
    std::fprintf(stderr, "feedcheck FAILED: %s\n", diag.c_str());
    return 1;
  }
  std::printf("feedcheck ok: %zu recorded score(s) byte-identical to the "
              "published dataset\n",
              checked);
  return 0;
}

// Every subcommand with the flags it reads; parse_args refuses the rest.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const Command kCommands[] = {
    {"measure", cmd_measure,
     {"seed", "date", "out", "threads", "topology", "mrt"}},
    {"query", cmd_query, {"dir", "asn"}},
    {"audit", cmd_audit, {"seed", "asn", "date"}},
    {"longitudinal", cmd_longitudinal,
     {"seed", "rounds", "interval-days", "start", "threads", "out",
      "publish", "scale", "slurm-fraction",
      "rp-failure-rate", "rp-divergence-fraction", "rtr-drop-rate",
      "checkpoint-dir", "checkpoint-every", "resume", "archive",
      "die-after"}},
    {"analyze", cmd_analyze,
     {"archive", "query", "threshold", "asn", "low", "high", "out",
      "publish"}},
    {"checkpoint inspect", cmd_checkpoint_inspect, {"dir", "file"}},
    {"serve", cmd_serve,
     {"seed", "rounds", "interval-days", "start", "scale", "port", "workers",
      "threads", "publish", "warn-depth", "checkpoint-dir",
      "checkpoint-every", "resume", "archive"}},
    {"loadgen", cmd_loadgen,
     {"port", "host", "requests", "connections", "threads", "rate",
      "pipeline", "traj-fraction", "reach-fraction", "seed", "reach-dst",
      "reach-port", "timeout-ms", "record", "json"}},
    {"feedcheck", cmd_feedcheck, {"record", "published"}},
};

}  // namespace

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  // "checkpoint inspect" is the one two-word command.
  const bool two_words = argc > 2 && std::strcmp(argv[1], "checkpoint") == 0 &&
                         std::strcmp(argv[2], "inspect") == 0;
  const std::string name = two_words ? "checkpoint inspect" : argv[1];
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    const std::optional<Args> args =
        parse_args(argc, argv, two_words ? 3 : 2, command.name, command.flags);
    return args.has_value() ? command.run(*args) : 2;
  }
  return usage();
}

int main(int argc, char** argv) {
  // Bad input — an unreadable CAIDA file, a synthetic factor that
  // overflows the scenario address plan — surfaces as std::runtime_error
  // from the library; report it as a CLI error, not an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
