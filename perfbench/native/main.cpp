// perfbench_native — the compiled half of the benchmark (see README.md).
//
//   perfbench_native load --port P --world-seed W --seed S --records FILE
//       --unknown FILE --json FILE
//     Open-loop driver (load_driver.h) against a running `rovista
//     serve`. Prints READY once it knows the world's tNode hosts, starts
//     sending when stdin says "go", and stops when stdin says "stop" (or
//     closes), or at a safety limit. Writes SCORE answers for feedcheck,
//     UNKNOWN_AS answers, and a JSON summary.
//
//   perfbench_native trace --workload daily-series|serve-publishing
//       --world-seed W --seed S --rounds N --threads T --work-dir DIR
//       --trace-out FILE
//     The traced in-process pipeline (traced.h). Prints one JSON object
//     with the per-layer metrics; exits 1 if a gate failed.
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "load_driver.h"
#include "small_world.h"
#include "traced.h"

namespace {

using namespace perfbench;

// The driver's own stop, a safety limit only: run.py stops the load
// once 95% of the rounds have published, well before this.
constexpr double kLoadSafetySeconds = 150.0;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

// Required flags throw out of std::stod/stoull on bad input, which main
// reports as a usage error.
std::string flag(const std::map<std::string, std::string>& flags,
                 const std::string& name, const char* fallback = nullptr) {
  const auto it = flags.find(name);
  if (it != flags.end()) return it->second;
  if (fallback == nullptr) throw std::invalid_argument("missing --" + name);
  return fallback;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void print_json_number(const char* key, double value, bool last = false) {
  std::printf("\"%s\":%.17g%s", key, value, last ? "" : ",");
}

// Watches stdin: "go" releases the start gate, "stop" or EOF the stop
// flag.
void watch_stdin(std::atomic<bool>& go, std::atomic<bool>& stop,
                 const std::atomic<bool>& done) {
  std::string pending;
  while (!done.load() && !stop.load()) {
    pollfd p{0, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(0, buf, sizeof buf);
    if (n <= 0) {
      go.store(true);
      stop.store(true);
      return;
    }
    pending.append(buf, static_cast<std::size_t>(n));
    if (pending.find("go") != std::string::npos) go.store(true);
    if (pending.find("stop") != std::string::npos) {
      go.store(true);
      stop.store(true);
    }
  }
}

int cmd_load(const std::map<std::string, std::string>& flags) {
  LoadOptions options;
  options.port = static_cast<std::uint16_t>(std::stoul(flag(flags, "port")));
  options.max_seconds = kLoadSafetySeconds;
  const std::uint64_t world_seed = std::stoull(flag(flags, "world-seed"));
  options.seed = std::stoull(flag(flags, "seed"));
  const std::string records = flag(flags, "records");
  const std::string unknown = flag(flags, "unknown");
  const std::string json = flag(flags, "json");

  std::vector<ReachTarget> reach;
  {
    const rovista::scenario::Scenario world(small_params(world_seed));
    reach = tnode_hosts(world);
  }
  std::printf("READY\n");
  std::fflush(stdout);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  std::thread watcher(watch_stdin, std::ref(go), std::ref(stop),
                      std::cref(done));
  while (!go.load()) ::usleep(1000);
  LoadResult result;
  const auto asns = fetch_asns(options.host, options.port, 30.0);
  if (asns.has_value()) {
    result = run_open_loop(options, *asns, reach, stop);
  } else {
    result.transport_errors = 1;
  }
  done.store(true);
  watcher.join();

  if (!write_score_records(result, records) ||
      !write_unknown_records(result, unknown)) {
    std::fprintf(stderr, "error: could not write the answer records\n");
    return 1;
  }
  std::FILE* f = std::fopen(json.c_str(), "w");
  if (f == nullptr) return 1;
  const std::vector<double> all = result.all_latencies_ms();
  std::fprintf(f,
               "{\"sent\":%llu,\"received\":%llu,\"unexpected\":%llu,"
               "\"transport_errors\":%llu,\"seconds\":%.6f,"
               "\"min_sequence\":%llu,\"max_sequence\":%llu,"
               "\"score_sent\":%llu,\"score_ok\":%llu,\"enough_scores\":%s,"
               "\"score_records\":%zu,\"unknown_records\":%zu,"
               "\"p50_ms\":%.6f,\"mean_ms\":%.6f,\"p99_ms\":%.6f,"
               "\"late_ms_p99\":%.6f",
               static_cast<unsigned long long>(result.sent),
               static_cast<unsigned long long>(result.received),
               static_cast<unsigned long long>(result.unexpected),
               static_cast<unsigned long long>(result.transport_errors),
               result.seconds,
               static_cast<unsigned long long>(result.min_sequence),
               static_cast<unsigned long long>(result.max_sequence),
               static_cast<unsigned long long>(result.score_sent),
               static_cast<unsigned long long>(result.score_ok),
               result.enough_scores() ? "true" : "false",
               result.scores.size(), result.unknown.size(),
               percentile(all, 0.5), mean(all), percentile(all, 0.99),
               percentile(result.late_ms, 0.99));
  for (int op = 0; op < kOpCount; ++op) {
    std::fprintf(f, ",\"%s_ms_p99\":%.6f", op_name(op),
                 percentile(result.latency_ms[static_cast<std::size_t>(op)],
                            0.99));
  }
  std::fputs("}\n", f);
  return std::fclose(f) == 0 ? 0 : 1;
}

int cmd_trace(const std::map<std::string, std::string>& flags) {
  TracedOptions options;
  const std::string workload = flag(flags, "workload");
  if (workload != "daily-series" && workload != "serve-publishing") {
    throw std::invalid_argument("unknown --workload " + workload);
  }
  options.load_while_publishing = workload == "serve-publishing";
  options.world_seed = std::stoull(flag(flags, "world-seed"));
  options.load_seed = std::stoull(flag(flags, "seed"));
  options.rounds = std::stoi(flag(flags, "rounds"));
  options.threads = std::stoi(flag(flags, "threads"));
  options.work_dir = flag(flags, "work-dir");
  options.trace_path = flag(flags, "trace-out");

  const TracedResult r = run_traced(options);
  std::printf("{\"ok\":%s,", r.ok ? "true" : "false");
  if (!r.ok) {
    std::string escaped;
    for (const char c : r.error) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    std::printf("\"error\":\"%s\",", escaped.c_str());
  }
  print_json_number("attempted", static_cast<double>(r.attempted));
  print_json_number("failed", static_cast<double>(r.failed));
  std::printf("\"metrics\":{");
  std::size_t i = 0;
  for (const auto& [name, value] : r.metrics) {
    print_json_number(name.c_str(), value, ++i == r.metrics.size());
  }
  std::printf("}}\n");
  return r.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_native load|trace [--flag value]...\n");
    return 2;
  }
  try {
    const auto flags = parse_flags(argc, argv);
    if (std::strcmp(argv[1], "load") == 0) return cmd_load(flags);
    if (std::strcmp(argv[1], "trace") == 0) return cmd_trace(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  std::fprintf(stderr, "usage: perfbench_native load|trace [--flag value]...\n");
  return 2;
}
