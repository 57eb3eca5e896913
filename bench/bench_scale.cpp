// bench_scale — the Internet-scale routing substrate under load.
//
// Builds a >= 50k-AS world, round-trips it through the CAIDA serial-2
// writer/loader (topology/caida.h), announces >= 100k prefixes, and
// runs one full measurement-shaped round on the rank-flattened engine
// (bgp/flat_propagation.h): the demanded prefix subset propagates to
// convergence at 1, 4 and 8 threads over per-thread route arenas, and
// the batched LPM resolves a large address batch against the full
// announced table. Records in BENCH_scale.json (docs/FORMATS.md §4.3):
//
//   * routes/sec and full-round wall time per thread count, with the
//     order-independent digest checked identical across counts (the
//     thread-count-independence contract of DESIGN.md),
//   * bytes/route: one arena's footprint over its mean live routes,
//   * batched-LPM throughput, oracle-checked against the PrefixTrie
//     on a query sample,
//   * a spot check: several demanded prefixes recomputed by the
//     Adj-RIB-In fixed point the tests use as the oracle
//     (tests/propagation_oracle.h) and compared route-for-route — a
//     reported speed can never come from different answers,
//   * the host block (bench::host_json): CPUs, compiler, build type and
//     git revision, since the 4- and 8-thread rows only scale on a host
//     with that many CPUs.
//
// --smoke shrinks the world for the tier-1 stage; the checks all still
// run. --out overrides the JSON path.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "bgp/flat_propagation.h"
#include "bgp/routing_system.h"
#include "net/batched_lpm.h"
#include "net/prefix_trie.h"
#include "propagation_oracle.h"
#include "rpki/validation.h"
#include "topology/caida.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace {

using namespace rovista;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// splitmix64 finalizer: the bench's only randomness, keyed on stable
// quantities (ASN, prefix index) so every run measures identical work.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t read_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, std::strlen(key)) == 0) {
      std::sscanf(line + std::strlen(key), "%zu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct Shape {
  topology::TopologyParams topology;
  std::size_t prefix_count = 0;
  std::size_t demanded_count = 0;
  std::size_t lpm_queries = 0;
  double wall_ceiling_s = 0.0;  // 8-thread full-round target
};

Shape full_shape() {
  Shape s;
  s.topology.tier1_count = 12;
  s.topology.tier2_count = 400;
  s.topology.tier3_count = 4000;
  s.topology.stub_count = 46000;  // 50,412 ASes total
  // Hold per-AS peer degree at the standard world's level instead of
  // letting O(n^2) peering swamp the edge count (same convention as
  // rovista measure --topology synthetic:FACTOR).
  s.topology.tier2_peer_prob = 0.25 * 120.0 / 400.0;
  s.topology.tier3_peer_prob = 0.03 * 600.0 / 4000.0;
  s.prefix_count = 102400;
  s.demanded_count = 512;
  s.lpm_queries = 262144;
  s.wall_ceiling_s = 20.0;
  return s;
}

Shape smoke_shape() {
  Shape s;
  s.topology.tier1_count = 6;
  s.topology.tier2_count = 40;
  s.topology.tier3_count = 400;
  s.topology.stub_count = 4600;  // 5,046 ASes
  s.topology.tier2_peer_prob = 0.25;
  s.topology.tier3_peer_prob = 0.03;
  s.prefix_count = 10240;
  s.demanded_count = 64;
  s.lpm_queries = 32768;
  s.wall_ceiling_s = 20.0;
  return s;
}

// Deterministic ROV assignment by ASN hash: ~12% full, ~3% exempt-
// customers, ~1.5% prefer-valid — roughly the measured deployment mix.
bgp::RovMode rov_mode_of(topology::Asn asn) {
  const std::uint64_t h = mix64(asn) % 1000;
  if (h < 120) return bgp::RovMode::kFull;
  if (h < 150) return bgp::RovMode::kExemptCustomers;
  if (h < 165) return bgp::RovMode::kPreferValid;
  return bgp::RovMode::kNone;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const Shape shape = smoke ? smoke_shape() : full_shape();

  // -- World: generate, then round-trip through the CAIDA form --------
  std::printf("generating %s world ...\n", smoke ? "smoke" : "full");
  util::Rng rng(4242);
  const topology::AsGraph generated =
      topology::generate_topology(shape.topology, rng);
  const std::string caida_text = topology::write_caida_text(generated);

  const auto load_start = Clock::now();
  topology::CaidaResult loaded = topology::load_caida_text(caida_text);
  const double load_s = seconds_since(load_start);
  if (!loaded.ok) {
    std::fprintf(stderr, "FATAL: loader rejected its own canonical form: %s\n",
                 loaded.error.c_str());
    return 1;
  }
  const topology::AsGraph& graph = loaded.graph;
  const std::size_t n = graph.size();
  std::printf("world: %zu ASes, %zu p2c + %zu p2p edges, %zu CAIDA bytes "
              "(loaded in %.3fs)\n",
              n, loaded.stats.p2c_edges, loaded.stats.p2p_edges,
              caida_text.size(), load_s);

  const auto compile_start = Clock::now();
  // The loader refuses customer-provider cycles, so this compiles.
  bgp::flat::FlatGraph fg = bgp::flat::FlatGraph::build(graph);
  const double compile_s = seconds_since(compile_start);

  bgp::flat::FlatPolicy fp;
  fp.rov_mode.resize(n);
  fp.coverage.assign(n, 1.0);
  fp.validity_group.assign(n, 0);
  fp.group_rep.assign(1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    fp.rov_mode[i] = static_cast<std::uint8_t>(rov_mode_of(fg.asn_of[i]));
  }

  // -- Announcements: P disjoint /20s, origin striped over the ASes;
  // every second prefix is VRP-covered, half of those with the wrong
  // origin (Invalid), the rest uncovered (Unknown) -------------------
  const std::size_t P = shape.prefix_count;
  std::vector<net::Ipv4Prefix> announced;
  std::vector<std::uint32_t> origin_of(P);
  announced.reserve(P);
  std::vector<rpki::Vrp> vrp_list;
  for (std::size_t p = 0; p < P; ++p) {
    const net::Ipv4Prefix prefix(
        net::Ipv4Address(static_cast<std::uint32_t>(p) << 12), 20);
    announced.push_back(prefix);
    origin_of[p] = static_cast<std::uint32_t>(mix64(p ^ 0xfeedULL) % n);
    if (p % 2 == 0) {
      const topology::Asn roa_asn = (p % 4 == 0)
                                        ? fg.asn_of[origin_of[p]]
                                        : fg.asn_of[(origin_of[p] + 1) % n];
      vrp_list.push_back({prefix, 20, roa_asn});
    }
  }
  const rpki::VrpSet vrps(vrp_list);

  const auto validity_of = [&](std::size_t p) {
    return vrps.validate(announced[p], fg.asn_of[origin_of[p]]);
  };

  // Demanded subset: the prefixes this round actually resolves routes
  // for (tNode / dirty prefixes in a real round), stride-sampled.
  std::vector<std::size_t> demanded;
  for (std::size_t d = 0; d < shape.demanded_count; ++d) {
    demanded.push_back(d * (P / shape.demanded_count));
  }

  const auto input_for = [&](std::size_t p) {
    bgp::flat::PrefixInput in;
    in.graph = &fg;
    in.policy = &fp;
    in.prefix = announced[p];
    in.origin_idx = {origin_of[p]};
    in.validity = {validity_of(p)};
    return in;
  };

  // -- Propagation at 1/4/8 threads -----------------------------------
  struct ThreadRun {
    int threads = 0;
    double wall_s = 0.0;
    std::uint64_t routes = 0;
    std::uint64_t digest = 0;
    std::uint64_t refusals = 0;
  };
  std::vector<ThreadRun> runs;
  std::size_t arena_bytes = 0;
  for (const int nthreads : {1, 4, 8}) {
    ThreadRun run;
    run.threads = nthreads;
    std::vector<std::uint64_t> routes(nthreads, 0);
    std::vector<std::uint64_t> digests(nthreads, 0);
    std::vector<std::uint64_t> refusals(nthreads, 0);
    std::vector<std::size_t> arena(nthreads, 0);
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < nthreads; ++t) {
      pool.emplace_back([&, t] {
        bgp::flat::FlatRouteTable table;
        for (std::size_t d = t; d < demanded.size();
             d += static_cast<std::size_t>(nthreads)) {
          const std::size_t p = demanded[d];
          const bgp::flat::PrefixInput in = input_for(p);
          table.prepare(n);
          if (!bgp::flat::propagate(in, table)) {
            ++refusals[t];
            continue;
          }
          for (std::uint32_t i = 0; i < n; ++i) {
            if (table.has(i, bgp::flat::FlatRouteTable::kBest)) ++routes[t];
          }
          // Order-independent combine: any partition of the demanded
          // set over any thread count must land on the same value.
          digests[t] ^= mix64(p ^ table.digest());
        }
        arena[t] = table.bytes();
      });
    }
    for (auto& th : pool) th.join();
    run.wall_s = seconds_since(start);
    for (int t = 0; t < nthreads; ++t) {
      run.routes += routes[t];
      run.digest ^= digests[t];
      run.refusals += refusals[t];
      if (arena[t] > arena_bytes) arena_bytes = arena[t];
    }
    runs.push_back(run);
    std::printf("threads=%d wall=%.3fs routes=%llu (%.0f routes/s) "
                "refusals=%llu digest=%016llx\n",
                nthreads, run.wall_s,
                static_cast<unsigned long long>(run.routes),
                static_cast<double>(run.routes) / run.wall_s,
                static_cast<unsigned long long>(run.refusals),
                static_cast<unsigned long long>(run.digest));
  }
  const bool digests_consistent = runs[0].digest == runs[1].digest &&
                                  runs[1].digest == runs[2].digest &&
                                  runs[0].routes == runs[2].routes;
  const double mean_routes_per_prefix =
      static_cast<double>(runs[0].routes) /
      static_cast<double>(demanded.size());
  const double bytes_per_route =
      mean_routes_per_prefix > 0.0
          ? static_cast<double>(arena_bytes) / mean_routes_per_prefix
          : 0.0;

  // -- Spot check against the Adj-RIB-In fixed point ------------------
  const std::size_t spot_count = smoke ? 3 : 5;
  bool spot_ok = true;
  {
    bgp::RoutingSystem rs(graph);
    for (std::uint32_t i = 0; i < n; ++i) {
      const bgp::RovMode mode = rov_mode_of(fg.asn_of[i]);
      if (mode == bgp::RovMode::kNone) continue;
      bgp::AsPolicy policy;
      policy.rov = mode;
      rs.set_policy(fg.asn_of[i], policy);
    }
    rs.set_vrps(vrps);
    bgp::flat::FlatRouteTable table;
    for (std::size_t s = 0; s < spot_count && spot_ok; ++s) {
      const std::size_t p = demanded[s * (demanded.size() / spot_count)];
      rs.announce({announced[p], fg.asn_of[origin_of[p]]});
      const bgp::RouteMap exact =
          test::fixed_point_routes(rs, announced[p]);
      table.prepare(n);
      if (!bgp::flat::propagate(input_for(p), table)) {
        spot_ok = false;
        break;
      }
      std::size_t live = 0;
      for (std::uint32_t i = 0; i < n && spot_ok; ++i) {
        if (!table.has(i, bgp::flat::FlatRouteTable::kBest)) continue;
        ++live;
        const auto it = exact.find(fg.asn_of[i]);
        if (it == exact.end()) {
          spot_ok = false;
          break;
        }
        constexpr int kBest = bgp::flat::FlatRouteTable::kBest;
        const std::uint32_t nh = table.next_hop[kBest][i];
        const bgp::RouteEntry& e = it->second;
        const topology::NeighborKind cls =
            table.best_cls[i] == bgp::flat::FlatRouteTable::kCust
                ? topology::NeighborKind::kCustomer
                : table.best_cls[i] == bgp::flat::FlatRouteTable::kPeer
                      ? topology::NeighborKind::kPeer
                      : topology::NeighborKind::kProvider;
        if (e.next_hop !=
                (nh == bgp::flat::kNoIdx ? 0 : fg.asn_of[nh]) ||
            e.origin != fg.asn_of[origin_of[p]] ||
            e.learned_from != cls ||
            static_cast<std::uint8_t>(e.validity) !=
                table.validity[kBest][i] ||
            e.path_len != table.path_len[kBest][i]) {
          spot_ok = false;
        }
      }
      if (live != exact.size()) spot_ok = false;
    }
  }
  std::printf("spot check vs fixed-point oracle: %s\n",
              spot_ok ? "ok" : "MISMATCH");

  // -- Batched LPM over the full announced table ----------------------
  // The table also carries a nested /24 inside every 8th /20, so the
  // ancestor-chain path is actually exercised.
  std::vector<net::Ipv4Prefix> lpm_table = announced;
  for (std::size_t p = 0; p < P; p += 8) {
    lpm_table.push_back(net::Ipv4Prefix(
        net::Ipv4Address((static_cast<std::uint32_t>(p) << 12) | 0x300u),
        24));
  }
  const net::BatchedLpm lpm(lpm_table);
  std::vector<net::Ipv4Address> queries;
  queries.reserve(shape.lpm_queries);
  for (std::size_t q = 0; q < shape.lpm_queries; ++q) {
    queries.push_back(net::Ipv4Address(
        static_cast<std::uint32_t>(mix64(q ^ 0x10b4ULL))));
  }
  const auto lpm_start = Clock::now();
  const std::vector<std::int32_t> lpm_hits = lpm.lookup_batch(queries);
  const double lpm_s = seconds_since(lpm_start);

  net::PrefixTrie<std::uint8_t> trie;
  for (const auto& prefix : lpm.prefixes()) trie.insert(prefix, 1);
  bool lpm_ok = true;
  std::size_t matched = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (lpm_hits[q] >= 0) ++matched;
    if (q % 64 != 0) continue;  // oracle sample
    const auto oracle = trie.longest_match(queries[q]);
    const bool hit = lpm_hits[q] >= 0;
    if (hit != oracle.has_value() ||
        (hit && lpm.prefixes()[static_cast<std::size_t>(lpm_hits[q])] !=
                    oracle->first)) {
      lpm_ok = false;
    }
  }
  std::printf("lpm: %zu prefixes, %zu queries (%zu matched) in %.3fs "
              "(%.0f q/s), oracle %s\n",
              lpm.size(), queries.size(), matched, lpm_s,
              static_cast<double>(queries.size()) / lpm_s,
              lpm_ok ? "ok" : "MISMATCH");

  // -- Report ----------------------------------------------------------
  const ThreadRun& r8 = runs[2];
  const bool scale_ok = !smoke ? (n >= 50000 && P >= 100000) : true;
  const bool wall_met = r8.wall_s <= shape.wall_ceiling_s;
  const bool ok = digests_consistent && spot_ok && lpm_ok && scale_ok &&
                  runs[0].refusals == 0 && wall_met;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host\": %s,\n", bench::host_json().c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"world\": {\"as_count\": %zu, \"p2c_edges\": %zu, "
               "\"p2p_edges\": %zu, \"caida_bytes\": %zu, "
               "\"load_s\": %.4f, \"flat_compile_s\": %.4f},\n",
               n, loaded.stats.p2c_edges, loaded.stats.p2p_edges,
               caida_text.size(), load_s, compile_s);
  std::fprintf(f,
               "  \"prefixes\": {\"announced\": %zu, \"demanded\": %zu, "
               "\"lpm_table\": %zu},\n",
               P, demanded.size(), lpm.size());
  std::fprintf(f, "  \"propagation\": {\n    \"rounds\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(f,
                 "      {\"threads\": %d, \"wall_s\": %.4f, "
                 "\"routes\": %llu, \"routes_per_sec\": %.0f}%s\n",
                 runs[i].threads, runs[i].wall_s,
                 static_cast<unsigned long long>(runs[i].routes),
                 static_cast<double>(runs[i].routes) / runs[i].wall_s,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n    \"digests_thread_invariant\": %s,\n"
               "    \"refusals\": %llu,\n"
               "    \"arena_bytes\": %zu,\n"
               "    \"bytes_per_route\": %.2f\n  },\n",
               digests_consistent ? "true" : "false",
               static_cast<unsigned long long>(runs[0].refusals),
               arena_bytes, bytes_per_route);
  std::fprintf(f,
               "  \"lpm\": {\"queries\": %zu, \"matched\": %zu, "
               "\"wall_s\": %.4f, \"queries_per_sec\": %.0f, "
               "\"oracle_ok\": %s},\n",
               queries.size(), matched, lpm_s,
               static_cast<double>(queries.size()) / lpm_s,
               lpm_ok ? "true" : "false");
  std::fprintf(f, "  \"spot_check\": {\"prefixes\": %zu, \"ok\": %s},\n",
               spot_count, spot_ok ? "true" : "false");
  std::fprintf(f,
               "  \"targets\": {\"full_round_wall_s\": {\"target\": %.1f, "
               "\"actual\": %.4f, \"met\": %s}},\n",
               shape.wall_ceiling_s, r8.wall_s, wall_met ? "true" : "false");
  std::fprintf(f, "  \"peak_rss_kb\": %zu,\n", read_status_kb("VmHWM:"));
  std::fprintf(f, "  \"ok\": %s\n}\n", ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s (ok=%s)\n", out_path, ok ? "true" : "false");
  return ok ? 0 : 1;
}
