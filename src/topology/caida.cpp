#include "topology/caida.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace rovista::topology {

namespace {

// Stateless splitmix64 finalizer: the label synthesizer must be a pure
// function of the ASN so two loads of the same file (or of a superset)
// agree on every shared AS.
std::uint64_t hash64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Region {
  Rir rir;
  const char* countries[4];
};

// Same coarse pools as the synthetic generator: plausible diversity, not
// geographic fidelity.
constexpr Region kRegions[] = {
    {Rir::kApnic, {"JP", "AU", "IN", "KR"}},
    {Rir::kRipeNcc, {"NL", "DE", "FR", "GB"}},
    {Rir::kArin, {"US", "CA", "US", "US"}},
    {Rir::kAfrinic, {"ZA", "KE", "NG", "EG"}},
    {Rir::kLacnic, {"BR", "AR", "CL", "MX"}},
};

// Strict decimal ASN: 1..2^32-1, no sign, no leading zeros (FORMATS.md
// §4.1 — "0" and "007" are malformed, CAIDA never emits either).
bool parse_asn(std::string_view s, Asn& out) {
  if (s.empty() || s.size() > 10) return false;
  if (s[0] == '0') return false;  // forbids 0 itself and leading zeros
  std::uint64_t value = 0;
  if (!util::parse_u64(s, value)) return false;
  if (value > 0xffffffffULL) return false;
  out = static_cast<Asn>(value);
  return true;
}

// One accepted relationship record, pre-graph.
struct Record {
  Asn a = 0;
  Asn b = 0;
  int rel = 0;  // -1 = a provider of b, 0 = p2p
};

std::string line_error(std::size_t line_no, const char* what) {
  return util::format("line %zu: %s", line_no, what);
}

struct DegreeCount {
  std::size_t providers = 0;
  std::size_t customers = 0;
};

// Deterministic tier from edge shape, mirroring the generator's
// conventions (1 = transit-free, 2 = large transit, 3 = regional transit,
// 4 = stub) so tier-driven scenario code treats loaded and generated
// worlds alike.
int synthesize_tier(const DegreeCount& d) {
  if (d.providers == 0 && d.customers > 0) return 1;
  if (d.customers >= 5) return 2;
  if (d.customers >= 1) return 3;
  return 4;
}

AsInfo synthesize_info(Asn asn, int tier) {
  const std::uint64_t h = hash64(asn);
  const Region& region = kRegions[h % std::size(kRegions)];
  AsInfo info;
  info.asn = asn;
  info.name = util::format("AS%u", asn);
  info.rir = region.rir;
  info.country = region.countries[(h >> 8) % 4];
  info.tier = tier;
  return info;
}

}  // namespace

CaidaResult load_caida_text(std::string_view text) {
  CaidaResult result;

  std::vector<Record> records;
  // First-appearance order; doubles as the duplicate-pair index. The
  // unordered key packs min(a,b) in the high word.
  std::vector<Asn> order;
  std::unordered_map<Asn, DegreeCount> degrees;
  std::unordered_map<std::uint64_t, bool> seen_pairs;

  auto note_asn = [&](Asn asn) {
    if (degrees.emplace(asn, DegreeCount{}).second) order.push_back(asn);
  };

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos
                                                      : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    if (line.empty() && pos > text.size()) break;  // no final empty record
    ++line_no;
    ++result.stats.total_lines;

    if (line.empty()) continue;
    if (line[0] == '#') {
      ++result.stats.comment_lines;
      continue;
    }
    for (const char c : line) {
      if (c < 0x20 || c == 0x7f) {
        result.error = line_error(line_no, "control character in record");
        return result;
      }
    }

    const auto fields = util::split(line, '|');
    if (fields.size() != 3 && fields.size() != 4) {
      result.error = line_error(line_no, "expected 3 or 4 '|' fields");
      return result;
    }
    Record rec;
    if (!parse_asn(fields[0], rec.a)) {
      result.error = line_error(line_no, "malformed first ASN");
      return result;
    }
    if (!parse_asn(fields[1], rec.b)) {
      result.error = line_error(line_no, "malformed second ASN");
      return result;
    }
    if (fields[2] == "-1") {
      rec.rel = -1;
    } else if (fields[2] == "0") {
      rec.rel = 0;
    } else {
      result.error = line_error(line_no, "relationship must be -1 or 0");
      return result;
    }
    if (fields.size() == 4 && fields[3].empty()) {
      result.error = line_error(line_no, "empty source field");
      return result;
    }
    if (rec.a == rec.b) {
      result.error = line_error(line_no, "self edge");
      return result;
    }
    const Asn lo = std::min(rec.a, rec.b);
    const Asn hi = std::max(rec.a, rec.b);
    const std::uint64_t pair = (static_cast<std::uint64_t>(lo) << 32) | hi;
    if (!seen_pairs.emplace(pair, true).second) {
      result.error = line_error(line_no, "duplicate edge for AS pair");
      return result;
    }

    note_asn(rec.a);
    note_asn(rec.b);
    if (rec.rel == -1) {
      ++degrees[rec.a].customers;
      ++degrees[rec.b].providers;
      ++result.stats.p2c_edges;
    } else {
      ++result.stats.p2p_edges;
    }
    records.push_back(rec);
  }

  if (records.empty()) {
    result.error = "no relationship records";
    return result;
  }

  AsGraph graph;
  for (const Asn asn : order) {
    graph.add_as(synthesize_info(asn, synthesize_tier(degrees[asn])));
  }
  for (const Record& rec : records) {
    // Duplicate pairs were rejected above, so these cannot fail.
    if (rec.rel == -1) {
      graph.add_p2c(rec.a, rec.b);
    } else {
      graph.add_p2p(rec.a, rec.b);
    }
  }
  if (const std::vector<Asn> cycle = find_customer_cycle(graph);
      !cycle.empty()) {
    result.error = describe_customer_cycle(cycle);
    return result;
  }
  result.graph = std::move(graph);
  result.stats.as_count = result.graph.size();
  result.ok = true;
  return result;
}

CaidaResult load_caida_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    CaidaResult result;
    result.error = util::format("cannot open %s", path.c_str());
    return result;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    CaidaResult result;
    result.error = util::format("read error on %s", path.c_str());
    return result;
  }
  return load_caida_text(text);
}

std::string write_caida_text(const AsGraph& graph) {
  std::vector<std::pair<Asn, Asn>> p2c;
  std::vector<std::pair<Asn, Asn>> p2p;
  for (const Asn asn : graph.all_asns()) {
    for (const Asn customer : graph.customers(asn)) {
      p2c.emplace_back(asn, customer);
    }
    for (const Asn peer : graph.peers(asn)) {
      if (asn < peer) p2p.emplace_back(asn, peer);
    }
  }
  std::sort(p2c.begin(), p2c.end());
  std::sort(p2p.begin(), p2p.end());

  std::string out;
  out.reserve((p2c.size() + p2p.size()) * 24);
  for (const auto& [provider, customer] : p2c) {
    out += util::format("%u|%u|-1\n", provider, customer);
  }
  for (const auto& [a, b] : p2p) {
    out += util::format("%u|%u|0\n", a, b);
  }
  return out;
}

}  // namespace rovista::topology
