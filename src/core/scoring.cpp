#include "core/scoring.h"

#include <algorithm>
#include <tuple>

namespace rovista::core {

namespace {

struct TnodeTally {
  int outbound = 0;
  int no_filtering = 0;
  int inbound = 0;

  int usable() const noexcept { return outbound + no_filtering; }
  bool unanimous() const noexcept {
    int kinds = 0;
    if (outbound > 0) ++kinds;
    if (no_filtering > 0) ++kinds;
    if (inbound > 0) ++kinds;
    return kinds <= 1;
  }
  void add(FilteringVerdict verdict) noexcept {
    if (verdict == FilteringVerdict::kOutboundFiltering) ++outbound;
    if (verdict == FilteringVerdict::kNoFiltering) ++no_filtering;
    if (verdict == FilteringVerdict::kInboundFiltering) ++inbound;
  }
};

// One conclusive observation, ordered by (AS, tNode, vVP).
struct Verdict {
  Asn asn;
  std::uint32_t tnode;
  std::uint32_t vvp;
  FilteringVerdict verdict;

  bool operator<(const Verdict& o) const noexcept {
    return std::tie(asn, tnode, vvp) < std::tie(o.asn, o.tnode, o.vvp);
  }
};

std::vector<Verdict> sorted_verdicts(std::span<const PairObservation> obs) {
  std::vector<Verdict> out;
  out.reserve(obs.size());
  for (const PairObservation& o : obs) {
    if (o.verdict == FilteringVerdict::kInconclusive) continue;
    out.push_back({o.vvp_as, o.tnode.value(), o.vvp.value(), o.verdict});
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Calls f(tally) for each (AS, tNode) in ascending order; `v` must be
// sorted.
template <typename F>
void for_each_tally(std::span<const Verdict> v, F&& f) {
  for (std::size_t i = 0; i < v.size();) {
    TnodeTally tally;
    std::size_t j = i;
    for (; j < v.size() && v[j].asn == v[i].asn && v[j].tnode == v[i].tnode;
         ++j) {
      tally.add(v[j].verdict);
    }
    f(tally);
    i = j;
  }
}

}  // namespace

std::vector<AsScore> aggregate_scores(std::span<const PairObservation> obs,
                                      const ScoringConfig& config) {
  const std::vector<Verdict> verdicts = sorted_verdicts(obs);
  std::vector<AsScore> out;
  std::vector<std::uint32_t> vvps;
  for (std::size_t i = 0; i < verdicts.size();) {
    // One AS: its verdicts are [i, end), sorted by (tNode, vVP).
    std::size_t end = i;
    vvps.clear();
    while (end < verdicts.size() && verdicts[end].asn == verdicts[i].asn) {
      vvps.push_back(verdicts[end++].vvp);
    }
    std::sort(vvps.begin(), vvps.end());
    AsScore score;
    score.asn = verdicts[i].asn;
    score.vvp_count = static_cast<int>(
        std::unique(vvps.begin(), vvps.end()) - vvps.begin());
    const std::span<const Verdict> as_verdicts(verdicts.data() + i, end - i);
    i = end;
    if (score.vvp_count < config.min_vvps_per_as) continue;

    for_each_tally(as_verdicts, [&](const TnodeTally& tally) {
      if (!tally.unanimous()) {
        ++score.tnodes_inconsistent;
        return;
      }
      if (tally.usable() == 0) return;  // inbound-only: no ROV signal
      ++score.tnodes_consistent;
      if (tally.outbound > 0) ++score.tnodes_outbound;
    });
    if (score.tnodes_consistent < config.min_tnodes) continue;
    score.score = 100.0 * static_cast<double>(score.tnodes_outbound) /
                  static_cast<double>(score.tnodes_consistent);
    out.push_back(score);
  }
  return out;
}

double consistency_rate(std::span<const PairObservation> obs) {
  const std::vector<Verdict> verdicts = sorted_verdicts(obs);
  std::size_t total = 0;
  std::size_t consistent = 0;
  for_each_tally(verdicts, [&](const TnodeTally& tally) {
    ++total;
    if (tally.unanimous()) ++consistent;
  });
  return total == 0
             ? 1.0
             : static_cast<double>(consistent) / static_cast<double>(total);
}

}  // namespace rovista::core
