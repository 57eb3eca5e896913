#include "core/longitudinal.h"

#include <algorithm>

namespace rovista::core {

void LongitudinalStore::record(Date date, std::span<const AsScore> scores) {
  for (const AsScore& s : scores) {
    if (by_as_[s.asn].insert_or_assign(date, s.score).second) {
      // First measurement of this (AS, date): insert at the sorted
      // position. Re-records must not grow the roster — the AS is
      // already listed for the date.
      std::vector<Asn>& roster = by_date_[date];
      roster.insert(std::lower_bound(roster.begin(), roster.end(), s.asn),
                    s.asn);
    }
  }
}

std::vector<Asn> LongitudinalStore::ases_on(Date date) const {
  const auto it = by_date_.find(date);
  if (it == by_date_.end()) return {};
  return it->second;
}

std::vector<Date> LongitudinalStore::dates() const {
  std::vector<Date> out;
  out.reserve(by_date_.size());
  for (const auto& [date, ases] : by_date_) out.push_back(date);
  return out;
}

std::vector<Asn> LongitudinalStore::ases() const {
  std::vector<Asn> out;
  out.reserve(by_as_.size());
  for (const auto& [asn, series] : by_as_) out.push_back(asn);
  return out;
}

std::optional<double> LongitudinalStore::latest_score(Asn asn) const {
  const auto it = by_as_.find(asn);
  if (it == by_as_.end()) return std::nullopt;
  return it->second.rbegin()->second;  // record() never leaves one empty
}

std::optional<double> LongitudinalStore::score_on(Asn asn, Date date) const {
  const auto it = by_as_.find(asn);
  if (it == by_as_.end()) return std::nullopt;
  const auto dit = it->second.find(date);
  if (dit == it->second.end()) return std::nullopt;
  return dit->second;
}

std::vector<std::pair<Date, double>> LongitudinalStore::series(
    Asn asn) const {
  std::vector<std::pair<Date, double>> out;
  const auto it = by_as_.find(asn);
  if (it == by_as_.end()) return out;
  out.assign(it->second.begin(), it->second.end());
  return out;
}

std::vector<double> LongitudinalStore::latest_scores() const {
  std::vector<double> out;
  out.reserve(by_as_.size());
  for (const auto& [asn, series] : by_as_) {
    out.push_back(series.rbegin()->second);
  }
  return out;
}

double LongitudinalStore::fraction_at_least(Date date,
                                            double threshold) const {
  const auto it = by_date_.find(date);
  if (it == by_date_.end() || it->second.empty()) return 0.0;
  std::size_t hits = 0;
  for (const Asn asn : it->second) {
    if (by_as_.at(asn).at(date) >= threshold) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(it->second.size());
}

std::vector<std::pair<Asn, Date>> LongitudinalStore::score_jumps(
    double low, double high) const {
  std::vector<std::pair<Asn, Date>> out;
  for (const auto& [asn, series] : by_as_) {
    double prev = -1.0;
    bool have_prev = false;
    for (const auto& [date, score] : series) {
      if (have_prev && prev <= low && score >= high) {
        out.emplace_back(asn, date);
      }
      prev = score;
      have_prev = true;
    }
  }
  return out;
}

}  // namespace rovista::core
