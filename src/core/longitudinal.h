// Longitudinal score store — RoVista's 20-month time series.
//
// Stores per-AS ROV protection scores keyed by measurement date and
// answers the queries behind the paper's analysis: latest-score CDF
// (Fig. 5), full-protection fraction over time (Fig. 6), per-AS series
// (Fig. 8 / Fig. 10), and synchronized 0→100 jumps, the collateral-
// benefit signal of §7.3.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/scoring.h"
#include "util/date.h"

namespace rovista::core {

using util::Date;

/// Distribution-chain health of one round, recorded by fault-injection
/// worlds (mirrors faults::DegradationStats without core depending on
/// src/faults). Fault-free runs never record health, so the store — and
/// everything published from it — stays byte-identical to pre-fault
/// builds.
struct RoundHealth {
  std::uint64_t stale_ases = 0;    // acting on frozen, unexpired data
  std::uint64_t expired_ases = 0;  // past expire: no validation at all
  std::uint64_t diverged_ases = 0;  // divergent RP implementation
  std::int64_t max_staleness_days = 0;  // worst serial distance (days)
  std::uint64_t error_reports = 0;  // Error Report PDUs raised

  bool operator==(const RoundHealth&) const = default;

  bool degraded() const noexcept {
    return stale_ases != 0 || expired_ases != 0 || diverged_ases != 0;
  }
};

class LongitudinalStore {
 public:
  /// Record one measurement round's scores for `date`.
  void record(Date date, std::span<const AsScore> scores);

  /// Record the distribution-chain health of the round at `date`
  /// (replaces any previous entry for the date).
  void record_health(Date date, const RoundHealth& health) {
    health_[date] = health;
  }

  /// Per-date round health; empty unless a fault-injection world
  /// recorded it.
  const std::map<Date, RoundHealth>& health() const noexcept {
    return health_;
  }

  /// All measurement dates, ascending.
  std::vector<Date> dates() const;

  /// All ASes ever scored, ascending.
  std::vector<Asn> ases() const;

  /// ASes measured on `date`, ascending and unique — re-recording an
  /// (AS, date) does not grow the roster.
  std::vector<Asn> ases_on(Date date) const;

  /// Latest score for an AS (most recent date with a measurement).
  std::optional<double> latest_score(Asn asn) const;

  /// Score on a specific date.
  std::optional<double> score_on(Asn asn, Date date) const;

  /// Full (date, score) series for an AS.
  std::vector<std::pair<Date, double>> series(Asn asn) const;

  /// Latest scores of all ASes (for CDFs).
  std::vector<double> latest_scores() const;

  /// Fraction (0..1) of ASes measured on `date` with score >= threshold.
  double fraction_at_least(Date date, double threshold) const;

  /// ASes whose score jumped from <= `low` to >= `high` between
  /// consecutive measurements, with the jump date.
  std::vector<std::pair<Asn, Date>> score_jumps(double low,
                                                double high) const;

  /// ASes that consistently held `predicate`-satisfying scores on every
  /// measurement (e.g. always 0, always 100).
  template <typename Pred>
  std::vector<Asn> consistently(Pred&& pred) const {
    std::vector<Asn> out;
    for (const auto& [asn, series] : by_as_) {
      bool ok = !series.empty();
      for (const auto& [date, score] : series) {
        if (!pred(score)) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(asn);
    }
    return out;
  }

  std::size_t as_count() const noexcept { return by_as_.size(); }

 private:
  std::map<Asn, std::map<Date, double>> by_as_;
  // Per date: the ASes measured that date, sorted ascending and unique.
  // record() inserts only on the first measurement of an (AS, date);
  // re-records replace the score without touching the roster.
  std::map<Date, std::vector<Asn>> by_date_;
  std::map<Date, RoundHealth> health_;  // fault-injection rounds only
};

}  // namespace rovista::core
