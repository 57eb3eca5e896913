// LongitudinalStore query regression: every query must return exactly
// what a naive walk over the raw (AS, date, score) data returns — same
// values, same order — under random recording patterns including
// out-of-order dates and same-date overwrites.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/longitudinal.h"
#include "util/rng.h"

namespace {

using namespace rovista;
using core::AsScore;
using core::Asn;
using core::LongitudinalStore;
using util::Date;

/// The pre-index semantics, reimplemented naively.
class Oracle {
 public:
  void record(Date date, const std::vector<AsScore>& scores) {
    for (const AsScore& s : scores) by_as_[s.asn][date] = s.score;
  }

  std::optional<double> latest_score(Asn asn) const {
    const auto it = by_as_.find(asn);
    if (it == by_as_.end() || it->second.empty()) return std::nullopt;
    return it->second.rbegin()->second;
  }

  std::vector<double> latest_scores() const {
    std::vector<double> out;
    for (const auto& [asn, series] : by_as_) {
      if (!series.empty()) out.push_back(series.rbegin()->second);
    }
    return out;
  }

  double fraction_at_least(Date date, double threshold) const {
    std::size_t total = 0;
    std::size_t hit = 0;
    for (const auto& [asn, series] : by_as_) {
      const auto it = series.find(date);
      if (it == series.end()) continue;
      ++total;
      if (it->second >= threshold) ++hit;
    }
    return total == 0
               ? 0.0
               : static_cast<double>(hit) / static_cast<double>(total);
  }

  std::vector<std::pair<Asn, Date>> score_jumps(double low,
                                                double high) const {
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

  std::vector<Asn> ases_on(Date date) const {
    std::vector<Asn> out;
    for (const auto& [asn, series] : by_as_) {
      if (series.count(date) != 0) out.push_back(asn);
    }
    return out;
  }

  const std::map<Asn, std::map<Date, double>>& data() const {
    return by_as_;
  }

 private:
  std::map<Asn, std::map<Date, double>> by_as_;
};

AsScore score_of(Asn asn, double score) {
  AsScore s;
  s.asn = asn;
  s.score = score;
  return s;
}

void expect_equivalent(const LongitudinalStore& store, const Oracle& oracle,
                       const std::vector<Date>& dates) {
  EXPECT_EQ(store.latest_scores(), oracle.latest_scores());
  for (const Date& date : dates) {
    EXPECT_EQ(store.ases_on(date), oracle.ases_on(date)) << date.to_string();
  }
  for (const auto& [asn, series] : oracle.data()) {
    EXPECT_EQ(store.latest_score(asn), oracle.latest_score(asn))
        << "AS" << asn;
  }
  EXPECT_EQ(store.latest_score(999999), std::nullopt);
  for (const Date& date : dates) {
    for (const double threshold : {-1.0, 0.0, 37.5, 50.0, 100.0, 101.0}) {
      EXPECT_DOUBLE_EQ(store.fraction_at_least(date, threshold),
                       oracle.fraction_at_least(date, threshold))
          << date.to_string() << " @ " << threshold;
    }
  }
  // Rising, flat and falling jump thresholds.
  for (const auto& [low, high] :
       std::vector<std::pair<double, double>>{{0.0, 100.0},
                                              {25.0, 75.0},
                                              {0.0, 1.0},
                                              {50.0, 50.0},
                                              {80.0, 20.0}}) {
    EXPECT_EQ(store.score_jumps(low, high), oracle.score_jumps(low, high))
        << low << "→" << high;
  }
}

TEST(LongitudinalIndex, MatchesBruteForceOnRandomHistory) {
  util::Rng rng(7);
  LongitudinalStore store;
  Oracle oracle;

  const Date base = Date::from_ymd(2022, 1, 1);
  std::vector<Date> dates;
  for (int i = 0; i < 24; ++i) dates.push_back(base + 13 * i);

  for (int round = 0; round < 60; ++round) {
    // Deliberately revisit dates (overwrites) and hop around in time.
    const Date date =
        dates[static_cast<std::size_t>(rng.uniform_u64(0, dates.size() - 1))];
    std::vector<AsScore> scores;
    const int ases = static_cast<int>(rng.uniform_u64(1, 12));
    for (int a = 0; a < ases; ++a) {
      const Asn asn = static_cast<Asn>(rng.uniform_u64(65000, 65019));
      // Quantized scores create plenty of exact ties and 0↔100 jumps.
      const double score =
          static_cast<double>(rng.uniform_u64(0, 4)) * 25.0;
      scores.push_back(score_of(asn, score));
    }
    store.record(date, scores);
    oracle.record(date, scores);
  }

  expect_equivalent(store, oracle, dates);
}

TEST(LongitudinalIndex, OverwriteReplacesDateEverywhere) {
  LongitudinalStore store;
  Oracle oracle;
  const Date d1 = Date::from_ymd(2022, 3, 1);
  const Date d2 = Date::from_ymd(2022, 4, 1);

  store.record(d1, std::vector<AsScore>{score_of(65001, 0.0)});
  oracle.record(d1, {score_of(65001, 0.0)});
  store.record(d2, std::vector<AsScore>{score_of(65001, 100.0)});
  oracle.record(d2, {score_of(65001, 100.0)});
  // Re-record d2 downward: the jump must disappear and the per-date
  // distribution must hold exactly one entry for AS65001.
  store.record(d2, std::vector<AsScore>{score_of(65001, 0.0)});
  oracle.record(d2, {score_of(65001, 0.0)});

  expect_equivalent(store, oracle, {d1, d2});
  EXPECT_TRUE(store.score_jumps(0.0, 100.0).empty());
  EXPECT_DOUBLE_EQ(store.fraction_at_least(d2, 50.0), 0.0);
}

// Pinned regression: record() used to append the ASN to the per-date
// roster unconditionally, so every re-record of an (AS, date) grew
// by_date_ by one duplicate entry — contradicting the documented
// one-entry-per-AS replace contract and silently growing memory over a
// long-lived series.
TEST(LongitudinalIndex, ReRecordKeepsByDateRosterUnique) {
  LongitudinalStore store;
  const Date d = Date::from_ymd(2023, 6, 1);

  store.record(d, std::vector<AsScore>{score_of(65002, 50.0),
                                       score_of(65001, 25.0)});
  EXPECT_EQ(store.ases_on(d), (std::vector<Asn>{65001, 65002}));

  // Re-record both ASes (twice, for good measure): the roster must not
  // grow and must stay sorted-unique.
  for (int pass = 0; pass < 2; ++pass) {
    store.record(d, std::vector<AsScore>{score_of(65001, 75.0),
                                         score_of(65002, 0.0)});
    EXPECT_EQ(store.ases_on(d), (std::vector<Asn>{65001, 65002}))
        << "pass " << pass;
  }

  // A duplicate ASN within one record() call is insert-then-overwrite:
  // still exactly one roster entry.
  store.record(d, std::vector<AsScore>{score_of(65003, 10.0),
                                       score_of(65003, 90.0)});
  EXPECT_EQ(store.ases_on(d), (std::vector<Asn>{65001, 65002, 65003}));
}

// Bugfix sweep: replay mixed insert/overwrite sequences — heavy on
// exact-duplicate scores, same-date re-records, and out-of-order dates —
// and demand that every query still equals the naive walk.
TEST(LongitudinalIndex, RandomizedReRecordBatteryMatchesRebuild) {
  for (const std::uint64_t seed : {1ull, 42ull, 2023ull, 65537ull, 9009ull}) {
    util::Rng rng(seed);
    LongitudinalStore store;
    Oracle oracle;

    const Date base = Date::from_ymd(2021, 6, 15);
    std::vector<Date> dates;
    for (int i = 0; i < 18; ++i) dates.push_back(base + 11 * i);

    for (int round = 0; round < 160; ++round) {
      const Date date = dates[static_cast<std::size_t>(
          rng.uniform_u64(0, dates.size() - 1))];
      std::vector<AsScore> scores;
      const int ases = static_cast<int>(rng.uniform_u64(1, 8));
      for (int a = 0; a < ases; ++a) {
        // A small AS pool and quantized scores force frequent
        // overwrites, exact-double ties, and jumps that appear and
        // vanish.
        const Asn asn = static_cast<Asn>(rng.uniform_u64(65000, 65011));
        const double score =
            static_cast<double>(rng.uniform_u64(0, 4)) * 25.0;
        scores.push_back(score_of(asn, score));
      }
      store.record(date, scores);
      oracle.record(date, scores);
    }
    expect_equivalent(store, oracle, dates);
  }
}

TEST(LongitudinalIndex, MiddleInsertRewiresJumps) {
  LongitudinalStore store;
  Oracle oracle;
  const Date d1 = Date::from_ymd(2022, 3, 1);
  const Date d2 = Date::from_ymd(2022, 5, 1);
  const Date mid = Date::from_ymd(2022, 4, 1);

  store.record(d1, std::vector<AsScore>{score_of(65001, 0.0)});
  oracle.record(d1, {score_of(65001, 0.0)});
  store.record(d2, std::vector<AsScore>{score_of(65001, 100.0)});
  oracle.record(d2, {score_of(65001, 100.0)});
  ASSERT_EQ(store.score_jumps(0.0, 100.0).size(), 1u);

  // A late-arriving middle measurement splits the 0→100 edge in two.
  store.record(mid, std::vector<AsScore>{score_of(65001, 100.0)});
  oracle.record(mid, {score_of(65001, 100.0)});

  expect_equivalent(store, oracle, {d1, mid, d2});
  const auto jumps = store.score_jumps(0.0, 100.0);
  ASSERT_EQ(jumps.size(), 1u);
  EXPECT_EQ(jumps[0].second, mid);
}

}  // namespace
