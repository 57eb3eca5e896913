// Streaming longitudinal queries over an RVLA archive.
//
// Every query here walks the frame chain once through an RvlaCursor and
// keeps only per-AS running state (plus its own answer), so memory is
// O(#ASes + answer) — independent of the number of rounds — while the
// answers are bit-identical to the in-memory LongitudinalStore fed the
// same rounds (oracle-gated by tests/test_rvla.cpp and byte-diffed in
// tier-1). These are the paper's headline analyses: the Fig. 5 latest-
// score CDF, the Fig. 6 protection trend, per-AS trajectories
// (Fig. 8/10), and the §7.3 synchronized score-jump scan.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytics/rvla.h"

namespace rovista::analytics {

/// Cheap archive summary for `rovista analyze` (no per-AS state).
struct ArchiveInfo {
  std::uint64_t frames = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t as_count = 0;
  std::uint64_t date_count = 0;
  std::optional<util::Date> first_date;
  std::optional<util::Date> last_date;
  bool any_health = false;
};
std::optional<ArchiveInfo> archive_info(const std::string& directory,
                                        std::string* error);

/// Latest score per AS, ascending ASN — the Fig. 5 CDF input.
/// Equals {store.ases()[i], store.latest_score(...)} pairwise.
std::optional<std::vector<std::pair<core::Asn, double>>> latest_scores(
    const std::string& directory, std::string* error);

/// Fig. 6: for every measurement date (ascending), the fraction of ASes
/// measured that date with score >= threshold. Equals
/// store.fraction_at_least(date, threshold) over store.dates().
std::optional<std::vector<std::pair<util::Date, double>>> fraction_trend(
    const std::string& directory, double threshold, std::string* error);

/// Full (date, score) series of one AS. Equals store.series(asn).
std::optional<std::vector<std::pair<util::Date, double>>> as_series(
    const std::string& directory, core::Asn asn, std::string* error);

/// §7.3: ASes whose score moved from <= low to >= high between
/// consecutive measurements, with the jump date. Equals
/// store.score_jumps(low, high) for every (low, high).
std::optional<std::vector<std::pair<core::Asn, util::Date>>> score_jumps(
    const std::string& directory, double low, double high,
    std::string* error);

/// Churn aggregate: per consecutive-date transition, how many ASes
/// measured on both dates changed score, and the mean absolute delta.
struct ChurnRow {
  util::Date from;
  util::Date to;
  std::uint64_t measured_both = 0;
  std::uint64_t changed = 0;
  double mean_abs_delta = 0.0;
};
std::optional<std::vector<ChurnRow>> churn(const std::string& directory,
                                           std::string* error);

/// Streaming re-publication of the §2 CSV dataset (index.csv +
/// scores-DATE.csv + optional degradation.csv) through the same
/// core::DatasetWriter as core::publish_scores, so it is byte-identical
/// to publishing a store fed the same rounds. Returns the number of
/// per-date snapshots written.
std::optional<std::size_t> publish_archive(const std::string& directory,
                                           const std::string& out_directory,
                                           std::string* error);

// --- CSV renderers, shared by the CLI and the oracle tests so byte
// comparison degenerates to value comparison ---

/// Fig. 5 CDF: one row per distinct score, with the cumulative count
/// and fraction of ASes at or below it.
std::string latest_cdf_csv(
    std::span<const std::pair<core::Asn, double>> latest);
std::string fraction_trend_csv(
    std::span<const std::pair<util::Date, double>> trend, double threshold);
std::string series_csv(core::Asn asn,
                       std::span<const std::pair<util::Date, double>> series);
std::string jumps_csv(
    std::span<const std::pair<core::Asn, util::Date>> jumps);
std::string churn_csv(std::span<const ChurnRow> rows);

}  // namespace rovista::analytics
