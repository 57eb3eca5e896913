#include "analytics/queries.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "analytics/rvla_io.h"
#include "core/publish.h"
#include "util/csv.h"

namespace rovista::analytics {

using util::Date;

namespace {

/// Drive a cursor to exhaustion, handing each frame to `sink`. Returns
/// false (and fills *error) on any archive damage.
template <typename Sink>
bool stream_frames(const std::string& directory, std::string* error,
                   Sink&& sink) {
  auto cursor = RvlaCursor::open(directory, error);
  if (!cursor.has_value()) return false;
  while (auto frame = cursor->next()) sink(*frame);
  if (cursor->failed()) {
    if (error != nullptr) *error = cursor->error();
    return false;
  }
  return true;
}

/// Streaming per-date grouping: frames are date-ordered, so one date's
/// frames are consecutive; `flush(date, rows)` fires once per date that
/// measured at least one AS, in ascending order, with the last-write-
/// wins merge of the date's frames — exactly the state
/// LongitudinalStore::record leaves for that date.
template <typename Flush>
class DateGrouper {
 public:
  explicit DateGrouper(Flush flush) : flush_(std::move(flush)) {}

  void add(const RvlaFrame& frame) {
    if (open_ && frame.date != date_) emit();
    open_ = true;
    date_ = frame.date;
    for (std::size_t i = 0; i < frame.asns.size(); ++i) {
      rows_[frame.asns[i]] = frame.scores[i];
    }
  }

  void finish() {
    if (open_) emit();
  }

 private:
  void emit() {
    if (!rows_.empty()) flush_(date_, rows_);
    rows_.clear();
    open_ = false;
  }

  Flush flush_;
  std::map<core::Asn, double> rows_;
  Date date_;
  bool open_ = false;
};

}  // namespace

std::optional<ArchiveInfo> archive_info(const std::string& directory,
                                        std::string* error) {
  auto cursor = RvlaCursor::open(directory, error);
  if (!cursor.has_value()) return std::nullopt;
  ArchiveInfo info;
  info.data_bytes = cursor->head().data_size;
  std::map<core::Asn, bool> seen;
  while (auto frame_opt = cursor->next()) {
    const RvlaFrame& frame = *frame_opt;
    ++info.frames;
    if (!frame.asns.empty()) {
      // Dates are non-decreasing, so distinct dates are counted by
      // transitions (frames of one date are consecutive).
      if (!info.last_date.has_value() || frame.date != *info.last_date) {
        ++info.date_count;
      }
      if (!info.first_date.has_value()) info.first_date = frame.date;
      info.last_date = frame.date;
    }
    for (const core::Asn asn : frame.asns) seen[asn] = true;
    info.any_health = info.any_health || frame.has_health;
  }
  if (cursor->failed()) {
    if (error != nullptr) *error = cursor->error();
    return std::nullopt;
  }
  info.as_count = seen.size();
  return info;
}

std::optional<std::vector<std::pair<core::Asn, double>>> latest_scores(
    const std::string& directory, std::string* error) {
  // Frames arrive in date order, so the last value seen per AS is its
  // most recent — the same tie-break (same-date re-record wins) as
  // LongitudinalStore::latest_score, which reads the last entry of the
  // AS's series.
  std::map<core::Asn, double> latest;
  bool ok = stream_frames(directory, error, [&](const RvlaFrame& frame) {
    for (std::size_t i = 0; i < frame.asns.size(); ++i) {
      latest[frame.asns[i]] = frame.scores[i];
    }
  });
  if (!ok) return std::nullopt;
  return std::vector<std::pair<core::Asn, double>>(latest.begin(),
                                                   latest.end());
}

std::optional<std::vector<std::pair<Date, double>>> fraction_trend(
    const std::string& directory, double threshold, std::string* error) {
  std::vector<std::pair<Date, double>> out;
  DateGrouper grouper(
      [&](Date date, const std::map<core::Asn, double>& rows) {
        std::size_t hit = 0;
        for (const auto& [asn, score] : rows) {
          if (score >= threshold) ++hit;
        }
        out.emplace_back(date, static_cast<double>(hit) /
                                   static_cast<double>(rows.size()));
      });
  bool ok = stream_frames(directory, error,
                          [&](const RvlaFrame& f) { grouper.add(f); });
  if (!ok) return std::nullopt;
  grouper.finish();
  return out;
}

std::optional<std::vector<std::pair<Date, double>>> as_series(
    const std::string& directory, core::Asn asn, std::string* error) {
  std::vector<std::pair<Date, double>> out;
  bool ok = stream_frames(directory, error, [&](const RvlaFrame& frame) {
    const auto it =
        std::lower_bound(frame.asns.begin(), frame.asns.end(), asn);
    if (it == frame.asns.end() || *it != asn) return;
    const double score =
        frame.scores[static_cast<std::size_t>(it - frame.asns.begin())];
    if (!out.empty() && out.back().first == frame.date) {
      out.back().second = score;  // same-date re-record replaces
    } else {
      out.emplace_back(frame.date, score);
    }
  });
  if (!ok) return std::nullopt;
  return out;
}

std::optional<std::vector<std::pair<core::Asn, Date>>> score_jumps(
    const std::string& directory, double low, double high,
    std::string* error) {
  // Per-AS walk state: the measurement before last (prev2), the last
  // one, and whether the last transition qualified — enough to undo a
  // jump when a same-date re-record rewrites its right endpoint, which
  // only ever affects the AS's newest jump (dates never go backwards).
  struct Walk {
    double prev2 = 0.0;
    bool have_prev2 = false;
    double last = 0.0;
    std::int64_t last_days = 0;
    bool have_last = false;
    bool last_jumped = false;
    std::vector<Date> jumps;
  };
  std::map<core::Asn, Walk> walks;
  bool ok = stream_frames(directory, error, [&](const RvlaFrame& frame) {
    const std::int64_t days = frame.date.days_since_epoch();
    for (std::size_t i = 0; i < frame.asns.size(); ++i) {
      Walk& w = walks[frame.asns[i]];
      const double score = frame.scores[i];
      if (!w.have_last) {
        w.last = score;
        w.last_days = days;
        w.have_last = true;
        continue;
      }
      if (days == w.last_days) {
        // Re-record of the newest measurement: re-evaluate the (at most
        // one) jump it terminated.
        w.last = score;
        const bool jumped =
            w.have_prev2 && w.prev2 <= low && score >= high;
        if (w.last_jumped && !jumped) w.jumps.pop_back();
        if (!w.last_jumped && jumped) w.jumps.emplace_back(frame.date);
        w.last_jumped = jumped;
        continue;
      }
      const bool jumped = w.last <= low && score >= high;
      if (jumped) w.jumps.emplace_back(frame.date);
      w.prev2 = w.last;
      w.have_prev2 = true;
      w.last = score;
      w.last_days = days;
      w.last_jumped = jumped;
    }
  });
  if (!ok) return std::nullopt;
  std::vector<std::pair<core::Asn, Date>> out;
  for (const auto& [asn, walk] : walks) {
    for (const Date date : walk.jumps) out.emplace_back(asn, date);
  }
  return out;
}

std::optional<std::vector<ChurnRow>> churn(const std::string& directory,
                                           std::string* error) {
  std::vector<ChurnRow> out;
  std::map<core::Asn, double> prev;
  Date prev_date;
  bool have_prev = false;
  DateGrouper grouper(
      [&](Date date, const std::map<core::Asn, double>& rows) {
        if (have_prev) {
          ChurnRow row;
          row.from = prev_date;
          row.to = date;
          double total_delta = 0.0;
          for (const auto& [asn, score] : rows) {
            const auto it = prev.find(asn);
            if (it == prev.end()) continue;
            ++row.measured_both;
            if (score != it->second) ++row.changed;
            total_delta += std::abs(score - it->second);
          }
          row.mean_abs_delta =
              row.measured_both == 0
                  ? 0.0
                  : total_delta / static_cast<double>(row.measured_both);
          out.push_back(row);
        }
        prev = rows;
        prev_date = date;
        have_prev = true;
      });
  bool ok = stream_frames(directory, error,
                          [&](const RvlaFrame& f) { grouper.add(f); });
  if (!ok) return std::nullopt;
  grouper.finish();
  return out;
}

std::optional<std::size_t> publish_archive(const std::string& directory,
                                           const std::string& out_directory,
                                           std::string* error) {
  std::string why;
  std::optional<core::DatasetWriter> out =
      core::DatasetWriter::create(out_directory, &why);
  if (!out.has_value()) {
    if (error != nullptr) *error = "rvla: " + why;
    return std::nullopt;
  }
  std::map<Date, core::RoundHealth> health;
  std::vector<std::pair<core::Asn, double>> rows;
  DateGrouper grouper(
      [&](Date date, const std::map<core::Asn, double>& merged) {
        rows.assign(merged.begin(), merged.end());
        out->add_date(date, rows);
      });
  bool ok = stream_frames(directory, error, [&](const RvlaFrame& frame) {
    grouper.add(frame);
    if (frame.has_health) health[frame.date] = frame.health;
  });
  if (!ok) return std::nullopt;
  grouper.finish();

  const std::optional<std::size_t> written = out->finish(health);
  if (!written.has_value() && error != nullptr) {
    *error = "rvla: writing dataset failed";
  }
  return written;
}

std::string latest_cdf_csv(
    std::span<const std::pair<core::Asn, double>> latest) {
  std::vector<double> scores;
  scores.reserve(latest.size());
  for (const auto& [asn, score] : latest) scores.push_back(score);
  std::sort(scores.begin(), scores.end());
  util::Table table({"score", "ases_at_most", "cum_fraction"});
  for (std::size_t i = 0; i < scores.size();) {
    std::size_t j = i;
    while (j < scores.size() && scores[j] == scores[i]) ++j;
    table.add_row({util::fmt_double(scores[i], 2), std::to_string(j),
                   util::fmt_double(static_cast<double>(j) /
                                        static_cast<double>(scores.size()),
                                    6)});
    i = j;
  }
  return table.to_csv();
}

std::string fraction_trend_csv(
    std::span<const std::pair<Date, double>> trend, double threshold) {
  util::Table table({"date", "threshold", "fraction_at_least"});
  for (const auto& [date, fraction] : trend) {
    table.add_row({date.to_string(), util::fmt_double(threshold, 2),
                   util::fmt_double(fraction, 6)});
  }
  return table.to_csv();
}

std::string series_csv(core::Asn asn,
                       std::span<const std::pair<Date, double>> series) {
  util::Table table({"asn", "date", "score"});
  for (const auto& [date, score] : series) {
    table.add_row({std::to_string(asn), date.to_string(),
                   util::fmt_double(score, 2)});
  }
  return table.to_csv();
}

std::string jumps_csv(
    std::span<const std::pair<core::Asn, Date>> jumps) {
  util::Table table({"asn", "date"});
  for (const auto& [asn, date] : jumps) {
    table.add_row({std::to_string(asn), date.to_string()});
  }
  return table.to_csv();
}

std::string churn_csv(std::span<const ChurnRow> rows) {
  util::Table table({"from", "to", "measured_both", "changed",
                     "mean_abs_delta"});
  for (const ChurnRow& row : rows) {
    table.add_row({row.from.to_string(), row.to.to_string(),
                   std::to_string(row.measured_both),
                   std::to_string(row.changed),
                   util::fmt_double(row.mean_abs_delta, 6)});
  }
  return table.to_csv();
}

}  // namespace rovista::analytics
