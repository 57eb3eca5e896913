#include "serve/score_feed.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "analytics/rvla_io.h"
#include "util/csv.h"
#include "util/logging.h"

namespace rovista::serve {

namespace {

bool score_asn_less(const core::AsScore& a, Asn asn) noexcept {
  return a.asn < asn;
}

}  // namespace

const core::AsScore* RoundSnapshot::find(Asn asn) const noexcept {
  const auto it =
      std::lower_bound(scores.begin(), scores.end(), asn, score_asn_less);
  if (it == scores.end() || it->asn != asn) return nullptr;
  return &*it;
}

const std::string* RoundSnapshot::score_str(Asn asn) const noexcept {
  const auto it =
      std::lower_bound(scores.begin(), scores.end(), asn, score_asn_less);
  if (it == scores.end() || it->asn != asn) return nullptr;
  return &score_strs[static_cast<std::size_t>(it - scores.begin())];
}

std::shared_ptr<const RoundSnapshot> ScoreFeed::publish(
    Date date, std::span<const core::AsScore> scores,
    snapshot::EpochRef epoch) {
  auto snapshot = std::make_shared<RoundSnapshot>();
  snapshot->date = date;
  if (epoch) snapshot->world_digest = epoch->digest();
  snapshot->epoch = std::move(epoch);
  snapshot->scores.assign(scores.begin(), scores.end());
  std::sort(snapshot->scores.begin(), snapshot->scores.end(),
            [](const core::AsScore& a, const core::AsScore& b) {
              return a.asn < b.asn;
            });
  snapshot->score_strs.reserve(snapshot->scores.size());
  for (const core::AsScore& s : snapshot->scores) {
    snapshot->score_strs.push_back(util::fmt_double(s.score, 2));
  }

  // Extend the previous snapshot's trajectory. The map is copied whole
  // (rounds × ASes is small next to a measurement round); old snapshots
  // keep theirs untouched, so in-flight readers never see the append.
  std::shared_ptr<const RoundSnapshot> previous = current();
  auto trajectory =
      previous && previous->trajectory
          ? std::make_shared<RoundSnapshot::Trajectory>(*previous->trajectory)
          : std::make_shared<RoundSnapshot::Trajectory>();
  for (const core::AsScore& s : snapshot->scores) {
    (*trajectory)[s.asn].push_back(
        TrajectoryPoint{date.days_since_epoch(), s.score});
  }
  snapshot->trajectory = std::move(trajectory);
  snapshot->rounds_completed = (previous ? previous->rounds_completed : 0) + 1;

  std::lock_guard<std::mutex> lock(mutex_);
  snapshot->sequence = ++sequence_;
  current_ = snapshot;
  return snapshot;
}

bool ScoreFeed::seed_from_archive(const std::string& directory) {
  std::string error;
  auto cursor = analytics::RvlaCursor::open(directory, &error);
  if (!cursor.has_value()) {
    util::log(util::LogLevel::kWarn,
              "serve: cannot seed from archive: " + error);
    return false;
  }

  auto trajectory = std::make_shared<RoundSnapshot::Trajectory>();
  // Frames are date-ordered, so the running "current date group" ends
  // up holding exactly the final date's merged scores.
  std::map<Asn, double> last_rows;
  std::optional<Date> group_date;
  std::uint64_t date_count = 0;
  while (auto frame = cursor->next()) {
    if (frame->asns.empty()) continue;
    if (!group_date.has_value() || frame->date != *group_date) {
      ++date_count;
      group_date = frame->date;
      last_rows.clear();
    }
    const std::int64_t days = frame->date.days_since_epoch();
    for (std::size_t i = 0; i < frame->asns.size(); ++i) {
      const Asn asn = frame->asns[i];
      const double score = frame->scores[i];
      last_rows[asn] = score;
      auto& points = (*trajectory)[asn];
      if (!points.empty() && points.back().date_days == days) {
        points.back().score = score;  // same-date re-record replaces
      } else {
        points.push_back(TrajectoryPoint{days, score});
      }
    }
  }
  if (cursor->failed()) {
    util::log(util::LogLevel::kWarn,
              "serve: cannot seed from archive: " + cursor->error());
    return false;
  }
  if (date_count == 0) return false;  // empty archive: nothing to seed

  auto snapshot = std::make_shared<RoundSnapshot>();
  for (const auto& [asn, score] : last_rows) {
    core::AsScore s;
    s.asn = asn;
    s.score = score;
    snapshot->scores.push_back(s);  // map iteration: sorted by ASN
    snapshot->score_strs.push_back(util::fmt_double(score, 2));
  }
  snapshot->date = *group_date;
  snapshot->trajectory = std::move(trajectory);
  snapshot->rounds_completed = date_count;

  std::lock_guard<std::mutex> lock(mutex_);
  snapshot->sequence = ++sequence_;
  current_ = std::move(snapshot);
  return true;
}

std::shared_ptr<const RoundSnapshot> ScoreFeed::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t ScoreFeed::published() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sequence_;
}

}  // namespace rovista::serve
