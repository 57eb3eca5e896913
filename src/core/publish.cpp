#include "core/publish.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rovista::core {

namespace fs = std::filesystem;

std::optional<DatasetWriter> DatasetWriter::create(
    const std::string& directory, std::string* error) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create " + directory + ": " + ec.message();
    }
    return std::nullopt;
  }
  return DatasetWriter(directory);
}

void DatasetWriter::add_date(Date date,
                             std::span<const std::pair<Asn, double>> rows) {
  util::Table table(
      {"asn", "score", "vvp_count", "tnodes_consistent", "tnodes_outbound"});
  for (const auto& [asn, score] : rows) {
    // vvp/tnode counters are not retained per-date by the store or the
    // archive; the published format reserves the columns (zero when
    // unknown) so the schema matches what a live deployment would emit.
    table.add_row(
        {std::to_string(asn), util::fmt_double(score, 2), "0", "0", "0"});
  }
  const std::string filename = "scores-" + date.to_string() + ".csv";
  ok_ = table.write_csv((fs::path(directory_) / filename).string()) && ok_;
  index_.emplace_back(date, rows.size());
}

std::optional<std::size_t> DatasetWriter::finish(
    const std::map<Date, RoundHealth>& health) {
  util::Table index({"date", "ases_scored"});
  for (const auto& [date, rows] : index_) {
    index.add_row({date.to_string(), std::to_string(rows)});
  }
  ok_ = index.write_csv((fs::path(directory_) / "index.csv").string()) && ok_;

  // Round-health report, written only when some round recorded health —
  // fault-free datasets keep the exact pre-fault file set.
  if (!health.empty()) {
    util::Table table({"date", "stale_ases", "expired_ases", "diverged_ases",
                       "max_staleness_days", "error_reports"});
    for (const auto& [date, h] : health) {
      table.add_row({date.to_string(), std::to_string(h.stale_ases),
                     std::to_string(h.expired_ases),
                     std::to_string(h.diverged_ases),
                     std::to_string(h.max_staleness_days),
                     std::to_string(h.error_reports)});
    }
    ok_ = table.write_csv((fs::path(directory_) / "degradation.csv").string()) &&
          ok_;
  }
  if (!ok_) return std::nullopt;
  return index_.size();
}

std::optional<std::size_t> publish_scores(const LongitudinalStore& store,
                                          const std::string& directory) {
  std::optional<DatasetWriter> out = DatasetWriter::create(directory);
  if (!out.has_value()) return std::nullopt;
  std::vector<std::pair<Asn, double>> rows;
  for (const Date date : store.dates()) {
    rows.clear();
    for (const Asn asn : store.ases_on(date)) {
      rows.emplace_back(asn, *store.score_on(asn, date));
    }
    out->add_date(date, rows);
  }
  return out->finish(store.health());
}

namespace {

struct CsvRow {
  int line = 0;  // 1-based physical line in the file (for diagnostics)
  std::vector<std::string> fields;
};

std::optional<std::vector<CsvRow>> read_csv(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::vector<CsvRow> rows;
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    CsvRow row;
    row.line = lineno;
    // The published files contain no quoted fields; a plain split works.
    for (const auto part : util::split(line, ',')) {
      row.fields.emplace_back(part);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return std::nullopt;
  return rows;
}

// Every load_scores refusal names the offending file (and line, when
// there is one) through the logging sink, so a corrupted dataset is
// diagnosable instead of a bare nullopt.
void reject(const std::string& path, int line, const std::string& why) {
  std::string msg = "publish: " + path;
  if (line > 0) msg += ":" + std::to_string(line);
  util::log(util::LogLevel::kWarn, msg + ": " + why);
}

}  // namespace

std::optional<LongitudinalStore> load_scores(const std::string& directory) {
  const std::string index_path = (fs::path(directory) / "index.csv").string();
  const auto index = read_csv(index_path);
  if (!index.has_value()) {
    reject(index_path, 0, "missing, unreadable or empty");
    return std::nullopt;
  }

  LongitudinalStore store;
  for (std::size_t i = 1; i < index->size(); ++i) {  // skip header
    const CsvRow& row = (*index)[i];
    util::Date date;
    if (!util::Date::parse(row.fields[0], date)) {
      reject(index_path, row.line,
             "bad date '" + row.fields[0] + "' (want YYYY-MM-DD)");
      return std::nullopt;
    }

    const std::string snapshot_path =
        (fs::path(directory) / ("scores-" + row.fields[0] + ".csv")).string();
    const auto rows = read_csv(snapshot_path);
    if (!rows.has_value()) {
      reject(snapshot_path, 0, "missing, unreadable or empty");
      return std::nullopt;
    }

    std::vector<AsScore> scores;
    for (std::size_t r = 1; r < rows->size(); ++r) {
      const CsvRow& entry = (*rows)[r];
      if (entry.fields.size() < 2) {
        reject(snapshot_path, entry.line, "expected at least asn,score");
        return std::nullopt;
      }
      std::uint64_t asn = 0;
      double score = 0.0;
      if (!util::parse_u64(entry.fields[0], asn)) {
        reject(snapshot_path, entry.line,
               "bad asn '" + entry.fields[0] + "'");
        return std::nullopt;
      }
      if (!util::parse_double(entry.fields[1], score)) {
        reject(snapshot_path, entry.line,
               "bad score '" + entry.fields[1] + "'");
        return std::nullopt;
      }
      AsScore s;
      s.asn = static_cast<Asn>(asn);
      s.score = score;
      scores.push_back(s);
    }
    store.record(date, scores);
  }

  // Optional round-health report (fault-injection datasets only).
  const std::string health_path =
      (fs::path(directory) / "degradation.csv").string();
  if (fs::exists(health_path)) {
    const auto rows = read_csv(health_path);
    if (!rows.has_value()) {
      reject(health_path, 0, "unreadable or empty");
      return std::nullopt;
    }
    for (std::size_t r = 1; r < rows->size(); ++r) {
      const CsvRow& entry = (*rows)[r];
      util::Date date;
      if (entry.fields.size() < 6 ||
          !util::Date::parse(entry.fields[0], date)) {
        reject(health_path, entry.line, "expected date + 5 counters");
        return std::nullopt;
      }
      RoundHealth h;
      std::uint64_t stale = 0, expired = 0, diverged = 0, staleness = 0,
                    reports = 0;
      if (!util::parse_u64(entry.fields[1], stale) ||
          !util::parse_u64(entry.fields[2], expired) ||
          !util::parse_u64(entry.fields[3], diverged) ||
          !util::parse_u64(entry.fields[4], staleness) ||
          !util::parse_u64(entry.fields[5], reports)) {
        reject(health_path, entry.line, "bad counter value");
        return std::nullopt;
      }
      h.stale_ases = stale;
      h.expired_ases = expired;
      h.diverged_ases = diverged;
      h.max_staleness_days = static_cast<std::int64_t>(staleness);
      h.error_reports = reports;
      store.record_health(date, h);
    }
  }
  return store;
}

}  // namespace rovista::core
