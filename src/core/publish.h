// Score publication — the rovista.netsecurelab.org role.
//
// The paper publishes per-AS ROV scores daily so operators can audit
// themselves (several did, §6.3.2). This module serializes a
// LongitudinalStore to a directory of dated CSV files plus an index, and
// loads it back — the interchange format downstream users consume.
//
// Layout:
//   <dir>/index.csv              date,ases_scored
//   <dir>/scores-YYYY-MM-DD.csv  asn,score,vvp_count,tnodes_consistent,
//                                tnodes_outbound
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/longitudinal.h"

namespace rovista::core {

/// Writes the dataset above under one directory, one date at a time:
/// the single formatter behind publish_scores and
/// analytics::publish_archive, so the two cannot drift apart.
class DatasetWriter {
 public:
  /// Create `directory` (and its parents) if needed; nullopt, with the
  /// reason in `*error` when non-null, if that fails.
  static std::optional<DatasetWriter> create(const std::string& directory,
                                             std::string* error = nullptr);

  /// Write scores-DATE.csv holding `rows`, (ASN, score) pairs in
  /// ascending ASN order, and list the date in the index.
  void add_date(Date date, std::span<const std::pair<Asn, double>> rows);

  /// Write index.csv and, when `health` is non-empty, degradation.csv.
  /// Returns the number of dates written, or nullopt if any write
  /// failed.
  std::optional<std::size_t> finish(const std::map<Date, RoundHealth>& health);

 private:
  explicit DatasetWriter(std::string directory)
      : directory_(std::move(directory)) {}

  std::string directory_;
  std::vector<std::pair<Date, std::size_t>> index_;  // date, rows
  bool ok_ = true;
};

/// Write every snapshot in `store` under `directory` (created if
/// needed). Returns the number of snapshot files written, or nullopt on
/// I/O failure.
std::optional<std::size_t> publish_scores(const LongitudinalStore& store,
                                          const std::string& directory);

/// Load a published directory back into a store. Returns nullopt if the
/// index is missing or any referenced snapshot is malformed.
std::optional<LongitudinalStore> load_scores(const std::string& directory);

}  // namespace rovista::core
