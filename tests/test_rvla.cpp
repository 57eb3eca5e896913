// RVLA archive tests (src/analytics + the engine/serve wiring):
//
//  - codec: encode→decode→re-encode is byte-identical for head, data
//    and whole archives (canonical encoding), every strict truncation
//    of either file is rejected, every single-byte corruption of either
//    file is rejected (head CRC, preamble checks and per-frame CRCs
//    leave no unprotected byte), the shared mutate harness
//    (tests/wire_fuzz.h) holds the accepted-implies-canonical dichotomy
//    over mutants and random buffers,
//  - writer/cursor: growing an archive frame by frame produces the
//    exact data bytes of encoding it at once and a newest head slot
//    holding its exact head, the cursor streams the frames back,
//    tolerates crash debris past the committed length (which the next
//    append truncates away), and rejects a data file cut below it (the
//    torn-head-slot battery lives in tests/test_slot_file.cpp),
//  - queries: every streaming query in src/analytics/queries.h is
//    oracle-gated against a LongitudinalStore fed the same rounds —
//    value-equal through the shared CSV renderers, and byte-equal
//    between publish_archive and core::publish_scores — across
//    randomized series with same-date re-records, duplicate ASNs,
//    empty rounds and health frames,
//  - wiring: ScoreFeed::seed_from_archive reproduces the snapshot the
//    store oracle below folds from a LongitudinalStore fed the same
//    rounds, and a runner resumed from a checkpoint leaves an archive
//    that seeds exactly its restored store.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytics/queries.h"
#include "analytics/rvla.h"
#include "analytics/rvla_io.h"
#include "core/longitudinal.h"
#include "core/publish.h"
#include "incremental/longitudinal_engine.h"
#include "persist/slot_file.h"
#include "round_fixture.h"
#include "serve/score_feed.h"
#include "util/csv.h"
#include "util/date.h"
#include "wire_fuzz.h"

namespace {

using namespace rovista;
using analytics::RvlaCursor;
using analytics::RvlaFrame;
using analytics::RvlaHead;
using analytics::RvlaImage;
using analytics::RvlaWriter;
using core::Asn;
using core::RoundHealth;
using test::FuzzRng;
using util::Date;

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("rovista-rvla-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
  }
  ~TempDir() { fs::remove_all(path); }
  static int counter;
};
int TempDir::counter = 0;

std::vector<std::uint8_t> read_bytes(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::vector<std::uint8_t> out;
  char c;
  while (f.get(c)) out.push_back(static_cast<std::uint8_t>(c));
  return out;
}

void write_bytes(const fs::path& p, std::span<const std::uint8_t> bytes) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

RoundHealth sample_health(std::uint64_t k) {
  RoundHealth h;
  h.stale_ases = 3 + k;
  h.expired_ases = k % 2;
  h.diverged_ases = k % 3;
  h.max_staleness_days = static_cast<std::int64_t>(7 * k);
  h.error_reports = 2 * k;
  return h;
}

/// A small mixed corpus: empty archive, single plain frame, multi-round
/// series with a same-date re-record and a health frame.
std::vector<std::vector<RvlaFrame>> corpus() {
  const Date d0 = Date::from_ymd(2021, 7, 1);
  RoundHealth none;

  std::vector<RvlaFrame> one;
  one.push_back(analytics::make_frame(
      d0, std::vector<std::pair<Asn, double>>{{65001, 50.0}, {65002, 0.0}},
      false, none));

  std::vector<RvlaFrame> series;
  series.push_back(analytics::make_frame(
      d0, std::vector<std::pair<Asn, double>>{{7, 100.0}, {9, 0.0}}, false,
      none));
  series.push_back(analytics::make_frame(
      d0, std::vector<std::pair<Asn, double>>{{9, 25.0}}, false, none));
  series.push_back(analytics::make_frame(
      d0 + 30, std::vector<std::pair<Asn, double>>{}, false, none));
  series.push_back(analytics::make_frame(
      d0 + 60, std::vector<std::pair<Asn, double>>{{7, 0.0}, {9, 100.0}},
      true, sample_health(1)));

  return {{}, one, series};
}

// ---------- codec ----------

TEST(RvlaCodec, FrameSizeMatchesEncoding) {
  for (const bool has_health : {false, true}) {
    for (const std::uint64_t rows : {0, 1, 5}) {
      std::vector<std::pair<Asn, double>> scores;
      for (std::uint64_t i = 0; i < rows; ++i) {
        scores.emplace_back(static_cast<Asn>(100 + i), 12.5 * i);
      }
      const RvlaFrame frame = analytics::make_frame(
          Date::from_ymd(2022, 1, 1), scores, has_health, sample_health(2));
      EXPECT_EQ(frame.has_health, has_health);
      EXPECT_EQ(analytics::encode_frame(frame, 8).size(),
                analytics::frame_size(rows, has_health));
    }
  }
}

TEST(RvlaCodec, MakeFrameCanonicalizesUnsortedDuplicates) {
  RoundHealth none;
  // Unsorted, with a duplicate ASN: sorted output, last write wins —
  // the end state LongitudinalStore::record reaches for the round.
  const RvlaFrame frame = analytics::make_frame(
      Date::from_ymd(2022, 1, 1),
      std::vector<std::pair<Asn, double>>{
          {9, 10.0}, {3, 20.0}, {9, 30.0}, {1, 40.0}},
      false, none);
  EXPECT_EQ(frame.asns, (std::vector<Asn>{1, 3, 9}));
  EXPECT_EQ(frame.scores, (std::vector<double>{40.0, 20.0, 30.0}));
}

TEST(RvlaCodec, EncodeDecodeReencodeBitIdentical) {
  for (const std::vector<RvlaFrame>& frames : corpus()) {
    const RvlaImage image = analytics::encode_archive(frames);
    ASSERT_EQ(image.head.size(), analytics::kRvlaHeadSize);

    std::string error;
    const auto decoded =
        analytics::decode_archive(image.head, image.data, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(*decoded, frames);

    const RvlaImage again = analytics::encode_archive(*decoded);
    EXPECT_EQ(again.head, image.head);
    EXPECT_EQ(again.data, image.data);
  }
}

TEST(RvlaCodec, EmptyArchiveHeadInvariants) {
  const RvlaImage image = analytics::encode_archive({});
  std::string error;
  const auto head = analytics::decode_head(image.head, &error);
  ASSERT_TRUE(head.has_value()) << error;
  EXPECT_EQ(head->frame_count, 0u);
  EXPECT_EQ(head->data_size, analytics::kRvlaPreambleSize);
  EXPECT_EQ(head->last_frame_offset, 0u);
  EXPECT_EQ(image.data.size(), analytics::kRvlaPreambleSize);
}

TEST(RvlaCodec, EveryTruncationRejected) {
  for (const std::vector<RvlaFrame>& frames : corpus()) {
    const RvlaImage image = analytics::encode_archive(frames);
    for (std::size_t n = 0; n < image.head.size(); ++n) {
      std::string error;
      const std::vector<std::uint8_t> cut(image.head.begin(),
                                          image.head.begin() + n);
      EXPECT_FALSE(
          analytics::decode_archive(cut, image.data, &error).has_value())
          << "head truncated to " << n << " bytes accepted";
    }
    for (std::size_t n = 0; n < image.data.size(); ++n) {
      std::string error;
      const std::vector<std::uint8_t> cut(image.data.begin(),
                                          image.data.begin() + n);
      EXPECT_FALSE(
          analytics::decode_archive(image.head, cut, &error).has_value())
          << "data truncated to " << n << " bytes accepted";
    }
  }
}

TEST(RvlaCodec, EverySingleByteCorruptionRejected) {
  for (const std::vector<RvlaFrame>& frames : corpus()) {
    const RvlaImage image = analytics::encode_archive(frames);
    for (const std::uint8_t mask : {std::uint8_t{0xFF}, std::uint8_t{0x01}}) {
      for (std::size_t i = 0; i < image.head.size(); ++i) {
        std::vector<std::uint8_t> bad = image.head;
        bad[i] ^= mask;
        std::string error;
        EXPECT_FALSE(
            analytics::decode_archive(bad, image.data, &error).has_value())
            << "head byte " << i << " ^ " << int{mask} << " accepted";
      }
      for (std::size_t i = 0; i < image.data.size(); ++i) {
        std::vector<std::uint8_t> bad = image.data;
        bad[i] ^= mask;
        std::string error;
        EXPECT_FALSE(
            analytics::decode_archive(image.head, bad, &error).has_value())
            << "data byte " << i << " ^ " << int{mask} << " accepted";
      }
    }
  }
}

TEST(RvlaCodec, RejectsDatesGoingBackwards) {
  RoundHealth none;
  const Date d0 = Date::from_ymd(2022, 5, 1);
  // Hand-build a two-frame data file whose dates regress; the head is
  // made consistent so only the date check can reject it.
  std::vector<std::uint8_t> data = analytics::encode_data_preamble();
  const RvlaFrame f1 = analytics::make_frame(
      d0, std::vector<std::pair<Asn, double>>{{1, 1.0}}, false, none);
  const RvlaFrame f2 = analytics::make_frame(
      d0 - 1, std::vector<std::pair<Asn, double>>{{2, 2.0}}, false, none);
  const std::uint64_t off1 = data.size();
  const auto b1 = analytics::encode_frame(f1, 0);
  data.insert(data.end(), b1.begin(), b1.end());
  const std::uint64_t off2 = data.size();
  const auto b2 = analytics::encode_frame(f2, off1);
  data.insert(data.end(), b2.begin(), b2.end());
  RvlaHead head;
  head.frame_count = 2;
  head.data_size = data.size();
  head.last_frame_offset = off2;

  std::string error;
  EXPECT_FALSE(analytics::decode_archive(analytics::encode_head(head), data,
                                         &error)
                   .has_value());
  EXPECT_EQ(error, "frame: dates go backwards");
}

TEST(RvlaCodec, WireFuzzBattery) {
  // head || data concatenated; the codec splits at the fixed head size.
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const std::vector<RvlaFrame>& frames : corpus()) {
    const RvlaImage image = analytics::encode_archive(frames);
    std::vector<std::uint8_t> seed = image.head;
    seed.insert(seed.end(), image.data.begin(), image.data.end());
    seeds.push_back(std::move(seed));
  }
  const test::ParseReserialize codec =
      [](std::span<const std::uint8_t> input)
      -> std::optional<std::vector<std::uint8_t>> {
    if (input.size() < analytics::kRvlaHeadSize) return std::nullopt;
    std::string error;
    const auto frames = analytics::decode_archive(
        input.subspan(0, analytics::kRvlaHeadSize),
        input.subspan(analytics::kRvlaHeadSize), &error);
    if (!frames.has_value()) return std::nullopt;
    const RvlaImage image = analytics::encode_archive(*frames);
    std::vector<std::uint8_t> out = image.head;
    out.insert(out.end(), image.data.begin(), image.data.end());
    return out;
  };
  const test::WireFuzzStats stats =
      test::run_wire_fuzz("rvla", seeds, codec, 0x51A4C0DEu);
  // Every field is CRC-protected or validated, so no mutant survives;
  // the seeds themselves are the only accepted inputs.
  EXPECT_EQ(stats.accepted, 0u);
}

// ---------- writer / cursor ----------

std::vector<RvlaFrame> drain(const std::string& directory) {
  std::string error;
  auto cursor = RvlaCursor::open(directory, &error);
  EXPECT_TRUE(cursor.has_value()) << error;
  std::vector<RvlaFrame> out;
  if (!cursor.has_value()) return out;
  while (auto frame = cursor->next()) out.push_back(std::move(*frame));
  EXPECT_TRUE(cursor->done());
  EXPECT_FALSE(cursor->failed()) << cursor->error();
  return out;
}

/// The payload of the newest valid head slot: the head every reader
/// commits to.
std::vector<std::uint8_t> newest_head(const fs::path& dir) {
  std::vector<std::uint8_t> head;
  const auto choice = persist::load_newest_slot(
      analytics::RvlaPaths::in(dir.string()).heads(), "rvla",
      [&head](std::span<const std::uint8_t> payload, std::string*) {
        head.assign(payload.begin(), payload.end());
        return true;
      });
  EXPECT_TRUE(choice.has_value() && choice->slotted);
  return head;
}

TEST(RvlaIo, IncrementalAppendsMatchEncodeAtOnce) {
  for (const std::vector<RvlaFrame>& frames : corpus()) {
    TempDir dir;
    std::string error;
    auto writer = RvlaWriter::create(dir.path.string(), {}, &error);
    ASSERT_TRUE(writer.has_value()) << error;
    for (const RvlaFrame& frame : frames) {
      ASSERT_TRUE(writer->append(frame, &error)) << error;
    }
    const RvlaImage image = analytics::encode_archive(frames);
    const analytics::RvlaPaths paths =
        analytics::RvlaPaths::in(dir.path.string());
    EXPECT_EQ(newest_head(dir.path), image.head);
    EXPECT_EQ(read_bytes(paths.data), image.data);
    EXPECT_EQ(drain(dir.path.string()), frames);
  }
}

TEST(RvlaIo, CreateWithInitialFramesMatchesGrown) {
  const std::vector<RvlaFrame> frames = corpus().back();
  TempDir dir;
  std::string error;
  // Create over nothing, then atomically replace with a shorter archive:
  // the rewrite must fully supersede the old bytes.
  auto first = RvlaWriter::create(dir.path.string(), frames, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_EQ(drain(dir.path.string()), frames);

  const std::vector<RvlaFrame> shorter(frames.begin(), frames.end() - 1);
  auto second = RvlaWriter::create(dir.path.string(), shorter, &error);
  ASSERT_TRUE(second.has_value()) << error;
  const RvlaImage image = analytics::encode_archive(shorter);
  const analytics::RvlaPaths paths =
      analytics::RvlaPaths::in(dir.path.string());
  EXPECT_EQ(newest_head(dir.path), image.head);
  EXPECT_EQ(read_bytes(paths.data), image.data);
}

TEST(RvlaIo, CursorToleratesCrashDebrisStrictCodecDoesNot) {
  const std::vector<RvlaFrame> frames = corpus().back();
  TempDir dir;
  std::string error;
  auto writer = RvlaWriter::create(dir.path.string(), frames, &error);
  ASSERT_TRUE(writer.has_value()) << error;

  // A crash between the data append and the head commit leaves bytes past
  // the committed length. The cursor must ignore them...
  const analytics::RvlaPaths paths =
      analytics::RvlaPaths::in(dir.path.string());
  std::vector<std::uint8_t> data = read_bytes(paths.data);
  const std::vector<std::uint8_t> committed = data;
  for (int i = 0; i < 17; ++i) data.push_back(0xEE);
  write_bytes(paths.data, data);
  EXPECT_EQ(drain(dir.path.string()), frames);

  // ...the strict codec must not (it models exact committed bytes)...
  EXPECT_FALSE(
      analytics::decode_archive(newest_head(dir.path), data, &error)
          .has_value());

  // ...and the next append truncates the debris away before committing.
  RoundHealth none;
  const RvlaFrame extra = analytics::make_frame(
      frames.back().date + 10,
      std::vector<std::pair<Asn, double>>{{42, 75.0}}, false, none);
  ASSERT_TRUE(writer->append(extra, &error)) << error;
  std::vector<RvlaFrame> grown = frames;
  grown.push_back(extra);
  const RvlaImage image = analytics::encode_archive(grown);
  EXPECT_EQ(read_bytes(paths.data), image.data);
  EXPECT_EQ(drain(dir.path.string()), grown);
}

TEST(RvlaIo, DataCutBelowCommittedLengthFails) {
  const std::vector<RvlaFrame> frames = corpus().back();
  TempDir dir;
  std::string error;
  ASSERT_TRUE(RvlaWriter::create(dir.path.string(), frames, &error)
                  .has_value())
      << error;
  const analytics::RvlaPaths paths =
      analytics::RvlaPaths::in(dir.path.string());
  std::vector<std::uint8_t> data = read_bytes(paths.data);
  data.resize(data.size() - 1);
  write_bytes(paths.data, data);

  auto cursor = RvlaCursor::open(dir.path.string(), &error);
  bool failed = !cursor.has_value();
  if (cursor.has_value()) {
    while (cursor->next()) {
    }
    failed = cursor->failed();
  }
  EXPECT_TRUE(failed);
}

TEST(RvlaIo, CorruptHeadRefusesToOpen) {
  TempDir dir;
  std::string error;
  ASSERT_TRUE(RvlaWriter::create(dir.path.string(), corpus().back(), &error)
                  .has_value())
      << error;
  const analytics::RvlaPaths paths =
      analytics::RvlaPaths::in(dir.path.string());
  std::vector<std::uint8_t> head = read_bytes(paths.head);
  head[10] ^= 0xFF;
  write_bytes(paths.head, head);
  EXPECT_FALSE(RvlaCursor::open(dir.path.string(), &error).has_value());
  EXPECT_NE(error.find("head"), std::string::npos) << error;
}

// ---------- streaming queries vs the in-memory store ----------

core::AsScore as_score(Asn asn, double score) {
  core::AsScore s;
  s.asn = asn;
  s.score = score;
  return s;
}

/// One randomized series: parallel (store, archive) fed the same
/// rounds, plus the raw per-date last-write-wins rows for brute-force
/// churn checking.
struct Series {
  core::LongitudinalStore store;
  TempDir dir;
  std::map<Date, std::map<Asn, double>> rows_by_date;
};

void build_series(std::uint64_t seed, Series& out) {
  FuzzRng rng(seed);
  std::string error;
  auto writer = RvlaWriter::create(out.dir.path.string(), {}, &error);
  ASSERT_TRUE(writer.has_value()) << error;

  const Date base = Date::from_ymd(2021, 3, 10);
  int date_index = 0;
  const int rounds = 40;
  for (int round = 0; round < rounds; ++round) {
    // Mostly advance, sometimes re-record the same date.
    if (round > 0 && rng.below(100) >= 30) ++date_index;
    const Date date = base + 13 * date_index;

    std::vector<std::pair<Asn, double>> pairs;
    const std::size_t n = rng.below(9);  // occasionally an empty round
    for (std::size_t i = 0; i < n; ++i) {
      pairs.emplace_back(static_cast<Asn>(64500 + rng.below(12)),
                         12.5 * static_cast<double>(rng.below(9)));
    }
    const bool has_health = rng.below(4) == 0;
    const RoundHealth health = sample_health(rng.below(6));

    std::vector<core::AsScore> scores;
    scores.reserve(pairs.size());
    for (const auto& [asn, score] : pairs) {
      scores.push_back(as_score(asn, score));
    }
    out.store.record(date, scores);
    if (has_health) out.store.record_health(date, health);
    for (const auto& [asn, score] : pairs) {
      out.rows_by_date[date][asn] = score;
    }

    ASSERT_TRUE(writer->append(
        analytics::make_frame(date, pairs, has_health, health), &error))
        << error;
  }
}

void expect_queries_match_store(const Series& series) {
  const std::string dir = series.dir.path.string();
  const core::LongitudinalStore& store = series.store;
  std::string error;

  // Latest score per AS (Fig. 5 input).
  const auto latest = analytics::latest_scores(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  std::vector<std::pair<Asn, double>> store_latest;
  for (const Asn asn : store.ases()) {
    store_latest.emplace_back(asn, *store.latest_score(asn));
  }
  EXPECT_EQ(*latest, store_latest);
  {
    std::vector<std::pair<Asn, double>> with_asn;
    const std::vector<double> plain = store.latest_scores();
    for (std::size_t i = 0; i < plain.size(); ++i) {
      with_asn.emplace_back(store_latest[i].first, plain[i]);
    }
    EXPECT_EQ(analytics::latest_cdf_csv(*latest),
              analytics::latest_cdf_csv(with_asn));
  }

  // Fig. 6 trend at several thresholds.
  for (const double threshold : {0.0, 50.0, 100.0}) {
    const auto trend = analytics::fraction_trend(dir, threshold, &error);
    ASSERT_TRUE(trend.has_value()) << error;
    std::vector<std::pair<Date, double>> store_trend;
    for (const Date date : store.dates()) {
      store_trend.emplace_back(date,
                               store.fraction_at_least(date, threshold));
    }
    EXPECT_EQ(*trend, store_trend) << "threshold " << threshold;
  }

  // Per-AS series, including an AS the archive never saw.
  std::vector<Asn> probe = store.ases();
  probe.push_back(1);
  for (const Asn asn : probe) {
    const auto got = analytics::as_series(dir, asn, &error);
    ASSERT_TRUE(got.has_value()) << error;
    EXPECT_EQ(*got, store.series(asn)) << "asn " << asn;
    EXPECT_EQ(analytics::series_csv(asn, *got),
              analytics::series_csv(asn, store.series(asn)));
  }

  // §7.3 jumps across several windows (including degenerate low >= high).
  const std::pair<double, double> windows[] = {
      {0.0, 100.0}, {25.0, 75.0}, {0.0, 50.0}, {100.0, 0.0}};
  for (const auto& [low, high] : windows) {
    const auto jumps = analytics::score_jumps(dir, low, high, &error);
    ASSERT_TRUE(jumps.has_value()) << error;
    EXPECT_EQ(*jumps, store.score_jumps(low, high))
        << "window " << low << ".." << high;
  }

  // Churn vs brute force over the recorded rows.
  const auto churn = analytics::churn(dir, &error);
  ASSERT_TRUE(churn.has_value()) << error;
  std::vector<analytics::ChurnRow> expected;
  const std::map<Asn, double>* prev = nullptr;
  Date prev_date;
  for (const auto& [date, rows] : series.rows_by_date) {
    if (rows.empty()) continue;
    if (prev != nullptr) {
      analytics::ChurnRow row;
      row.from = prev_date;
      row.to = date;
      double total = 0.0;
      for (const auto& [asn, score] : rows) {
        const auto it = prev->find(asn);
        if (it == prev->end()) continue;
        ++row.measured_both;
        if (score != it->second) ++row.changed;
        total += score > it->second ? score - it->second
                                    : it->second - score;
      }
      row.mean_abs_delta =
          row.measured_both == 0
              ? 0.0
              : total / static_cast<double>(row.measured_both);
      expected.push_back(row);
    }
    prev = &rows;
    prev_date = date;
  }
  ASSERT_EQ(churn->size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*churn)[i].from, expected[i].from);
    EXPECT_EQ((*churn)[i].to, expected[i].to);
    EXPECT_EQ((*churn)[i].measured_both, expected[i].measured_both);
    EXPECT_EQ((*churn)[i].changed, expected[i].changed);
    EXPECT_DOUBLE_EQ((*churn)[i].mean_abs_delta, expected[i].mean_abs_delta);
  }

  // Published dataset: byte-identical to core::publish_scores.
  TempDir from_store;
  TempDir from_archive;
  ASSERT_TRUE(
      core::publish_scores(store, from_store.path.string()).has_value());
  const auto written =
      analytics::publish_archive(dir, from_archive.path.string(), &error);
  ASSERT_TRUE(written.has_value()) << error;
  EXPECT_EQ(*written, store.dates().size());

  std::map<std::string, std::vector<std::uint8_t>> a, b;
  for (const auto& entry : fs::directory_iterator(from_store.path)) {
    a[entry.path().filename().string()] = read_bytes(entry.path());
  }
  for (const auto& entry : fs::directory_iterator(from_archive.path)) {
    b[entry.path().filename().string()] = read_bytes(entry.path());
  }
  EXPECT_EQ(a, b);
}

TEST(RvlaQueries, RandomizedSeriesMatchStoreBitForBit) {
  for (const std::uint64_t seed : {1ull, 42ull, 2023ull, 65537ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Series series;
    build_series(seed, series);
    if (::testing::Test::HasFatalFailure()) return;
    expect_queries_match_store(series);
  }
}

TEST(RvlaQueries, ArchiveInfoSummarizes) {
  Series series;
  build_series(7, series);
  if (::testing::Test::HasFatalFailure()) return;

  std::string error;
  const auto info = analytics::archive_info(series.dir.path.string(), &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->frames, 40u);
  EXPECT_EQ(info->as_count, series.store.as_count());
  EXPECT_EQ(info->date_count, series.store.dates().size());
  ASSERT_TRUE(info->first_date.has_value());
  EXPECT_EQ(*info->first_date, series.store.dates().front());
  EXPECT_EQ(*info->last_date, series.store.dates().back());
}

TEST(RvlaQueries, EmptyArchiveAnswersEmpty) {
  TempDir dir;
  std::string error;
  ASSERT_TRUE(RvlaWriter::create(dir.path.string(), {}, &error).has_value())
      << error;
  const auto info = analytics::archive_info(dir.path.string(), &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->frames, 0u);
  EXPECT_FALSE(info->first_date.has_value());
  const auto latest = analytics::latest_scores(dir.path.string(), &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_TRUE(latest->empty());
}

TEST(RvlaQueries, DamagedArchiveFailsEveryQuery) {
  Series series;
  build_series(11, series);
  if (::testing::Test::HasFatalFailure()) return;
  const analytics::RvlaPaths paths =
      analytics::RvlaPaths::in(series.dir.path.string());
  std::vector<std::uint8_t> data = read_bytes(paths.data);
  data[data.size() / 2] ^= 0x40;
  write_bytes(paths.data, data);

  std::string error;
  EXPECT_FALSE(
      analytics::latest_scores(series.dir.path.string(), &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ---------- serve warm start ----------

// ---------- warm start ----------

/// The oracle for ScoreFeed::seed_from_archive: the warm-start snapshot
/// folded from an in-memory store — every AS's full series as its
/// trajectory, the last date's scores formatted as the published CSV
/// writes them, one completed round per measurement date.
serve::RoundSnapshot snapshot_from_store(
    const core::LongitudinalStore& store) {
  serve::RoundSnapshot snapshot;
  const std::vector<Date> dates = store.dates();
  if (dates.empty()) return snapshot;
  auto trajectory = std::make_shared<serve::RoundSnapshot::Trajectory>();
  for (const Asn asn : store.ases()) {
    for (const auto& [date, score] : store.series(asn)) {
      (*trajectory)[asn].push_back(
          serve::TrajectoryPoint{date.days_since_epoch(), score});
    }
  }
  for (const Asn asn : store.ases_on(dates.back())) {
    core::AsScore s;
    s.asn = asn;
    s.score = *store.score_on(asn, dates.back());
    snapshot.scores.push_back(s);
    snapshot.score_strs.push_back(util::fmt_double(s.score, 2));
  }
  snapshot.date = dates.back();
  snapshot.trajectory = std::move(trajectory);
  snapshot.rounds_completed = dates.size();
  return snapshot;
}

void expect_same_snapshot(const serve::RoundSnapshot& a,
                          const serve::RoundSnapshot& b) {
  EXPECT_EQ(a.date, b.date);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.score_strs, b.score_strs);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i].asn, b.scores[i].asn);
    EXPECT_EQ(a.scores[i].score, b.scores[i].score);
  }
  ASSERT_NE(a.trajectory, nullptr);
  ASSERT_NE(b.trajectory, nullptr);
  ASSERT_EQ(a.trajectory->size(), b.trajectory->size());
  for (const auto& [asn, points] : *a.trajectory) {
    const auto it = b.trajectory->find(asn);
    ASSERT_NE(it, b.trajectory->end());
    ASSERT_EQ(points.size(), it->second.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].date_days, it->second[i].date_days);
      EXPECT_EQ(points[i].score, it->second[i].score);
    }
  }
}

TEST(RvlaServe, SeedFromArchiveMatchesSeedFromStore) {
  Series series;
  build_series(42, series);
  if (::testing::Test::HasFatalFailure()) return;

  serve::ScoreFeed from_archive;
  ASSERT_TRUE(from_archive.seed_from_archive(series.dir.path.string()));
  ASSERT_NE(from_archive.current(), nullptr);
  expect_same_snapshot(snapshot_from_store(series.store),
                       *from_archive.current());
}

TEST(RvlaServe, ResumedArchiveSeedsTheRestoredStore) {
  // Three rounds archived, a checkpoint after the second: the resumed
  // runner cuts its archive back to two frames, and a feed seeded from
  // that archive serves exactly the restored store.
  TempDir archive;
  TempDir checkpoints;
  TempDir after_two;
  incremental::IncrementalConfig config;
  config.params = testfx::round_params();
  config.rovista = testfx::round_config();
  config.archive_dir = archive.path.string();
  config.checkpoint_dir = checkpoints.path.string();
  const Date start = config.params.start;
  {
    incremental::IncrementalLongitudinalRunner runner(config);
    runner.run_round(start + 150);
    runner.run_round(start + 171);
    fs::copy(checkpoints.path, after_two.path, fs::copy_options::recursive);
    runner.run_round(start + 215);
  }
  config.checkpoint_dir = after_two.path.string();
  incremental::IncrementalLongitudinalRunner resumed(config);
  ASSERT_TRUE(resumed.resume_from_checkpoint());
  ASSERT_EQ(resumed.completed_rounds(), 2u);

  serve::ScoreFeed feed;
  ASSERT_TRUE(feed.seed_from_archive(resumed.archive_dir()));
  ASSERT_NE(feed.current(), nullptr);
  EXPECT_EQ(feed.current()->rounds_completed, 2u);
  expect_same_snapshot(snapshot_from_store(resumed.store()), *feed.current());
}

TEST(RvlaServe, SeedFromMissingOrEmptyArchiveFails) {
  TempDir dir;
  serve::ScoreFeed feed;
  EXPECT_FALSE(feed.seed_from_archive(dir.path.string() + "-nowhere"));
  std::string error;
  ASSERT_TRUE(RvlaWriter::create(dir.path.string(), {}, &error).has_value())
      << error;
  EXPECT_FALSE(feed.seed_from_archive(dir.path.string()));
  EXPECT_EQ(feed.current(), nullptr);
}

}  // namespace
