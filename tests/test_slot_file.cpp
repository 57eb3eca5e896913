// Two-slot commit tests (src/persist/slot_file + its two users).
//
// Every case builds, directly on the files, a state a crash can leave
// behind — a torn or truncated newest slot, both slots torn, stale
// higher-seq slots, unslotted files from older builds — so no I/O shim
// is needed:
//
//  - the slot codec: round trip, and no truncation or single-byte
//    corruption of an image still reads as a valid slot,
//  - the writer: an empty directory's first commit lands in slot 0,
//    commits alternate, no commit touches the slot holding the newest
//    valid record, a writer opened on a corrupt newest slot commits
//    into it, and a first commit out-ranks every seq on disk,
//  - RVCP checkpoints: a torn newest slot (every truncation, every byte
//    flip) loads the previous CheckpointState and logs the rejection;
//    both torn → nullopt; the unslotted version 1/2 checkpoint.bin /
//    checkpoint.bin.1 of pre-slot builds are refused with a log line,
//    and a writer commits over them,
//  - RVLA heads: a torn newest head slot opens the previous head, so
//    the cursor yields exactly the earlier frames and tolerates the last
//    append as debris; both torn → an error naming the head; a raw
//    36-byte archive.head still opens.
//
// Runs under ASan+UBSan in scripts/tier1.sh with the checkpoint suites.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytics/rvla.h"
#include "analytics/rvla_io.h"
#include "persist/checkpoint.h"
#include "persist/checkpoint_io.h"
#include "persist/slot_file.h"
#include "util/logging.h"

namespace {

using namespace rovista;
using persist::SlotFile;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("rovista-slot-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int counter;
};
int TempDir::counter = 0;

template <typename Fn>
std::string capture_log(Fn&& fn) {
  std::FILE* sink = std::tmpfile();
  EXPECT_NE(sink, nullptr);
  const util::LogLevel before = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  util::set_log_sink(sink);
  fn();
  util::set_log_sink(nullptr);
  util::set_log_level(before);
  std::string out;
  std::rewind(sink);
  char buf[512];
  while (std::fgets(buf, sizeof buf, sink) != nullptr) out += buf;
  std::fclose(sink);
  return out;
}

std::vector<std::uint8_t> read_bytes(const fs::path& p) {
  auto bytes = persist::read_file_bytes(p.string());
  return bytes.has_value() ? *bytes : std::vector<std::uint8_t>{};
}

void write_bytes(const fs::path& p, std::span<const std::uint8_t> bytes) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

persist::SlotPair pair_in(const TempDir& dir) {
  return {(dir.path / "rec").string(), (dir.path / "rec.1").string()};
}

persist::SlotWriter open_writer(const persist::SlotPair& pair) {
  std::string error;
  auto writer = persist::SlotWriter::open(
      pair, [](std::span<const std::uint8_t>) { return true; }, &error);
  EXPECT_TRUE(writer.has_value()) << error;
  return std::move(*writer);
}

void commit(persist::SlotWriter& writer, const std::string& payload) {
  std::string error;
  ASSERT_TRUE(writer.commit(bytes_of(payload), &error)) << error;
}

/// What load_newest_slot picks when every payload is acceptable.
std::optional<std::pair<persist::SlotChoice, std::string>> newest(
    const persist::SlotPair& pair) {
  std::string payload;
  const auto choice = persist::load_newest_slot(
      pair, "slot", [&payload](std::span<const std::uint8_t> p, std::string*) {
        payload.assign(p.begin(), p.end());
        return true;
      });
  if (!choice.has_value()) return std::nullopt;
  return std::pair{*choice, payload};
}

// ---------- codec ----------

TEST(SlotFile, EncodeDecodeRoundTrip) {
  for (const std::string& payload : {std::string(), std::string("x"),
                                     std::string(300, 'p')}) {
    const auto image = persist::encode_slot(42, bytes_of(payload));
    ASSERT_EQ(image.size(), persist::kSlotHeaderSize + payload.size());
    const SlotFile f = persist::decode_slot(image);
    ASSERT_EQ(f.kind, SlotFile::Kind::kValid) << f.why;
    EXPECT_EQ(f.seq, 42u);
    EXPECT_EQ(std::string(f.payload().begin(), f.payload().end()), payload);
  }
  EXPECT_EQ(persist::decode_slot({}).kind, SlotFile::Kind::kAbsent);
  EXPECT_EQ(persist::decode_slot(bytes_of("RVCP....")).kind,
            SlotFile::Kind::kUnslotted);
}

TEST(SlotFile, NoTruncationOrByteFlipReadsAsValid) {
  const auto image = persist::encode_slot(7, bytes_of("a checkpoint image"));
  for (std::size_t len = 0; len < image.size(); ++len) {
    const SlotFile f = persist::decode_slot(
        std::vector<std::uint8_t>(image.begin(), image.begin() + len));
    EXPECT_NE(f.kind, SlotFile::Kind::kValid) << "length " << len;
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> bad = image;
      bad[i] ^= mask;
      EXPECT_NE(persist::decode_slot(bad).kind, SlotFile::Kind::kValid)
          << "byte " << i;
    }
  }
  // Trailing bytes past the header's length are refused too.
  std::vector<std::uint8_t> longer = image;
  longer.push_back(0);
  EXPECT_EQ(persist::decode_slot(longer).kind, SlotFile::Kind::kTorn);
}

// ---------- writer ----------

TEST(SlotFile, FirstCommitLandsInSlotZeroThenAlternates) {
  TempDir dir;
  const persist::SlotPair pair = pair_in(dir);
  persist::SlotWriter writer = open_writer(pair);
  EXPECT_TRUE(fs::exists(pair[0]));
  EXPECT_TRUE(fs::exists(pair[1]));
  EXPECT_EQ(fs::file_size(pair[1]), 0u);  // created empty: absent
  EXPECT_FALSE(newest(pair).has_value());

  commit(writer, "one");
  EXPECT_EQ(read_bytes(pair[0]), persist::encode_slot(1, bytes_of("one")));
  commit(writer, "two");
  EXPECT_EQ(read_bytes(pair[1]), persist::encode_slot(2, bytes_of("two")));
  commit(writer, "three");
  EXPECT_EQ(read_bytes(pair[0]), persist::encode_slot(3, bytes_of("three")));
  const auto got = newest(pair);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first.slot, 0);
  EXPECT_EQ(got->first.seq, 3u);
  EXPECT_EQ(got->second, "three");
}

TEST(SlotFile, CommitNeverTouchesNewestValidSlot) {
  TempDir dir;
  const persist::SlotPair pair = pair_in(dir);
  std::optional<persist::SlotWriter> writer = open_writer(pair);
  for (int step = 0; step < 24; ++step) {
    // Between some commits, damage the older slot or reopen the writer,
    // as a crash and restart would.
    if (step % 5 == 3) {
      const auto got = newest(pair);
      ASSERT_TRUE(got.has_value());
      const std::string other = pair[1 - got->first.slot];
      auto bytes = read_bytes(other);
      bytes.resize(bytes.size() / 2);
      write_bytes(other, bytes);
    }
    if (step % 4 == 2) writer = open_writer(pair);

    const auto before = newest(pair);
    const std::vector<std::uint8_t> kept =
        before.has_value() ? read_bytes(pair[before->first.slot])
                           : std::vector<std::uint8_t>{};
    const std::string payload = "record " + std::to_string(step);
    commit(*writer, payload);
    if (before.has_value()) {
      EXPECT_EQ(read_bytes(pair[before->first.slot]), kept) << "step " << step;
    }
    const auto after = newest(pair);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->second, payload);
    if (before.has_value()) {
      EXPECT_NE(after->first.slot, before->first.slot);
      EXPECT_GT(after->first.seq, before->first.seq);
    }
  }
}

TEST(SlotFile, WriterOnCorruptNewestSlotCommitsIntoIt) {
  TempDir dir;
  const persist::SlotPair pair = pair_in(dir);
  {
    persist::SlotWriter writer = open_writer(pair);
    commit(writer, "older");  // slot 0, seq 1
    commit(writer, "newer");  // slot 1, seq 2
  }
  auto torn = read_bytes(pair[1]);
  torn.back() ^= 0x55;  // payload flip: header (seq 2) survives
  write_bytes(pair[1], torn);
  const std::vector<std::uint8_t> valid = read_bytes(pair[0]);

  persist::SlotWriter writer = open_writer(pair);
  commit(writer, "latest");
  EXPECT_EQ(read_bytes(pair[0]), valid);
  // Into the torn slot, above the torn image's seq 2.
  EXPECT_EQ(read_bytes(pair[1]), persist::encode_slot(3, bytes_of("latest")));
}

TEST(SlotFile, FirstCommitOutranksStaleHigherSeqSlots) {
  TempDir dir;
  const persist::SlotPair pair = pair_in(dir);
  write_bytes(pair[0], persist::encode_slot(100, bytes_of("stale newest")));
  write_bytes(pair[1], persist::encode_slot(7, bytes_of("stale older")));
  {
    persist::SlotWriter writer = open_writer(pair);
    commit(writer, "fresh");
  }
  auto got = newest(pair);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, "fresh");
  EXPECT_EQ(got->first.slot, 1);
  EXPECT_EQ(got->first.seq, 101u);

  // A torn image's seq counts as well: a header claiming seq 500 must
  // not out-rank the next commit once that slot is rewritten.
  auto torn = persist::encode_slot(500, bytes_of("torn"));
  torn.resize(torn.size() - 1);
  write_bytes(pair[1], torn);
  {
    persist::SlotWriter writer = open_writer(pair);
    commit(writer, "after torn");
    EXPECT_EQ(read_bytes(pair[1]),
              persist::encode_slot(501, bytes_of("after torn")));
    commit(writer, "and again");
  }
  got = newest(pair);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, "and again");
  EXPECT_EQ(got->first.seq, 502u);
}

TEST(SlotFile, EmptySlotIsAbsentAndSilent) {
  TempDir dir;
  const persist::SlotPair pair = pair_in(dir);
  write_bytes(pair[0], {});
  write_bytes(pair[1], persist::encode_slot(3, bytes_of("only")));
  std::optional<std::pair<persist::SlotChoice, std::string>> got;
  const std::string log = capture_log([&] { got = newest(pair); });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, "only");
  EXPECT_TRUE(log.empty()) << log;
}

TEST(SlotFile, RetireEmptiesBothSlots) {
  TempDir dir;
  const persist::SlotPair pair = pair_in(dir);
  persist::SlotWriter writer = open_writer(pair);
  commit(writer, "a");
  commit(writer, "b");
  std::string error;
  ASSERT_TRUE(writer.retire(&error)) << error;
  EXPECT_EQ(fs::file_size(pair[0]), 0u);
  EXPECT_EQ(fs::file_size(pair[1]), 0u);
  EXPECT_FALSE(newest(pair).has_value());
  commit(writer, "c");
  EXPECT_EQ(read_bytes(pair[0]), persist::encode_slot(3, bytes_of("c")));
}

// ---------- RVCP checkpoints ----------

persist::CheckpointState tagged_state(std::uint64_t tag, int rounds) {
  persist::CheckpointState s;
  s.config_digest = 0x1122334455667788ull;
  s.user_tag = tag;
  s.archive.frames = static_cast<std::uint64_t>(rounds);
  s.archive.length = 8 + 53 * s.archive.frames;
  s.archive.crc = 0x9E3779B9u * static_cast<std::uint32_t>(rounds + 1);
  return s;
}

/// Two commits through one CheckpointWriter; returns the newest slot.
std::string write_two(const TempDir& dir, const persist::CheckpointState& a,
                      const persist::CheckpointState& b) {
  auto writer = persist::CheckpointWriter::open(dir.path.string());
  EXPECT_TRUE(writer.has_value());
  EXPECT_TRUE(writer->write(a));
  EXPECT_TRUE(writer->write(b));
  const auto loaded = persist::load_checkpoint_slot(dir.path.string());
  EXPECT_TRUE(loaded.has_value());
  return persist::CheckpointPaths::in(dir.path.string())
      .slots()[loaded->second.slot];
}

TEST(SlotFile, CheckpointTornNewestSlotLoadsPreviousState) {
  TempDir dir;
  const persist::CheckpointState previous = tagged_state(1, 2);
  const persist::CheckpointState latest = tagged_state(2, 3);
  const std::string newest_slot = write_two(dir, previous, latest);
  const std::vector<std::uint8_t> image = read_bytes(newest_slot);
  const std::vector<std::uint8_t> want = persist::encode_checkpoint(previous);

  const auto expect_previous = [&](const std::string& label, bool logs) {
    std::optional<persist::CheckpointState> got;
    const std::string log = capture_log(
        [&] { got = persist::load_checkpoint_file(dir.path.string()); });
    ASSERT_TRUE(got.has_value()) << label;
    EXPECT_EQ(persist::encode_checkpoint(*got), want) << label;
    if (logs) {
      EXPECT_NE(log.find("checkpoint: rejecting " + newest_slot),
                std::string::npos)
          << label << ": " << log;
    } else {
      EXPECT_TRUE(log.empty()) << label << ": " << log;
    }
  };
  for (std::size_t len = 0; len < image.size(); ++len) {
    write_bytes(newest_slot, std::span(image).first(len));
    expect_previous("truncated to " + std::to_string(len), len > 0);
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::vector<std::uint8_t> bad = image;
    bad[i] ^= 0x20;
    write_bytes(newest_slot, bad);
    expect_previous("byte " + std::to_string(i) + " flipped", true);
  }
}

TEST(SlotFile, CheckpointBothSlotsTornIsNullopt) {
  TempDir dir;
  write_two(dir, tagged_state(1, 1), tagged_state(2, 2));
  for (const std::string& slot :
       persist::CheckpointPaths::in(dir.path.string()).slots()) {
    auto bytes = read_bytes(slot);
    bytes[persist::kSlotHeaderSize + 3] ^= 0xFF;
    write_bytes(slot, bytes);
  }
  std::optional<persist::CheckpointState> got;
  const std::string log = capture_log(
      [&] { got = persist::load_checkpoint_file(dir.path.string()); });
  EXPECT_FALSE(got.has_value());
  EXPECT_NE(log.find("checkpoint.bin.1"), std::string::npos) << log;
}

TEST(SlotFile, LegacyCheckpointFilesAreRefused) {
  // Pre-slot builds wrote a bare RVCP image of format version 1 or 2,
  // whose CURSOR held every round. This build resumes only from version
  // 3, so both are logged refusals: the series cold-starts.
  TempDir dir;
  const auto paths = persist::CheckpointPaths::in(dir.path.string());
  const fs::path data = ROVISTA_TEST_DATA_DIR;
  fs::copy_file(data / "checkpoint_v1.rvcp", paths.current);
  fs::copy_file(data / "checkpoint_v2.rvcp", paths.previous);
  EXPECT_EQ(persist::read_slot(paths.current).kind,
            persist::SlotFile::Kind::kUnslotted);

  std::optional<std::pair<persist::CheckpointState, persist::SlotChoice>>
      loaded;
  std::string log = capture_log(
      [&] { loaded = persist::load_checkpoint_slot(dir.path.string()); });
  EXPECT_FALSE(loaded.has_value());
  for (const std::string& slot : paths.slots()) {
    EXPECT_NE(log.find("checkpoint: rejecting " + slot), std::string::npos)
        << log;
  }
  EXPECT_NE(log.find("not resumable by this build"), std::string::npos)
      << log;

  // A writer spares neither: its first commit lands in slot 0, and the
  // series checkpoints as usual from then on.
  log = capture_log([&] {
    ASSERT_TRUE(persist::write_checkpoint_file(dir.path.string(),
                                               tagged_state(3, 3)));
  });
  loaded = persist::load_checkpoint_slot(dir.path.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->first.user_tag, 3u);
  EXPECT_TRUE(loaded->second.slotted);
  EXPECT_EQ(loaded->second.slot, 0);
}

// ---------- RVLA heads ----------

std::vector<analytics::RvlaFrame> frames(int n) {
  std::vector<analytics::RvlaFrame> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(analytics::make_frame(
        util::Date::from_ymd(2021, 7, 1) + i,
        std::vector<std::pair<core::Asn, double>>{
            {7, 12.5 * i}, {9, 100.0 - i}},
        false, core::RoundHealth{}));
  }
  return out;
}

/// Frames the cursor yields; empty with `*failed` set when it refuses.
std::vector<analytics::RvlaFrame> drain(const std::string& dir,
                                        std::string* error) {
  std::vector<analytics::RvlaFrame> out;
  auto cursor = analytics::RvlaCursor::open(dir, error);
  if (!cursor.has_value()) return out;
  while (auto frame = cursor->next()) out.push_back(std::move(*frame));
  EXPECT_TRUE(cursor->done()) << cursor->error();
  return out;
}

TEST(SlotFile, ArchiveTornNewestHeadYieldsPreviousFrames) {
  TempDir dir;
  const std::string d = dir.path.string();
  const auto all = frames(3);
  std::string error;
  {
    auto writer = analytics::RvlaWriter::create(d, {}, &error);
    ASSERT_TRUE(writer.has_value()) << error;
    for (const auto& frame : all) ASSERT_TRUE(writer->append(frame, &error));
  }
  const analytics::RvlaPaths paths = analytics::RvlaPaths::in(d);
  const auto choice = persist::load_newest_slot(
      paths.heads(), "rvla",
      [](std::span<const std::uint8_t>, std::string*) { return true; });
  ASSERT_TRUE(choice.has_value());
  const std::string newest_head = paths.heads()[choice->slot];
  const std::vector<std::uint8_t> image = read_bytes(newest_head);
  const std::vector<analytics::RvlaFrame> earlier(all.begin(), all.end() - 1);

  const auto expect_earlier = [&](const std::string& label) {
    std::vector<analytics::RvlaFrame> got;
    capture_log([&] { got = drain(d, &error); });
    EXPECT_EQ(got, earlier) << label << ": " << error;
  };
  for (std::size_t len = 0; len < image.size(); ++len) {
    write_bytes(newest_head, std::span(image).first(len));
    expect_earlier("truncated to " + std::to_string(len));
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::vector<std::uint8_t> bad = image;
    bad[i] ^= 0x04;
    write_bytes(newest_head, bad);
    expect_earlier("byte " + std::to_string(i) + " flipped");
  }
}

TEST(SlotFile, ArchiveBothHeadsTornRefusesNamingTheHead) {
  TempDir dir;
  const std::string d = dir.path.string();
  std::string error;
  {
    auto writer = analytics::RvlaWriter::create(d, frames(1), &error);
    ASSERT_TRUE(writer.has_value()) << error;
    ASSERT_TRUE(writer->append(frames(2).back(), &error)) << error;
  }
  for (const std::string& head : analytics::RvlaPaths::in(d).heads()) {
    auto bytes = read_bytes(head);
    ASSERT_FALSE(bytes.empty());
    bytes[persist::kSlotHeaderSize + 9] ^= 0xFF;
    write_bytes(head, bytes);
  }
  capture_log([&] {
    EXPECT_FALSE(analytics::RvlaCursor::open(d, &error).has_value());
  });
  EXPECT_NE(error.find("archive.head"), std::string::npos) << error;
}

TEST(SlotFile, LegacyArchiveHeadStillOpens) {
  TempDir dir;
  const std::string d = dir.path.string();
  const auto all = frames(2);
  std::string error;
  ASSERT_TRUE(analytics::RvlaWriter::create(d, all, &error).has_value())
      << error;
  const analytics::RvlaPaths paths = analytics::RvlaPaths::in(d);
  fs::remove(paths.head1);
  write_bytes(paths.head, analytics::encode_archive(all).head);
  EXPECT_EQ(drain(d, &error), all) << error;
}

}  // namespace
