// Checkpoint subsystem tests (src/persist + engine resume):
//
//  - wire primitives: round trips, known CRC32/FNV vectors, the
//    slicing-by-8 CRC against a bytewise reference, reader bounds
//    latching,
//  - container: encode→decode→re-encode is byte-identical (canonical
//    encoding), every strict prefix is rejected (truncation at every
//    byte, which covers every section boundary), every single-byte
//    corruption is rejected (header, table and payload CRCs leave no
//    unprotected byte), per-section CRC diagnostics name the section,
//    and the version 1/2 images of earlier builds are refused, as is
//    the version 3 image of a full-recompute series (META mode byte 0),
//  - crash-safe files: write/load through the two checkpoint slots,
//    fallback to the older slot when the newest is corrupt,
//    corrupted-everything → logged nullopt (the crash-window battery of
//    the slot primitive itself lives in tests/test_slot_file.cpp),
//  - engine resume: a runner restored from the round-k checkpoint and
//    its archive finishes the series bit-identically to an
//    uninterrupted run at 1/2/4/8 threads (scores, observations,
//    published CSV bytes and archive bytes), an archive holding frames
//    past the checkpoint is cut back to it, the checkpoint stays the
//    same size as rounds accumulate, and every refusal path (digest /
//    tag mismatch, corrupt file, archive missing, short or of another
//    series, archive that cannot be created) degrades to a
//    logged cold start that touches neither the runner nor the
//    archive.
//
// The container and corruption cases run under ASan+UBSan in
// scripts/tier1.sh — the loader must stay clean on attacker-grade input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analytics/queries.h"
#include "analytics/rvla_io.h"
#include "core/publish.h"
#include "incremental/longitudinal_engine.h"
#include "incremental/score_cache.h"
#include "persist/checkpoint.h"
#include "persist/checkpoint_io.h"
#include "persist/wire.h"
#include "round_fixture.h"
#include "util/logging.h"

namespace {

using namespace rovista;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("rovista-ckpt-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
  }
  ~TempDir() { fs::remove_all(path); }
  static int counter;
};
int TempDir::counter = 0;

// Capture everything the logging sink emits while `fn` runs.
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

// ---------- wire primitives ----------

TEST(Wire, WriterReaderRoundTrip) {
  persist::ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-1234567890123LL);
  w.f64(3.141592653589793);
  w.f64(-0.0);

  persist::ByteReader r(w.data());
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  std::int64_t e = 0;
  double f = 0.0;
  double g = 1.0;
  EXPECT_TRUE(r.u8(a));
  EXPECT_TRUE(r.u16(b));
  EXPECT_TRUE(r.u32(c));
  EXPECT_TRUE(r.u64(d));
  EXPECT_TRUE(r.i64(e));
  EXPECT_TRUE(r.f64(f));
  EXPECT_TRUE(r.f64(g));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xBEEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFull);
  EXPECT_EQ(e, -1234567890123LL);
  EXPECT_EQ(f, 3.141592653589793);
  EXPECT_EQ(std::signbit(g), true);  // -0.0 round-trips bit-exactly
  EXPECT_TRUE(r.exhausted_ok());
}

TEST(Wire, NanPayloadRoundTripsBitExactly) {
  double weird;
  std::uint64_t bits = 0x7FF80000DEADBEEFull;  // NaN with a payload
  std::memcpy(&weird, &bits, sizeof weird);
  persist::ByteWriter w;
  w.f64(weird);
  persist::ByteReader r(w.data());
  double out = 0.0;
  ASSERT_TRUE(r.f64(out));
  std::uint64_t out_bits = 0;
  std::memcpy(&out_bits, &out, sizeof out);
  EXPECT_EQ(out_bits, bits);
}

TEST(Wire, LittleEndianOnDisk) {
  persist::ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[1], 0x03);
  EXPECT_EQ(w.data()[2], 0x02);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Wire, ReaderLatchesOnOverread) {
  persist::ByteWriter w;
  w.u16(7);
  persist::ByteReader r(w.data());
  std::uint32_t v = 0;
  EXPECT_FALSE(r.u32(v));  // 4 > 2 remaining
  EXPECT_TRUE(r.failed());
  std::uint8_t b = 0;
  EXPECT_FALSE(r.u8(b));  // latched: even a fitting read now fails
}

TEST(Wire, Crc32KnownVector) {
  // The standard CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(persist::crc32(std::span(
                reinterpret_cast<const std::uint8_t*>(s), 9)),
            0xCBF43926u);
}

// The textbook one-table CRC-32, one byte per step: the oracle the
// slicing-by-8 persist::crc32 must match.
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Wire, Crc32MatchesBytewiseReference) {
  const char* check = "123456789";
  const std::span<const std::uint8_t> nine(
      reinterpret_cast<const std::uint8_t*>(check), 9);
  EXPECT_EQ(persist::crc32(nine), 0xCBF43926u);
  EXPECT_EQ(bytewise_crc32(nine), 0xCBF43926u);
  EXPECT_EQ(persist::crc32({}), 0u);
  EXPECT_EQ(bytewise_crc32({}), 0u);

  // Random buffers of every length class, read from unaligned starts so
  // the 8-byte folds see every phase of the tail loop.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::vector<std::uint8_t> pool(4100 + 8);
  for (std::uint8_t& b : pool) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  for (std::size_t len = 0; len <= 4100; len += (len < 80 ? 1 : 97)) {
    for (std::size_t start = 0; start < 8; ++start) {
      const std::span<const std::uint8_t> buf(pool.data() + start, len);
      ASSERT_EQ(persist::crc32(buf), bytewise_crc32(buf))
          << "length " << len << " offset " << start;
    }
  }
  const std::span<const std::uint8_t> all(pool.data() + 3, 4100);
  EXPECT_EQ(persist::crc32(all), bytewise_crc32(all));
}

TEST(Wire, Fnv1a64KnownVectors) {
  EXPECT_EQ(persist::fnv1a64({}), 0xcbf29ce484222325ull);
  const char* a = "a";
  EXPECT_EQ(persist::fnv1a64(std::span(
                reinterpret_cast<const std::uint8_t*>(a), 1)),
            0xaf63dc4c8601ec8cull);
}

// ---------- container encode/decode ----------

persist::CheckpointState sample_state() {
  persist::CheckpointState s;
  s.config_digest = 0x1122334455667788ull;
  s.user_tag = 0x99AABBCCDDEEFF00ull;
  s.archive = {2, 546, 0x39854C05u};

  scan::Vvp v;
  v.address = net::Ipv4Address(0x0A000001);
  v.asn = 65001;
  v.est_background_rate = 2.5;
  s.vvps = {v};

  scan::Tnode t;
  t.address = net::Ipv4Address(0xC0A80001);
  t.port = 80;
  t.prefix = net::Ipv4Prefix(net::Ipv4Address(0xC0A80000), 24);
  t.origin = 65003;
  s.tnodes = {t, t};

  s.cache_vvp_addrs = {0x0A000001};
  s.cache_tnode_addrs = {0xC0A80001, 0xC0A80002};
  persist::CacheEntryState e;
  e.fingerprint = 0xF00DF00DF00DF00Dull;
  e.observation.vvp_as = 65001;
  e.observation.vvp = net::Ipv4Address(0x0A000001);
  e.observation.tnode = net::Ipv4Address(0xC0A80001);
  e.observation.verdict = core::FilteringVerdict::kOutboundFiltering;
  s.cache_entries = {e, std::nullopt};

  rpki::Vrp vrp;
  vrp.prefix = net::Ipv4Prefix(net::Ipv4Address(0xC0A80000), 24);
  vrp.max_length = 24;
  vrp.asn = 65003;
  s.vrps = {vrp};
  return s;
}

void expect_states_equal(const persist::CheckpointState& a,
                         const persist::CheckpointState& b) {
  EXPECT_EQ(a.config_digest, b.config_digest);
  EXPECT_EQ(a.user_tag, b.user_tag);
  EXPECT_EQ(a.archive, b.archive);
  ASSERT_EQ(a.vvps.size(), b.vvps.size());
  for (std::size_t i = 0; i < a.vvps.size(); ++i) {
    EXPECT_EQ(a.vvps[i].address.value(), b.vvps[i].address.value());
    EXPECT_EQ(a.vvps[i].asn, b.vvps[i].asn);
    EXPECT_EQ(a.vvps[i].est_background_rate, b.vvps[i].est_background_rate);
  }
  ASSERT_EQ(a.tnodes.size(), b.tnodes.size());
  for (std::size_t i = 0; i < a.tnodes.size(); ++i) {
    EXPECT_EQ(a.tnodes[i].address.value(), b.tnodes[i].address.value());
    EXPECT_EQ(a.tnodes[i].port, b.tnodes[i].port);
    EXPECT_EQ(a.tnodes[i].prefix, b.tnodes[i].prefix);
    EXPECT_EQ(a.tnodes[i].origin, b.tnodes[i].origin);
  }
  EXPECT_EQ(a.cache_vvp_addrs, b.cache_vvp_addrs);
  EXPECT_EQ(a.cache_tnode_addrs, b.cache_tnode_addrs);
  ASSERT_EQ(a.cache_entries.size(), b.cache_entries.size());
  for (std::size_t i = 0; i < a.cache_entries.size(); ++i) {
    ASSERT_EQ(a.cache_entries[i].has_value(), b.cache_entries[i].has_value());
    if (!a.cache_entries[i].has_value()) continue;
    EXPECT_EQ(a.cache_entries[i]->fingerprint,
              b.cache_entries[i]->fingerprint);
    EXPECT_EQ(a.cache_entries[i]->observation.verdict,
              b.cache_entries[i]->observation.verdict);
  }
  EXPECT_EQ(a.vrps, b.vrps);
  EXPECT_EQ(a.faulted, b.faulted);
  EXPECT_EQ(a.fault_digest, b.fault_digest);
}

TEST(Checkpoint, EncodeDecodeReencodeIsByteIdentical) {
  persist::CheckpointState s = sample_state();
  for (const bool faulted : {false, true}) {
    s.faulted = faulted;
    s.fault_digest = faulted ? 0xFA17FA17FA17FA17ull : 0;
    const auto bytes = persist::encode_checkpoint(s);
    const auto decoded = persist::decode_checkpoint(bytes);
    ASSERT_TRUE(decoded.has_value());
    expect_states_equal(s, *decoded);
    EXPECT_EQ(persist::encode_checkpoint(*decoded), bytes);  // canonical
    // One version for both; FAULTS is present iff the series is faulted.
    const auto info = persist::inspect_checkpoint(bytes);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->format_version, persist::kFormatVersion);
    EXPECT_EQ(info->sections.size(), faulted ? 6u : 5u);
  }
}

TEST(Checkpoint, EmptyStateRoundTrips) {
  const persist::CheckpointState s;  // pre-first-round checkpoint
  const auto bytes = persist::encode_checkpoint(s);
  const auto decoded = persist::decode_checkpoint(bytes);
  ASSERT_TRUE(decoded.has_value());
  expect_states_equal(s, *decoded);
  EXPECT_EQ(persist::encode_checkpoint(*decoded), bytes);
}

TEST(Checkpoint, RejectsBadMagicVersionAndTrailingBytes) {
  const auto bytes = persist::encode_checkpoint(sample_state());
  std::string error;

  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(persist::decode_checkpoint(bad, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // Every other format version, the retired 1 and 2 included.
  for (const std::uint8_t version : {0xFF, 1, 2}) {
    bad = bytes;
    bad[4] = version;
    EXPECT_FALSE(persist::decode_checkpoint(bad, &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
  // Real images written by a version 1/2 build: refused, yet inspect
  // still walks their header and section table.
  for (const auto& [name, version, sections] :
       {std::tuple{"checkpoint_v1.rvcp", 1u, 5u},
        std::tuple{"checkpoint_v2.rvcp", 2u, 6u}}) {
    const auto legacy =
        read_bytes(fs::path(ROVISTA_TEST_DATA_DIR) / name);
    ASSERT_FALSE(legacy.empty()) << name;
    EXPECT_FALSE(persist::decode_checkpoint(legacy, &error).has_value());
    EXPECT_NE(error.find("not resumable"), std::string::npos) << error;
    const auto info = persist::inspect_checkpoint(legacy);
    ASSERT_TRUE(info.has_value()) << name;
    EXPECT_EQ(info->format_version, version) << name;
    EXPECT_FALSE(info->version_supported) << name;
    EXPECT_TRUE(info->table_crc_ok) << name;
    EXPECT_EQ(info->sections.size(), sections) << name;
    EXPECT_FALSE(info->decodes) << name;
  }

  bad = bytes;
  bad.push_back(0);
  EXPECT_FALSE(persist::decode_checkpoint(bad, &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

// META's last byte once said which engine wrote the checkpoint: 1 for
// the incremental runner, 0 for a per-round full recompute. Only the
// incremental engine remains, and a mode-0 image — here the newest slot
// payload of a 2-round `longitudinal --scale small --seed 11
// --interval-days 20 --incremental off` series — is refused by name,
// though its every CRC holds. In a checkpoint slot it is a logged cold
// start.
TEST(Checkpoint, FullRecomputeImageIsRefused) {
  const auto image =
      read_bytes(fs::path(ROVISTA_TEST_DATA_DIR) / "checkpoint_v3_full.rvcp");
  ASSERT_FALSE(image.empty());
  std::string error;
  EXPECT_FALSE(persist::decode_checkpoint(image, &error).has_value());
  EXPECT_NE(error.find("META: mode byte"), std::string::npos) << error;
  const auto info = persist::inspect_checkpoint(image);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->format_version, persist::kFormatVersion);
  EXPECT_TRUE(info->table_crc_ok);
  ASSERT_EQ(info->sections.size(), 5u);
  for (const auto& s : info->sections) {
    EXPECT_TRUE(s.crc_ok) << persist::section_name(s.id);
  }
  EXPECT_FALSE(info->decodes);

  TempDir dir;
  fs::create_directories(dir.path);
  write_bytes(persist::CheckpointPaths::in(dir.path.string()).current,
              persist::encode_slot(1, image));
  incremental::IncrementalConfig config;
  config.params = testfx::round_params();
  config.rovista = testfx::round_config();
  config.checkpoint_dir = dir.path.string();
  incremental::IncrementalLongitudinalRunner runner(config);
  const std::string log =
      capture_log([&] { EXPECT_FALSE(runner.resume_from_checkpoint()); });
  EXPECT_NE(log.find("META: mode byte"), std::string::npos) << log;
  EXPECT_NE(log.find("cold start"), std::string::npos) << log;
  EXPECT_EQ(runner.completed_rounds(), 0u);
}

TEST(Checkpoint, EveryTruncationIsRejected) {
  // Strict prefixes cover truncation at every section boundary and
  // everywhere in between; none may decode, none may crash.
  const auto bytes = persist::encode_checkpoint(sample_state());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto prefix = std::span(bytes).first(len);
    EXPECT_FALSE(persist::decode_checkpoint(prefix).has_value())
        << "prefix of length " << len << " decoded";
  }
}

TEST(Checkpoint, EverySingleByteCorruptionIsRejected) {
  // Header fields, the section table, and every payload byte sit under
  // some checksum (or structural check); a flip anywhere must fail.
  const auto bytes = persist::encode_checkpoint(sample_state());
  auto corrupt = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    corrupt[i] = bytes[i] ^ 0x5A;
    EXPECT_FALSE(persist::decode_checkpoint(corrupt).has_value())
        << "flip at byte " << i << " decoded";
    corrupt[i] = bytes[i];
  }
}

TEST(Checkpoint, DeterministicBitFlipFuzz) {
  // A cheap deterministic fuzzer: LCG-driven single-bit flips. Nothing
  // may crash (this binary runs under ASan+UBSan in tier-1) and nothing
  // may decode.
  const auto bytes = persist::encode_checkpoint(sample_state());
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto corrupt = bytes;
  for (int iter = 0; iter < 2000; ++iter) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t byte = (rng >> 16) % bytes.size();
    const int bit = static_cast<int>((rng >> 8) & 7);
    corrupt[byte] = bytes[byte] ^ static_cast<std::uint8_t>(1u << bit);
    EXPECT_FALSE(persist::decode_checkpoint(corrupt).has_value())
        << "bit " << bit << " of byte " << byte << " decoded";
    corrupt[byte] = bytes[byte];
  }
}

TEST(Checkpoint, PayloadCorruptionNamesTheSection) {
  const auto bytes = persist::encode_checkpoint(sample_state());
  const auto info = persist::inspect_checkpoint(bytes);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->sections.size(), 5u);
  for (const auto& section : info->sections) {
    if (section.length == 0) continue;
    auto corrupt = bytes;
    const std::size_t target = section.offset + section.length / 2;
    corrupt[target] ^= 0xFF;
    std::string error;
    EXPECT_FALSE(persist::decode_checkpoint(corrupt, &error).has_value());
    EXPECT_NE(error.find(persist::section_name(section.id)),
              std::string::npos)
        << "corrupting " << persist::section_name(section.id)
        << " reported: " << error;
  }
}

TEST(Checkpoint, InspectReportsPerSectionIntegrity) {
  const auto bytes = persist::encode_checkpoint(sample_state());
  const auto clean = persist::inspect_checkpoint(bytes);
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->magic_ok);
  EXPECT_TRUE(clean->version_supported);
  EXPECT_TRUE(clean->table_crc_ok);
  EXPECT_TRUE(clean->decodes);
  ASSERT_EQ(clean->sections.size(), 5u);
  for (const auto& s : clean->sections) {
    EXPECT_TRUE(s.in_bounds);
    EXPECT_TRUE(s.crc_ok) << persist::section_name(s.id);
  }

  // Corrupt one payload byte: exactly that section must flag, and the
  // overall verdict must flip — but inspection still walks everything.
  auto corrupt = bytes;
  const auto& target = clean->sections[2];  // DISCOVERY
  corrupt[target.offset] ^= 0xFF;
  const auto dirty = persist::inspect_checkpoint(corrupt);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_TRUE(dirty->table_crc_ok);
  EXPECT_FALSE(dirty->decodes);
  for (const auto& s : dirty->sections) {
    EXPECT_EQ(s.crc_ok, s.id != persist::kSectionDiscovery)
        << persist::section_name(s.id);
  }

  // Too short for a header → nullopt, not UB.
  EXPECT_FALSE(
      persist::inspect_checkpoint(std::span(bytes).first(8)).has_value());
}

// ---------- crash-safe files ----------

TEST(CheckpointIo, WriteLoadRotateAndFallBack) {
  TempDir dir;
  const auto paths = persist::CheckpointPaths::in(dir.path.string());

  persist::CheckpointState first = sample_state();
  first.user_tag = 1;
  ASSERT_TRUE(persist::write_checkpoint_file(dir.path.string(), first));
  // An empty directory's first commit lands in slot 0.
  EXPECT_EQ(read_bytes(paths.current),
            persist::encode_slot(1, persist::encode_checkpoint(first)));

  persist::CheckpointState second = sample_state();
  second.user_tag = 2;
  ASSERT_TRUE(persist::write_checkpoint_file(dir.path.string(), second));

  const auto loaded = persist::load_checkpoint_slot(dir.path.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->first.user_tag, 2u);
  EXPECT_EQ(loaded->second.slot, 1);  // the second commit spared slot 0
  const std::string newest = paths.slots()[loaded->second.slot];
  const std::string older = paths.slots()[1 - loaded->second.slot];

  // Corrupt the newest slot: the loader must log the rejection and
  // fall back to the older one.
  auto bytes = read_bytes(newest);
  bytes[bytes.size() / 2] ^= 0xFF;
  write_bytes(newest, bytes);
  std::string log;
  std::optional<persist::CheckpointState> fallback;
  log = capture_log([&] {
    fallback = persist::load_checkpoint_file(dir.path.string());
  });
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->user_tag, 1u);
  EXPECT_NE(log.find("checkpoint"), std::string::npos) << log;

  // Corrupt the older slot too: nothing usable left.
  auto prev = read_bytes(older);
  prev.resize(prev.size() / 2);  // truncate
  write_bytes(older, prev);
  log = capture_log([&] {
    fallback = persist::load_checkpoint_file(dir.path.string());
  });
  EXPECT_FALSE(fallback.has_value());
}

TEST(CheckpointIo, MissingDirectoryIsColdStart) {
  const std::string log = capture_log([] {
    EXPECT_FALSE(
        persist::load_checkpoint_file("/nonexistent/rovista-ckpt-xyz")
            .has_value());
  });
}

// ---------- engine resume ----------

std::vector<util::Date> series_dates(const scenario::ScenarioParams& params) {
  // Same spread as test_incremental_round: real timeline churn between
  // rounds, so resume must replay actual change, not a no-op.
  return {params.start + 150, params.start + 171, params.start + 215};
}

incremental::IncrementalConfig engine_config(int num_threads) {
  incremental::IncrementalConfig config;
  config.params = testfx::round_params();
  config.rovista = testfx::round_config();
  config.rovista.num_threads = num_threads;
  return config;
}

void expect_rounds_bit_identical(const core::MeasurementRound& a,
                                 const core::MeasurementRound& b,
                                 const char* label) {
  EXPECT_EQ(a.experiments_run, b.experiments_run) << label;
  EXPECT_EQ(a.inconclusive, b.inconclusive) << label;
  ASSERT_EQ(a.observations.size(), b.observations.size()) << label;
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    ASSERT_EQ(a.observations[i].vvp_as, b.observations[i].vvp_as) << label;
    ASSERT_EQ(a.observations[i].vvp.value(), b.observations[i].vvp.value())
        << label;
    ASSERT_EQ(a.observations[i].tnode.value(),
              b.observations[i].tnode.value())
        << label;
    ASSERT_EQ(a.observations[i].verdict, b.observations[i].verdict) << label;
  }
  ASSERT_EQ(a.scores.size(), b.scores.size()) << label;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    ASSERT_EQ(a.scores[i].asn, b.scores[i].asn) << label;
    ASSERT_EQ(std::memcmp(&a.scores[i].score, &b.scores[i].score,
                          sizeof(double)),
              0)
        << label;
  }
}

std::map<std::string, std::string> read_dir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream f(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    files[entry.path().filename().string()] = buf.str();
  }
  return files;
}

/// A private copy of the archive in `from`, in a fresh directory.
void copy_archive(const fs::path& from, const TempDir& to) {
  fs::copy(from, to.path, fs::copy_options::recursive);
}

/// Every frame of the archive in `dir`, as the cursor yields them.
std::vector<analytics::RvlaFrame> archive_frames(const fs::path& dir) {
  std::vector<analytics::RvlaFrame> frames;
  std::string error;
  auto cursor = analytics::RvlaCursor::open(dir.string(), &error);
  EXPECT_TRUE(cursor.has_value()) << error;
  if (!cursor.has_value()) return frames;
  while (auto frame = cursor->next()) frames.push_back(std::move(*frame));
  EXPECT_TRUE(cursor->done()) << cursor->error();
  return frames;
}

class CheckpointResume : public ::testing::Test {
 protected:
  // One uninterrupted 3-round series and one 2-round checkpoint state
  // with its archive, shared by the resume cases.
  static void SetUpTestSuite() {
    full_archive_ = new TempDir;
    partial_archive_ = new TempDir;
    incremental::IncrementalConfig config = engine_config(0);
    config.archive_dir = full_archive_->path.string();
    uninterrupted_ = new incremental::IncrementalLongitudinalRunner(config);
    final_rounds_ = new std::vector<incremental::RoundReport>();
    for (const util::Date date : series_dates(config.params)) {
      final_rounds_->push_back(uninterrupted_->run_round(date));
    }

    config.archive_dir = partial_archive_->path.string();
    incremental::IncrementalLongitudinalRunner partial(config);
    const auto dates = series_dates(config.params);
    partial.run_round(dates[0]);
    partial.run_round(dates[1]);
    after_two_ = new persist::CheckpointState(partial.checkpoint_state());
  }

  static void TearDownTestSuite() {
    delete after_two_;
    delete final_rounds_;
    delete uninterrupted_;
    delete partial_archive_;
    delete full_archive_;
    after_two_ = nullptr;
    final_rounds_ = nullptr;
    uninterrupted_ = nullptr;
    partial_archive_ = nullptr;
    full_archive_ = nullptr;
  }

  /// Restore `after_two_` over a copy of `archive`, run the last round,
  /// and hold everything the resumed runner left to the uninterrupted
  /// one: the round, the published CSVs, the archive's bytes and what
  /// `analyze --publish` makes of it.
  static void expect_resume_matches(int num_threads, const TempDir& archive,
                                    const std::string& label) {
    TempDir copy;
    copy_archive(archive.path, copy);
    incremental::IncrementalConfig config = engine_config(num_threads);
    config.archive_dir = copy.path.string();
    incremental::IncrementalLongitudinalRunner resumed(config);
    ASSERT_TRUE(resumed.restore(*after_two_)) << label;
    EXPECT_EQ(resumed.completed_rounds(), 2u) << label;
    EXPECT_EQ(archive_frames(copy.path).size(), 2u) << label;

    const auto dates = series_dates(resumed.config().params);
    const incremental::RoundReport last = resumed.run_round(dates[2]);
    expect_rounds_bit_identical((*final_rounds_)[2].round, last.round,
                                label.c_str());

    // The store (rebuilt from the archive + the resumed round) must
    // publish byte-identical CSVs, and so must the archive itself.
    TempDir full_dir;
    TempDir resumed_dir;
    TempDir analyzed_dir;
    ASSERT_TRUE(core::publish_scores(uninterrupted_->store(),
                                     full_dir.path.string())
                    .has_value());
    ASSERT_TRUE(
        core::publish_scores(resumed.store(), resumed_dir.path.string())
            .has_value());
    std::string error;
    ASSERT_TRUE(analytics::publish_archive(copy.path.string(),
                                           analyzed_dir.path.string(), &error)
                    .has_value())
        << error;
    const auto want = read_dir(full_dir.path);
    EXPECT_EQ(want, read_dir(resumed_dir.path)) << label;
    EXPECT_EQ(want, read_dir(analyzed_dir.path)) << label;
    EXPECT_EQ(read_bytes(full_archive_->path / "archive.rvla"),
              read_bytes(copy.path / "archive.rvla"))
        << label;
  }

  static incremental::IncrementalLongitudinalRunner* uninterrupted_;
  static std::vector<incremental::RoundReport>* final_rounds_;
  static persist::CheckpointState* after_two_;
  static TempDir* full_archive_;     // the uninterrupted run's, 3 frames
  static TempDir* partial_archive_;  // after_two_'s, 2 frames
};

incremental::IncrementalLongitudinalRunner* CheckpointResume::uninterrupted_ =
    nullptr;
std::vector<incremental::RoundReport>* CheckpointResume::final_rounds_ =
    nullptr;
persist::CheckpointState* CheckpointResume::after_two_ = nullptr;
TempDir* CheckpointResume::full_archive_ = nullptr;
TempDir* CheckpointResume::partial_archive_ = nullptr;

TEST_F(CheckpointResume, StateSurvivesEncodeDecode) {
  const auto bytes = persist::encode_checkpoint(*after_two_);
  const auto decoded = persist::decode_checkpoint(bytes);
  ASSERT_TRUE(decoded.has_value());
  expect_states_equal(*after_two_, *decoded);
  EXPECT_EQ(persist::encode_checkpoint(*decoded), bytes);
  EXPECT_EQ(after_two_->archive.frames, 2u);
  EXPECT_EQ(after_two_->archive.length,
            fs::file_size(partial_archive_->path / "archive.rvla"));
  EXPECT_FALSE(after_two_->vvps.empty());
  EXPECT_FALSE(after_two_->vrps.empty());
}

TEST_F(CheckpointResume, SerialResumeMatchesUninterrupted) {
  expect_resume_matches(1, *partial_archive_, "serial resume");
}

TEST_F(CheckpointResume, TwoThreadResumeMatchesUninterrupted) {
  expect_resume_matches(2, *partial_archive_, "2-thread resume");
}

TEST_F(CheckpointResume, FourThreadResumeMatchesUninterrupted) {
  expect_resume_matches(4, *partial_archive_, "4-thread resume");
}

TEST_F(CheckpointResume, EightThreadResumeMatchesUninterrupted) {
  expect_resume_matches(8, *partial_archive_, "8-thread resume");
}

TEST_F(CheckpointResume, ArchiveBeyondReferenceIsCutBack) {
  // A crash after round 3's frame committed but before its checkpoint
  // did: the archive holds a frame the checkpoint does not name. Resume
  // cuts it back to two frames and round 3 lands again, byte-identically.
  ASSERT_EQ(archive_frames(full_archive_->path).size(), 3u);
  expect_resume_matches(2, *full_archive_, "resume over a longer archive");
}

TEST_F(CheckpointResume, FileRoundTripResumesIdentically) {
  // Through the actual file layer, not just in-memory state, with the
  // archive kept in the checkpoint directory (no archive_dir).
  TempDir dir;
  copy_archive(partial_archive_->path, dir);
  ASSERT_TRUE(persist::write_checkpoint_file(dir.path.string(), *after_two_));

  incremental::IncrementalConfig config = engine_config(2);
  config.checkpoint_dir = dir.path.string();
  incremental::IncrementalLongitudinalRunner resumed(config);
  EXPECT_EQ(resumed.archive_dir(), dir.path.string());
  ASSERT_TRUE(resumed.resume_from_checkpoint());
  EXPECT_EQ(resumed.completed_rounds(), 2u);

  const auto dates = series_dates(resumed.config().params);
  const incremental::RoundReport last = resumed.run_round(dates[2]);
  expect_rounds_bit_identical((*final_rounds_)[2].round, last.round,
                              "file round trip");
  const auto written = persist::load_checkpoint_file(dir.path.string());
  ASSERT_TRUE(written.has_value());
  EXPECT_EQ(written->archive.frames, 3u);
  EXPECT_EQ(read_bytes(full_archive_->path / "archive.rvla"),
            read_bytes(dir.path / "archive.rvla"));
}

TEST_F(CheckpointResume, DigestMismatchIsLoggedColdStart) {
  incremental::IncrementalConfig other = engine_config(0);
  other.params.seed = 999;  // different world
  incremental::IncrementalLongitudinalRunner runner(other);
  std::string log = capture_log([&] {
    EXPECT_FALSE(runner.restore(*after_two_));
  });
  EXPECT_EQ(runner.completed_rounds(), 0u);  // untouched
  EXPECT_NE(log.find("digest mismatch"), std::string::npos) << log;
}

TEST_F(CheckpointResume, UserTagMismatchIsLoggedColdStart) {
  incremental::IncrementalConfig tagged = engine_config(0);
  tagged.checkpoint_user_tag = 0xDEAD;
  incremental::IncrementalLongitudinalRunner runner(tagged);
  std::string log = capture_log([&] {
    EXPECT_FALSE(runner.restore(*after_two_));
  });
  EXPECT_NE(log.find("tag mismatch"), std::string::npos) << log;
}

/// Restore `state` over the archive in `archive`, which must be refused
/// with a log line containing `why`, leaving the runner a cold start and
/// every byte of the archive as it was.
void expect_archive_refusal(const persist::CheckpointState& state,
                            const TempDir& archive, const std::string& why) {
  incremental::IncrementalConfig config = engine_config(0);
  config.archive_dir = archive.path.string();
  incremental::IncrementalLongitudinalRunner runner(config);
  const bool existed = fs::exists(archive.path);
  const auto before =
      existed ? read_dir(archive.path) : std::map<std::string, std::string>{};
  const std::string log =
      capture_log([&] { EXPECT_FALSE(runner.restore(state)); });
  EXPECT_NE(log.find(why), std::string::npos) << log;
  EXPECT_EQ(runner.completed_rounds(), 0u);
  EXPECT_TRUE(runner.store().dates().empty());
  EXPECT_EQ(fs::exists(archive.path), existed);
  if (existed) {
    EXPECT_EQ(read_dir(archive.path), before);
  }
}

TEST_F(CheckpointResume, MissingArchiveIsLoggedColdStart) {
  TempDir nowhere;
  expect_archive_refusal(*after_two_, nowhere, "no archive to resume from");
}

TEST_F(CheckpointResume, ShortArchiveIsLoggedColdStart) {
  // The checkpoint names two frames; this archive commits one.
  const std::vector<analytics::RvlaFrame> frames =
      archive_frames(partial_archive_->path);
  ASSERT_EQ(frames.size(), 2u);
  TempDir shorter;
  std::string error;
  ASSERT_TRUE(analytics::RvlaWriter::create(shorter.path.string(),
                                            std::span(frames).first(1), &error)
                  .has_value())
      << error;
  expect_archive_refusal(*after_two_, shorter, "archive commits 1 frame(s)");
}

TEST_F(CheckpointResume, ArchiveOfAnotherSeriesIsLoggedColdStart) {
  // As many frames and bytes as the checkpoint names, with other scores:
  // only the CRC tells this archive from the one the checkpoint
  // describes.
  std::vector<analytics::RvlaFrame> frames =
      archive_frames(partial_archive_->path);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_FALSE(frames[1].scores.empty());
  frames[1].scores[0] = 100.0 - frames[1].scores[0] + 0.5;
  TempDir other;
  std::string error;
  ASSERT_TRUE(
      analytics::RvlaWriter::create(other.path.string(), frames, &error)
          .has_value())
      << error;
  ASSERT_EQ(fs::file_size(other.path / "archive.rvla"),
            after_two_->archive.length);
  expect_archive_refusal(*after_two_, other, "length or CRC");
}

TEST_F(CheckpointResume, CorruptCheckpointFilesAreLoggedColdStart) {
  TempDir dir;
  ASSERT_TRUE(persist::write_checkpoint_file(dir.path.string(), *after_two_));
  const auto paths = persist::CheckpointPaths::in(dir.path.string());
  auto bytes = read_bytes(paths.current);
  bytes[bytes.size() / 3] ^= 0xFF;
  write_bytes(paths.current, bytes);

  incremental::IncrementalConfig config = engine_config(0);
  config.checkpoint_dir = dir.path.string();
  incremental::IncrementalLongitudinalRunner runner(config);
  std::string log = capture_log([&] {
    EXPECT_FALSE(runner.resume_from_checkpoint());
  });
  EXPECT_EQ(runner.completed_rounds(), 0u);
  EXPECT_NE(log.find("checkpoint"), std::string::npos) << log;
  // The runner is still a perfectly good cold start.
  const auto dates = series_dates(runner.config().params);
  const incremental::RoundReport first = runner.run_round(dates[0]);
  expect_rounds_bit_identical((*final_rounds_)[0].round, first.round,
                              "cold start after corrupt checkpoint");
  // The destructor writes an exit checkpoint into config.checkpoint_dir;
  // let it — TempDir cleans up.
}

TEST_F(CheckpointResume, PeriodicCheckpointsAreWritten) {
  TempDir dir;
  incremental::IncrementalConfig config = engine_config(0);
  config.checkpoint_dir = dir.path.string();
  config.checkpoint_every = 1;
  const auto paths = persist::CheckpointPaths::in(dir.path.string());
  {
    incremental::IncrementalLongitudinalRunner runner(config);
    const auto dates = series_dates(runner.config().params);
    runner.run_round(dates[0]);
    ASSERT_TRUE(fs::exists(paths.current));
    const auto one = persist::load_checkpoint_file(dir.path.string());
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(one->archive.frames, 1u);
    // Same date again: the same lists, one more frame.
    runner.run_round(dates[0]);
  }
  const auto two = persist::load_checkpoint_file(dir.path.string());
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->archive.frames, 2u);
  EXPECT_EQ(two->archive.length, fs::file_size(dir.path / "archive.rvla"));
  ASSERT_TRUE(fs::exists(paths.previous));
  // The checkpoint points into the archive instead of holding the
  // rounds, so it does not grow with them.
  EXPECT_EQ(fs::file_size(paths.current), fs::file_size(paths.previous));
}

TEST_F(CheckpointResume, ArchiveThatCannotBeCreatedStopsCheckpoints) {
  // archive_dir names a regular file: the first round's create fails,
  // the runner logs it once and writes no checkpoint from then on.
  TempDir dir;
  fs::create_directories(dir.path);
  const fs::path not_a_dir = dir.path / "plain-file";
  write_bytes(not_a_dir, std::vector<std::uint8_t>{1, 2, 3});
  incremental::IncrementalConfig config = engine_config(0);
  config.checkpoint_dir = (dir.path / "ck").string();
  config.archive_dir = not_a_dir.string();
  const auto paths = persist::CheckpointPaths::in(config.checkpoint_dir);
  std::string log = capture_log([&] {
    incremental::IncrementalLongitudinalRunner runner(config);
    const auto dates = series_dates(runner.config().params);
    runner.run_round(dates[0]);
    runner.run_round(dates[1]);
    EXPECT_FALSE(runner.write_checkpoint());
    EXPECT_EQ(runner.completed_rounds(), 2u);
  });
  EXPECT_NE(log.find("archive and checkpoints off"), std::string::npos)
      << log;
  EXPECT_EQ(log.find("archive and checkpoints off"),
            log.rfind("archive and checkpoints off"))
      << "logged more than once: " << log;
  for (const std::string& slot : paths.slots()) {
    EXPECT_FALSE(fs::exists(slot) && fs::file_size(slot) > 0) << slot;
  }
}

TEST(ScoreCacheRestore, ShapeMismatchClearsAndRefuses) {
  incremental::ScoreCache cache;
  EXPECT_FALSE(cache.restore({1, 2}, {3}, {}));  // 2x1 needs 2 entries
  EXPECT_EQ(cache.vvp_count(), 0u);
  EXPECT_TRUE(cache.restore({1, 2}, {3},
                            std::vector<std::optional<incremental::CacheEntry>>(
                                2, std::nullopt)));
  EXPECT_EQ(cache.vvp_count(), 2u);
  EXPECT_EQ(cache.tnode_count(), 1u);
}

}  // namespace
