#include "persist/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "net/ipv4.h"
#include "persist/wire.h"

namespace rovista::persist {

namespace {

// Container geometry (docs/FORMATS.md). The header is 16 bytes, each
// section-table entry 24; payloads follow back-to-back in table order —
// the decoder enforces that, which is what makes the encoding canonical
// (decode → re-encode reproduces the input byte-for-byte).
constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kTableEntrySize = 24;
constexpr std::uint32_t kSectionIds[] = {
    kSectionMeta,       kSectionCursor, kSectionDiscovery, kSectionScoreCache,
    kSectionVrpSnapshot, kSectionFaults};
constexpr std::size_t kSectionCountPlain = 5;  // through VRPSNAPSHOT
constexpr std::size_t kSectionCountFaulted = std::size(kSectionIds);

bool fail(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// ---- section payload encoders ----

std::vector<std::uint8_t> encode_meta(const CheckpointState& s) {
  ByteWriter w;
  w.u64(s.config_digest);
  w.u64(s.user_tag);
  w.u8(1);  // mode byte: 1 = incremental, the only engine (FORMATS.md §1.3)
  return w.take();
}

std::vector<std::uint8_t> encode_cursor(const CheckpointState& s) {
  ByteWriter w;
  w.u64(s.archive.frames);
  w.u64(s.archive.length);
  w.u32(s.archive.crc);
  return w.take();
}

std::vector<std::uint8_t> encode_discovery(const CheckpointState& s) {
  ByteWriter w;
  w.u64(s.vvps.size());
  for (const scan::Vvp& v : s.vvps) {
    w.u32(v.address.value());
    w.u32(v.asn);
    w.f64(v.est_background_rate);
  }
  w.u64(s.tnodes.size());
  for (const scan::Tnode& t : s.tnodes) {
    w.u32(t.address.value());
    w.u16(t.port);
    w.u32(t.prefix.address().value());
    w.u8(t.prefix.length());
    w.u32(t.origin);
  }
  return w.take();
}

void encode_observation(ByteWriter& w, const core::PairObservation& obs) {
  w.u32(obs.vvp_as);
  w.u32(obs.vvp.value());
  w.u32(obs.tnode.value());
  w.u8(static_cast<std::uint8_t>(obs.verdict));
}

std::vector<std::uint8_t> encode_score_cache(const CheckpointState& s) {
  ByteWriter w;
  w.u64(s.cache_vvp_addrs.size());
  for (const std::uint32_t a : s.cache_vvp_addrs) w.u32(a);
  w.u64(s.cache_tnode_addrs.size());
  for (const std::uint32_t a : s.cache_tnode_addrs) w.u32(a);
  for (const std::optional<CacheEntryState>& e : s.cache_entries) {
    if (!e.has_value()) {
      w.u8(0);
      continue;
    }
    w.u8(1);
    w.u64(e->fingerprint);
    encode_observation(w, e->observation);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_vrps(const CheckpointState& s) {
  ByteWriter w;
  w.u64(s.vrps.size());
  for (const rpki::Vrp& v : s.vrps) {
    w.u32(v.prefix.address().value());
    w.u8(v.prefix.length());
    w.u8(v.max_length);
    w.u32(v.asn);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_faults(const CheckpointState& s) {
  ByteWriter w;
  w.u64(s.fault_digest);
  return w.take();
}

// ---- section payload decoders ----
//
// Every count is checked against the bytes actually remaining before
// anything is reserved, so a corrupt length cannot trigger a huge
// allocation, and every section must consume its payload exactly.

bool decode_meta(ByteReader& r, CheckpointState& s, std::string* error) {
  std::uint8_t mode = 0;
  if (!r.u64(s.config_digest) || !r.u64(s.user_tag) || !r.u8(mode)) {
    return fail(error, "META: truncated");
  }
  if (mode != 1) {
    return fail(error,
                "META: mode byte is not 1 (0 marks a full-recompute "
                "checkpoint): not resumable by this build (cold start)");
  }
  return true;
}

bool decode_cursor(ByteReader& r, CheckpointState& s, std::string* error) {
  if (!r.u64(s.archive.frames) || !r.u64(s.archive.length) ||
      !r.u32(s.archive.crc)) {
    return fail(error, "CURSOR: truncated");
  }
  return true;
}

bool decode_discovery(ByteReader& r, CheckpointState& s, std::string* error) {
  std::uint64_t vvp_count = 0;
  if (!r.u64(vvp_count)) return fail(error, "DISCOVERY: truncated");
  if (vvp_count > r.remaining() / 16) {  // u32 + u32 + f64
    return fail(error, "DISCOVERY: vVP count exceeds payload");
  }
  s.vvps.reserve(vvp_count);
  for (std::uint64_t i = 0; i < vvp_count; ++i) {
    scan::Vvp v;
    std::uint32_t addr = 0;
    if (!r.u32(addr) || !r.u32(v.asn) || !r.f64(v.est_background_rate)) {
      return fail(error, "DISCOVERY: truncated vVP");
    }
    v.address = net::Ipv4Address(addr);
    s.vvps.push_back(v);
  }
  std::uint64_t tnode_count = 0;
  if (!r.u64(tnode_count)) return fail(error, "DISCOVERY: truncated");
  if (tnode_count > r.remaining() / 15) {  // u32 + u16 + u32 + u8 + u32
    return fail(error, "DISCOVERY: tNode count exceeds payload");
  }
  s.tnodes.reserve(tnode_count);
  for (std::uint64_t i = 0; i < tnode_count; ++i) {
    scan::Tnode t;
    std::uint32_t addr = 0;
    std::uint32_t prefix_addr = 0;
    std::uint8_t prefix_len = 0;
    if (!r.u32(addr) || !r.u16(t.port) || !r.u32(prefix_addr) ||
        !r.u8(prefix_len) || !r.u32(t.origin)) {
      return fail(error, "DISCOVERY: truncated tNode");
    }
    if (prefix_len > 32) return fail(error, "DISCOVERY: bad prefix length");
    t.address = net::Ipv4Address(addr);
    t.prefix = net::Ipv4Prefix(net::Ipv4Address(prefix_addr), prefix_len);
    if (t.prefix.address().value() != prefix_addr) {
      return fail(error, "DISCOVERY: prefix has host bits set");
    }
    s.tnodes.push_back(t);
  }
  return true;
}

bool decode_observation(ByteReader& r, core::PairObservation& obs) {
  std::uint32_t vvp = 0;
  std::uint32_t tnode = 0;
  std::uint8_t verdict = 0;
  if (!r.u32(obs.vvp_as) || !r.u32(vvp) || !r.u32(tnode) || !r.u8(verdict)) {
    return false;
  }
  if (verdict > static_cast<std::uint8_t>(core::FilteringVerdict::kInconclusive)) {
    return false;
  }
  obs.vvp = net::Ipv4Address(vvp);
  obs.tnode = net::Ipv4Address(tnode);
  obs.verdict = static_cast<core::FilteringVerdict>(verdict);
  return true;
}

bool decode_score_cache(ByteReader& r, CheckpointState& s,
                        std::string* error) {
  std::uint64_t v_count = 0;
  if (!r.u64(v_count)) return fail(error, "SCORECACHE: truncated");
  if (v_count > r.remaining() / 4) {
    return fail(error, "SCORECACHE: vVP count exceeds payload");
  }
  s.cache_vvp_addrs.reserve(v_count);
  for (std::uint64_t i = 0; i < v_count; ++i) {
    std::uint32_t a = 0;
    if (!r.u32(a)) return fail(error, "SCORECACHE: truncated vVP list");
    s.cache_vvp_addrs.push_back(a);
  }
  std::uint64_t t_count = 0;
  if (!r.u64(t_count)) return fail(error, "SCORECACHE: truncated");
  if (t_count > r.remaining() / 4) {
    return fail(error, "SCORECACHE: tNode count exceeds payload");
  }
  s.cache_tnode_addrs.reserve(t_count);
  for (std::uint64_t i = 0; i < t_count; ++i) {
    std::uint32_t a = 0;
    if (!r.u32(a)) return fail(error, "SCORECACHE: truncated tNode list");
    s.cache_tnode_addrs.push_back(a);
  }
  const std::uint64_t entry_count = v_count * t_count;
  if (t_count != 0 && entry_count / t_count != v_count) {
    return fail(error, "SCORECACHE: matrix size overflow");
  }
  if (entry_count > r.remaining()) {  // ≥ 1 byte per entry
    return fail(error, "SCORECACHE: matrix exceeds payload");
  }
  s.cache_entries.reserve(entry_count);
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    std::uint8_t present = 0;
    if (!r.u8(present)) return fail(error, "SCORECACHE: truncated entry");
    if (present == 0) {
      s.cache_entries.emplace_back(std::nullopt);
      continue;
    }
    if (present != 1) return fail(error, "SCORECACHE: bad presence flag");
    CacheEntryState e;
    if (!r.u64(e.fingerprint) || !decode_observation(r, e.observation)) {
      return fail(error, "SCORECACHE: truncated or invalid entry");
    }
    s.cache_entries.emplace_back(e);
  }
  return true;
}

bool decode_vrps(ByteReader& r, CheckpointState& s, std::string* error) {
  std::uint64_t count = 0;
  if (!r.u64(count)) return fail(error, "VRPSNAPSHOT: truncated");
  if (count > r.remaining() / 10) {  // u32 + u8 + u8 + u32
    return fail(error, "VRPSNAPSHOT: count exceeds payload");
  }
  s.vrps.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    rpki::Vrp v;
    std::uint32_t prefix_addr = 0;
    std::uint8_t prefix_len = 0;
    if (!r.u32(prefix_addr) || !r.u8(prefix_len) || !r.u8(v.max_length) ||
        !r.u32(v.asn)) {
      return fail(error, "VRPSNAPSHOT: truncated VRP");
    }
    if (prefix_len > 32) return fail(error, "VRPSNAPSHOT: bad prefix length");
    v.prefix = net::Ipv4Prefix(net::Ipv4Address(prefix_addr), prefix_len);
    if (v.prefix.address().value() != prefix_addr) {
      return fail(error, "VRPSNAPSHOT: prefix has host bits set");
    }
    s.vrps.push_back(v);
  }
  return true;
}

bool decode_faults(ByteReader& r, CheckpointState& s, std::string* error) {
  if (!r.u64(s.fault_digest)) return fail(error, "FAULTS: truncated");
  s.faulted = true;  // the section only exists in faulted checkpoints
  return true;
}

}  // namespace

const char* section_name(std::uint32_t id) noexcept {
  switch (id) {
    case kSectionMeta:
      return "META";
    case kSectionCursor:
      return "CURSOR";
    case kSectionDiscovery:
      return "DISCOVERY";
    case kSectionScoreCache:
      return "SCORECACHE";
    case kSectionVrpSnapshot:
      return "VRPSNAPSHOT";
    case kSectionFaults:
      return "FAULTS";
  }
  return "?";
}

std::vector<std::uint8_t> encode_checkpoint(const CheckpointState& state) {
  const std::size_t section_count =
      state.faulted ? kSectionCountFaulted : kSectionCountPlain;

  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(section_count);
  payloads.push_back(encode_meta(state));
  payloads.push_back(encode_cursor(state));
  payloads.push_back(encode_discovery(state));
  payloads.push_back(encode_score_cache(state));
  payloads.push_back(encode_vrps(state));
  if (state.faulted) payloads.push_back(encode_faults(state));

  ByteWriter table;
  std::uint64_t offset = kHeaderSize + section_count * kTableEntrySize;
  for (std::size_t i = 0; i < section_count; ++i) {
    table.u32(kSectionIds[i]);
    table.u32(crc32(payloads[i]));
    table.u64(offset);
    table.u64(payloads[i].size());
    offset += payloads[i].size();
  }

  ByteWriter out;
  out.bytes(kMagic);
  out.u32(kFormatVersion);
  out.u32(static_cast<std::uint32_t>(section_count));
  out.u32(crc32(table.data()));
  out.bytes(table.data());
  for (const std::vector<std::uint8_t>& p : payloads) out.bytes(p);
  return out.take();
}

std::optional<CheckpointState> decode_checkpoint(
    std::span<const std::uint8_t> bytes, std::string* error) {
  const auto reject = [&](const char* msg) -> std::optional<CheckpointState> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  if (bytes.size() < kHeaderSize) return reject("file shorter than header");
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    return reject("bad magic (not an RVCP checkpoint)");
  }
  ByteReader header(bytes.subspan(4, kHeaderSize - 4));
  std::uint32_t version = 0;
  std::uint32_t section_count = 0;
  std::uint32_t table_crc = 0;
  header.u32(version);
  header.u32(section_count);
  header.u32(table_crc);
  if (version != kFormatVersion) {
    return reject(
        "unsupported format version: not resumable by this build, which "
        "reads version 3 only (cold start)");
  }
  if (section_count != kSectionCountPlain &&
      section_count != kSectionCountFaulted) {
    return reject("unexpected section count");
  }
  const std::size_t table_size = section_count * kTableEntrySize;
  if (bytes.size() < kHeaderSize + table_size) {
    return reject("file truncated inside section table");
  }
  const auto table_bytes = bytes.subspan(kHeaderSize, table_size);
  if (crc32(table_bytes) != table_crc) {
    return reject("section table CRC mismatch");
  }

  ByteReader table(table_bytes);
  CheckpointState state;
  std::uint64_t expected_offset = kHeaderSize + table_size;
  for (std::size_t i = 0; i < section_count; ++i) {
    std::uint32_t id = 0;
    std::uint32_t payload_crc = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    table.u32(id);
    table.u32(payload_crc);
    table.u64(offset);
    table.u64(length);
    if (id != kSectionIds[i]) return reject("unexpected section id/order");
    // Payloads are back-to-back in table order — the canonical layout.
    if (offset != expected_offset) return reject("non-canonical payload offset");
    if (length > bytes.size() || offset > bytes.size() - length) {
      return reject("section extends past end of file");
    }
    expected_offset = offset + length;
    const auto payload = bytes.subspan(offset, length);
    if (crc32(payload) != payload_crc) {
      switch (id) {
        case kSectionMeta:
          return reject("META payload CRC mismatch");
        case kSectionCursor:
          return reject("CURSOR payload CRC mismatch");
        case kSectionDiscovery:
          return reject("DISCOVERY payload CRC mismatch");
        case kSectionScoreCache:
          return reject("SCORECACHE payload CRC mismatch");
        case kSectionVrpSnapshot:
          return reject("VRPSNAPSHOT payload CRC mismatch");
        default:
          return reject("FAULTS payload CRC mismatch");
      }
    }
    ByteReader r(payload);
    bool ok = false;
    switch (id) {
      case kSectionMeta:
        ok = decode_meta(r, state, error);
        break;
      case kSectionCursor:
        ok = decode_cursor(r, state, error);
        break;
      case kSectionDiscovery:
        ok = decode_discovery(r, state, error);
        break;
      case kSectionScoreCache:
        ok = decode_score_cache(r, state, error);
        break;
      case kSectionVrpSnapshot:
        ok = decode_vrps(r, state, error);
        break;
      case kSectionFaults:
        ok = decode_faults(r, state, error);
        break;
    }
    if (!ok) return std::nullopt;
    if (!r.exhausted_ok()) {
      return reject("section payload has trailing bytes");
    }
  }
  if (expected_offset != bytes.size()) {
    return reject("trailing bytes after last section");
  }
  if (state.cache_entries.size() !=
      state.cache_vvp_addrs.size() * state.cache_tnode_addrs.size()) {
    return reject("SCORECACHE matrix shape mismatch");
  }
  return state;
}

std::optional<CheckpointInspection> inspect_checkpoint(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  CheckpointInspection out;
  out.file_size = bytes.size();
  out.magic_ok = std::equal(kMagic.begin(), kMagic.end(), bytes.begin());
  ByteReader header(bytes.subspan(4, kHeaderSize - 4));
  std::uint32_t table_crc = 0;
  header.u32(out.format_version);
  header.u32(out.section_count);
  header.u32(table_crc);
  out.version_supported = out.format_version == kFormatVersion;

  // Walk whatever table fits in the file, even if counts look wrong —
  // inspect is a diagnosis tool, not a loader.
  const std::uint64_t claimed =
      std::min<std::uint64_t>(out.section_count, 64);
  const std::size_t available =
      (bytes.size() - kHeaderSize) / kTableEntrySize;
  const std::uint64_t walkable = std::min<std::uint64_t>(claimed, available);
  const std::size_t table_size =
      static_cast<std::size_t>(walkable) * kTableEntrySize;
  out.table_crc_ok =
      walkable == out.section_count &&
      crc32(bytes.subspan(kHeaderSize, out.section_count * kTableEntrySize)) ==
          table_crc;

  ByteReader table(bytes.subspan(kHeaderSize, table_size));
  for (std::uint64_t i = 0; i < walkable; ++i) {
    SectionInspection s;
    table.u32(s.id);
    table.u32(s.stored_crc);
    table.u64(s.offset);
    table.u64(s.length);
    s.in_bounds =
        s.length <= bytes.size() && s.offset <= bytes.size() - s.length;
    if (s.in_bounds) {
      s.computed_crc = crc32(bytes.subspan(s.offset, s.length));
      s.crc_ok = s.computed_crc == s.stored_crc;
    }
    out.sections.push_back(s);
  }
  out.decodes = decode_checkpoint(bytes).has_value();
  return out;
}

}  // namespace rovista::persist
