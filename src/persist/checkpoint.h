// Checkpoint container for the incremental longitudinal engine.
//
// A checkpoint captures everything `IncrementalLongitudinalRunner` needs
// to continue a series after a process death as if it had never stopped:
// a fixed-size reference to the committed prefix of the series' RVLA
// archive (docs/FORMATS.md §5), which is the series' only round history,
// plus the discovery lists, the reachability-keyed ScoreCache, and the
// last relying-party VRP snapshot used as an oracle check that world
// replay reconverged to the same control-plane state. The checkpoint
// does not grow with the round count.
//
// On disk this is the versioned, length-prefixed, CRC-checked binary
// container specified byte-by-byte in docs/FORMATS.md ("RVCP" format),
// version 3; a faulted series adds a FAULTS section. Encoding is
// canonical — the same state always produces the same bytes — so
// decode→re-encode round-trips bit-exactly, which the tier-1 property
// tests pin.
//
// The decoder trusts nothing: magic, version, section-table CRC,
// per-section CRCs, section bounds, element counts and enum ranges are
// all validated, and any violation yields std::nullopt (with a
// diagnostic), never UB. Any other version — the version 1 and 2
// images of earlier builds included — is a clean refusal, not a parse
// attempt; compatibility rules live in docs/FORMATS.md.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/scoring.h"
#include "rpki/roa.h"
#include "scan/tnode_discovery.h"
#include "scan/vvp_discovery.h"

namespace rovista::persist {

inline constexpr std::array<std::uint8_t, 4> kMagic = {'R', 'V', 'C', 'P'};
inline constexpr std::uint32_t kFormatVersion = 3;

/// Section identifiers (table order is fixed: ascending ids, each
/// exactly once; FAULTS appears exactly when the series is faulted).
enum SectionId : std::uint32_t {
  kSectionMeta = 1,
  kSectionCursor = 2,
  kSectionDiscovery = 3,
  kSectionScoreCache = 4,
  kSectionVrpSnapshot = 5,
  kSectionFaults = 6,
};

/// Human-readable name for `checkpoint inspect` ("?" for unknown ids).
const char* section_name(std::uint32_t id) noexcept;

/// The committed prefix of the series' RVLA archive that the rest of
/// the checkpoint describes: one frame per completed round. Plain
/// integers — persist sits below analytics; the engine checks them
/// against the archive on resume.
struct ArchiveRef {
  std::uint64_t frames = 0;  // committed frame count = rounds completed
  std::uint64_t length = 0;  // committed length of archive.rvla, bytes
  std::uint32_t crc = 0;     // CRC-32 of archive.rvla's first `length` bytes

  bool operator==(const ArchiveRef&) const = default;
};

/// One ScoreCache slot (mirrors incremental::CacheEntry without
/// depending on src/incremental, which sits above this library).
struct CacheEntryState {
  std::uint64_t fingerprint = 0;
  core::PairObservation observation;
};

struct CheckpointState {
  // META — refusal guards, checked before anything is restored.
  std::uint64_t config_digest = 0;  // engine config (see config_digest())
  std::uint64_t user_tag = 0;       // embedder-chosen (CLI: series args)

  // CURSOR — where the round history lives: the archive prefix whose
  // frames rebuild the store and give the world replay its dates.
  ArchiveRef archive;

  // DISCOVERY — the vVP/tNode lists carried between rounds.
  std::vector<scan::Vvp> vvps;
  std::vector<scan::Tnode> tnodes;

  // SCORECACHE — matrix identity + entries, row-major v * T + t.
  std::vector<std::uint32_t> cache_vvp_addrs;
  std::vector<std::uint32_t> cache_tnode_addrs;
  std::vector<std::optional<CacheEntryState>> cache_entries;

  // VRPSNAPSHOT — sorted unique VRPs of the tracking world at the last
  // completed round (the replay oracle).
  std::vector<rpki::Vrp> vrps;

  // FAULTS — fault-injection guard, present iff `faulted`.
  // `fault_digest` is the FaultSchedule::digest() of the writing world,
  // checked on resume so a checkpoint cannot silently resume under a
  // different fault world.
  bool faulted = false;
  std::uint64_t fault_digest = 0;
};

/// Serialize to the canonical on-disk byte sequence.
std::vector<std::uint8_t> encode_checkpoint(const CheckpointState& state);

/// Parse and validate; nullopt on any structural problem. When `error`
/// is non-null it receives a one-line diagnostic on failure.
std::optional<CheckpointState> decode_checkpoint(
    std::span<const std::uint8_t> bytes, std::string* error = nullptr);

/// Header/section metadata for `rovista checkpoint inspect`. Unlike
/// decode_checkpoint this keeps going past integrity failures so a
/// corrupted file can still be diagnosed; per-field booleans say what
/// held. nullopt only when the input is too short to contain a header.
struct SectionInspection {
  std::uint32_t id = 0;
  std::uint32_t stored_crc = 0;
  std::uint32_t computed_crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  bool in_bounds = false;
  bool crc_ok = false;
};

struct CheckpointInspection {
  std::uint64_t file_size = 0;
  bool magic_ok = false;
  std::uint32_t format_version = 0;
  bool version_supported = false;
  std::uint32_t section_count = 0;
  bool table_crc_ok = false;
  std::vector<SectionInspection> sections;
  bool decodes = false;  // full decode_checkpoint verdict
};

std::optional<CheckpointInspection> inspect_checkpoint(
    std::span<const std::uint8_t> bytes);

}  // namespace rovista::persist
