// In-place two-slot commits (docs/FORMATS.md §1.9).
//
// A record that is rewritten every round — the RVCP checkpoint, the
// RVLA commit record — lives in two slot files. Each slot holds one
// CRC-framed image: a 20-byte header (magic, CRC, sequence number,
// payload length) followed by the payload. A commit overwrites, in
// place, the slot that does *not* hold the newest valid record, then
// flushes it with fdatasync on a file descriptor the writer keeps open.
// A crash mid-commit therefore tears at most the slot being written;
// readers take the valid slot with the larger sequence number, which is
// the previous commit. No commit renames, creates a temp file or syncs
// a directory, so a steady round costs one data flush per record.
//
// Files from older builds that are not slot images ("unslotted") still
// load, ranked below every slot image and in slot order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rovista::persist {

/// "RVSL" magic + CRC-32 over bytes [8, end) + u64 seq + u32 length.
inline constexpr std::size_t kSlotHeaderSize = 20;

/// The two files one record alternates between: slot 0, slot 1.
using SlotPair = std::array<std::string, 2>;

/// The slot image of `payload` under sequence number `seq`.
std::vector<std::uint8_t> encode_slot(std::uint64_t seq,
                                      std::span<const std::uint8_t> payload);

/// One slot file as found on disk.
struct SlotFile {
  enum class Kind : std::uint8_t {
    kAbsent,     // missing or empty: never written, or retired
    kValid,      // exactly one slot image, CRC intact
    kTorn,       // starts like a slot image but fails a check
    kUnslotted,  // anything else: possibly a file from an older build
  };

  Kind kind = Kind::kAbsent;
  /// kValid; kTorn when the header survived (has_seq).
  std::uint64_t seq = 0;
  bool has_seq = false;
  std::vector<std::uint8_t> bytes;  // the whole file
  std::string why;                  // kTorn: the check that failed

  /// kValid: the payload. kUnslotted: the whole file. kTorn: whatever
  /// follows the header (for diagnosis only).
  std::span<const std::uint8_t> payload() const noexcept;
};

/// Classify `bytes` as the content of one slot file.
SlotFile decode_slot(std::vector<std::uint8_t> bytes);
SlotFile read_slot(const std::string& path);

/// Which record load_newest_slot chose.
struct SlotChoice {
  int slot = 0;
  bool slotted = true;     // false: an unslotted file from an older build
  std::uint64_t seq = 0;   // 0 when unslotted
};

/// Vets one candidate payload; on refusal says why.
using SlotAccept =
    std::function<bool(std::span<const std::uint8_t> payload, std::string* why)>;

/// The newest record of `pair` that `accept` takes. Candidates are
/// valid slot images by descending seq, then unslotted files, slot 0
/// before slot 1. Every rejected file (a torn image, or a payload
/// `accept` refuses) is logged under `what`; absent slots log nothing.
std::optional<SlotChoice> load_newest_slot(const SlotPair& pair,
                                           std::string_view what,
                                           const SlotAccept& accept);

/// Whole-file read (nullopt when the file cannot be opened or read).
std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path);

/// Flush a directory's entries (files created or renamed in it).
void sync_directory(const std::string& directory);

/// A file held open for durable in-place writes. On POSIX every call is
/// one syscall on a descriptor kept for the object's life; elsewhere it
/// falls back to flushed streams, which order writes but promise no
/// durability.
class DurableFile {
 public:
  /// Open `path` for writing, creating it if missing; `*created` says
  /// whether it was.
  static std::optional<DurableFile> open(const std::string& path,
                                         bool* created, std::string* error);

  DurableFile(DurableFile&& other) noexcept;
  DurableFile& operator=(DurableFile&& other) noexcept;
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;
  ~DurableFile();

  bool truncate(std::uint64_t size);
  /// Write `head` then `body` back to back at `offset`, in one gathered
  /// pwritev where the platform has it.
  bool write_at(std::uint64_t offset, std::span<const std::uint8_t> head,
                std::span<const std::uint8_t> body = {});
  /// fdatasync (fsync where the platform does not declare fdatasync).
  bool sync();

  const std::string& path() const noexcept { return path_; }

 private:
  explicit DurableFile(std::string path, int fd) noexcept
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

/// Commits successive records of one slot pair. Opening validates both
/// slots with the full CRC and aims the first commit at the slot that
/// does not hold the newest valid record, with a seq above every seq on
/// disk (torn images included); later commits alternate.
class SlotWriter {
 public:
  /// `unslotted_ok` says whether an unslotted file is a valid record
  /// from an older build (the first commit then spares it). Missing
  /// slot files are created and their directory synced, once.
  static std::optional<SlotWriter> open(
      const SlotPair& pair,
      const std::function<bool(std::span<const std::uint8_t>)>& unslotted_ok,
      std::string* error);

  /// Write `payload`'s image over the target slot in place (pwritev of
  /// header and payload at offset 0, ftruncate, fdatasync). On failure
  /// the target stays put: the other slot still holds the newest record.
  bool commit(std::span<const std::uint8_t> payload, std::string* error);

  /// Empty both slots durably, so no earlier record survives; the next
  /// commit goes to slot 0.
  bool retire(std::string* error);

 private:
  SlotWriter(std::array<DurableFile, 2> files, std::array<bool, 2> empty,
             int target, std::uint64_t next_seq);

  std::array<DurableFile, 2> files_;
  std::array<bool, 2> empty_;  // known empty: retire leaves them be
  int target_;
  std::uint64_t next_seq_;
};

}  // namespace rovista::persist
