// File-backed RVLA access: the durable appender and the streaming
// cursor (docs/FORMATS.md §5).
//
// The writer keeps archive.rvla open and appends each frame in place:
// ftruncate to the committed length (dropping crash debris), pwrite the
// frame, fdatasync. Only then does it commit the new 36-byte head into
// the head slot pair archive.head / archive.head.1 (persist/slot_file.h:
// an in-place overwrite of the slot not holding the newest head, then
// fdatasync), so a head never names unflushed frames. A crash between
// the two steps leaves debris past the committed length, which the next
// append truncates away — readers never see it because they stop at the
// committed length. A torn head commit falls back to the previous head.
//
// The cursor streams one frame at a time off disk, so walking an
// N-round archive needs O(max frame) memory, not O(N): that is what
// lets src/analytics/queries.h answer the paper's longitudinal queries
// without materializing the LongitudinalStore matrix, and what a
// resuming engine replays its history from.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analytics/rvla.h"
#include "persist/slot_file.h"

namespace rovista::analytics {

struct RvlaPaths {
  std::string data;      // archive.rvla
  std::string head;      // head slot 0: archive.head
  std::string head1;     // head slot 1: archive.head.1
  std::string data_tmp;  // archive.rvla.tmp (create's full rewrite)

  static RvlaPaths in(const std::string& directory);
  persist::SlotPair heads() const { return {head, head1}; }
};

/// Append-side handle, move-only: it holds archive.rvla and both head
/// slots open. `create` installs a fresh archive holding `frames`;
/// `reopen` continues an existing one from a prefix of its frames; each
/// `append` durably commits one frame in O(frame) work, independent of
/// archive length.
class RvlaWriter {
 public:
  /// Create (or atomically replace) the archive in `directory`.
  static std::optional<RvlaWriter> create(const std::string& directory,
                                          std::span<const RvlaFrame> frames,
                                          std::string* error);

  /// Commit `head` as the archive's head in `directory`, cutting the
  /// archive back to the frames it names: bytes past its data_size turn
  /// into crash debris that the next append truncates. `head` must name
  /// a prefix of the committed frames, as RvlaCursor::read_head() does
  /// after a walk, and `crc` must be data_crc() of its data_size.
  static std::optional<RvlaWriter> reopen(const std::string& directory,
                                          const RvlaHead& head,
                                          std::uint32_t crc,
                                          std::string* error);

  bool append(const RvlaFrame& frame, std::string* error);

  const RvlaHead& head() const noexcept { return head_; }
  /// CRC-32 of archive.rvla up to head().data_size.
  std::uint32_t crc() const noexcept { return crc_; }
  const std::string& directory() const noexcept { return directory_; }

 private:
  RvlaWriter(std::string directory, RvlaHead head, std::uint32_t crc,
             persist::DurableFile data, persist::SlotWriter heads);

  std::string directory_;
  RvlaHead head_;
  std::uint32_t crc_;
  persist::DurableFile data_;
  persist::SlotWriter heads_;
};

/// Streaming reader: takes the newest valid head slot up front (a raw
/// 36-byte archive.head from older builds ranks below any slot), then
/// yields frames one at a time with per-frame CRC / chain / date checks.
/// Tolerates crash debris past the committed length (unlike the strict
/// decode_archive codec), rejects everything else.
class RvlaCursor {
 public:
  static std::optional<RvlaCursor> open(const std::string& directory,
                                        std::string* error);

  /// Next frame, or nullopt when the archive is exhausted or damaged —
  /// distinguish with done()/failed().
  std::optional<RvlaFrame> next();

  const RvlaHead& head() const noexcept { return head_; }
  /// The head that commits exactly the frames next() has yielded so far.
  RvlaHead read_head() const noexcept { return {seen_, pos_, prev_}; }
  bool done() const noexcept { return done_; }
  bool failed() const noexcept { return failed_; }
  const std::string& error() const noexcept { return error_; }

 private:
  RvlaCursor(RvlaHead head, std::ifstream file);

  std::optional<RvlaFrame> fail(const std::string& why);

  RvlaHead head_;
  std::ifstream file_;
  std::uint64_t pos_ = kRvlaPreambleSize;
  std::uint64_t prev_ = 0;
  std::int64_t min_date_days_;
  std::uint64_t seen_ = 0;
  bool done_ = false;
  bool failed_ = false;
  std::string error_;
  std::vector<std::uint8_t> buf_;  // reused per-frame scratch
};

/// CRC-32 of the first `length` bytes of archive.rvla in `directory` —
/// what RvlaWriter::crc() read when its head's data_size was `length`.
/// nullopt when the file is missing or shorter.
std::optional<std::uint32_t> data_crc(const std::string& directory,
                                      std::uint64_t length);

}  // namespace rovista::analytics
