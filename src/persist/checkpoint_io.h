// Crash-safe checkpoint files.
//
// A checkpoint directory holds one two-slot record (persist/slot_file.h,
// docs/FORMATS.md §1.9):
//   checkpoint.bin     slot 0
//   checkpoint.bin.1   slot 1
// Each slot holds one CRC-framed image of an RVCP checkpoint. A write
// overwrites, in place, the slot that does not hold the newest valid
// checkpoint and fdatasyncs it; the newest one is never at risk. Loads
// take the valid slot with the larger sequence number and fall back to
// the other, logging every rejection; only when both fail does the
// caller cold-start. Unslotted RVCP files left by older builds (a bare
// checkpoint.bin / checkpoint.bin.1) rank below any slot image; they
// hold format version 1 or 2, which the decoder refuses.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "persist/checkpoint.h"
#include "persist/slot_file.h"

namespace rovista::persist {

/// The file layout inside a checkpoint directory.
struct CheckpointPaths {
  std::string current;   // slot 0: <dir>/checkpoint.bin
  std::string previous;  // slot 1: <dir>/checkpoint.bin.1

  static CheckpointPaths in(const std::string& directory);
  SlotPair slots() const { return {current, previous}; }
};

/// Commits checkpoints into one directory's slots on file descriptors
/// held for the writer's life: one pwrite + fdatasync per checkpoint.
class CheckpointWriter {
 public:
  /// Create the directory if needed and open its slots. Failures are
  /// logged (nullopt).
  static std::optional<CheckpointWriter> open(const std::string& directory);

  /// Durably commit `state`. False (logged) leaves the newest earlier
  /// checkpoint intact.
  bool write(const CheckpointState& state);

 private:
  explicit CheckpointWriter(SlotWriter slots) : slots_(std::move(slots)) {}

  SlotWriter slots_;
};

/// One-shot CheckpointWriter::open + write.
bool write_checkpoint_file(const std::string& directory,
                           const CheckpointState& state);

/// Load the newest usable checkpoint from `directory`. Every rejected
/// slot is logged with the decoder's diagnostic. nullopt when nothing
/// usable exists (the caller's cue for a cold start).
std::optional<CheckpointState> load_checkpoint_file(
    const std::string& directory);

/// load_checkpoint_file, also naming the slot the state came from.
std::optional<std::pair<CheckpointState, SlotChoice>> load_checkpoint_slot(
    const std::string& directory);

}  // namespace rovista::persist
