#include "persist/checkpoint_io.h"

#include <filesystem>

#include "util/logging.h"

namespace rovista::persist {

namespace fs = std::filesystem;

using util::LogLevel;

CheckpointPaths CheckpointPaths::in(const std::string& directory) {
  CheckpointPaths p;
  p.current = (fs::path(directory) / "checkpoint.bin").string();
  p.previous = (fs::path(directory) / "checkpoint.bin.1").string();
  return p;
}

std::optional<CheckpointWriter> CheckpointWriter::open(
    const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    util::log(LogLevel::kError, "checkpoint: cannot create directory " +
                                    directory + ": " + ec.message());
    return std::nullopt;
  }
  std::string error;
  auto slots = SlotWriter::open(
      CheckpointPaths::in(directory).slots(),
      [](std::span<const std::uint8_t> bytes) {
        return decode_checkpoint(bytes).has_value();
      },
      &error);
  if (!slots.has_value()) {
    util::log(LogLevel::kError, "checkpoint: " + error);
    return std::nullopt;
  }
  return CheckpointWriter(std::move(*slots));
}

bool CheckpointWriter::write(const CheckpointState& state) {
  std::string error;
  if (!slots_.commit(encode_checkpoint(state), &error)) {
    util::log(LogLevel::kError, "checkpoint: " + error);
    return false;
  }
  return true;
}

bool write_checkpoint_file(const std::string& directory,
                           const CheckpointState& state) {
  auto writer = CheckpointWriter::open(directory);
  return writer.has_value() && writer->write(state);
}

std::optional<std::pair<CheckpointState, SlotChoice>> load_checkpoint_slot(
    const std::string& directory) {
  std::optional<CheckpointState> state;
  const auto choice = load_newest_slot(
      CheckpointPaths::in(directory).slots(), "checkpoint",
      [&state](std::span<const std::uint8_t> payload, std::string* why) {
        state = decode_checkpoint(payload, why);
        return state.has_value();
      });
  if (!choice.has_value()) return std::nullopt;
  return std::pair{std::move(*state), *choice};
}

std::optional<CheckpointState> load_checkpoint_file(
    const std::string& directory) {
  auto loaded = load_checkpoint_slot(directory);
  if (!loaded.has_value()) return std::nullopt;
  return std::move(loaded->first);
}

}  // namespace rovista::persist
