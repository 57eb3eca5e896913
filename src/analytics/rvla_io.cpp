#include "analytics/rvla_io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>

#include "persist/wire.h"
#include "util/logging.h"

namespace rovista::analytics {

namespace fs = std::filesystem;

namespace {

bool set_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

std::optional<persist::SlotWriter> open_heads(const RvlaPaths& paths,
                                              std::string* why) {
  return persist::SlotWriter::open(
      paths.heads(),
      [](std::span<const std::uint8_t> bytes) {
        return decode_head(bytes, nullptr).has_value();
      },
      why);
}

}  // namespace

RvlaPaths RvlaPaths::in(const std::string& directory) {
  RvlaPaths p;
  p.data = (fs::path(directory) / "archive.rvla").string();
  p.head = (fs::path(directory) / "archive.head").string();
  p.head1 = (fs::path(directory) / "archive.head.1").string();
  p.data_tmp = (fs::path(directory) / "archive.rvla.tmp").string();
  return p;
}

RvlaWriter::RvlaWriter(std::string directory, RvlaHead head,
                       std::uint32_t crc, persist::DurableFile data,
                       persist::SlotWriter heads)
    : directory_(std::move(directory)),
      head_(head),
      crc_(crc),
      data_(std::move(data)),
      heads_(std::move(heads)) {}

std::optional<RvlaWriter> RvlaWriter::create(
    const std::string& directory, std::span<const RvlaFrame> frames,
    std::string* error) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    set_error(error,
              "rvla: cannot create " + directory + ": " + ec.message());
    return std::nullopt;
  }
  const RvlaPaths paths = RvlaPaths::in(directory);
  const RvlaImage image = encode_archive(frames);
  std::string why;

  // Data first, via tmp, so a half-written rewrite never shadows the
  // old data under an old head.
  {
    auto tmp = persist::DurableFile::open(paths.data_tmp, nullptr, &why);
    if (!tmp.has_value() || !tmp->truncate(0) ||
        !tmp->write_at(0, image.data) || !tmp->sync()) {
      set_error(error, "rvla: writing " + paths.data_tmp + " failed: " +
                           (tmp.has_value() ? std::strerror(errno) : why));
      fs::remove(paths.data_tmp, ec);
      return std::nullopt;
    }
  }
  // Retire both head slots before the data rename: between the two
  // steps the archive reads as absent, never as an old head over new
  // bytes.
  auto heads = open_heads(paths, &why);
  if (!heads.has_value() || !heads->retire(&why)) {
    set_error(error, "rvla: " + why);
    return std::nullopt;
  }
  fs::rename(paths.data_tmp, paths.data, ec);
  if (ec) {
    set_error(error, "rvla: installing " + paths.data +
                         " failed: " + ec.message());
    return std::nullopt;
  }
  persist::sync_directory(directory);
  auto data = persist::DurableFile::open(paths.data, nullptr, &why);
  if (!data.has_value() || !heads->commit(image.head, &why)) {
    set_error(error, "rvla: " + why);
    return std::nullopt;
  }
  return RvlaWriter(directory, *decode_head(image.head, nullptr),
                    persist::crc32(image.data), std::move(*data),
                    std::move(*heads));
}

std::optional<RvlaWriter> RvlaWriter::reopen(const std::string& directory,
                                             const RvlaHead& head,
                                             std::uint32_t crc,
                                             std::string* error) {
  const RvlaPaths paths = RvlaPaths::in(directory);
  std::string why;
  auto data = persist::DurableFile::open(paths.data, nullptr, &why);
  std::optional<persist::SlotWriter> heads;
  if (data.has_value()) heads = open_heads(paths, &why);
  if (!heads.has_value() || !heads->commit(encode_head(head), &why)) {
    set_error(error, "rvla: " + why);
    return std::nullopt;
  }
  return RvlaWriter(directory, head, crc, std::move(*data),
                    std::move(*heads));
}

bool RvlaWriter::append(const RvlaFrame& frame, std::string* error) {
  if (frame.asns.size() != frame.scores.size()) {
    return set_error(error, "rvla: frame columns differ in length");
  }
  const std::uint64_t prev =
      head_.frame_count == 0 ? 0 : head_.last_frame_offset;
  const std::vector<std::uint8_t> bytes = encode_frame(frame, prev);
  // The frame is durable before any head names it.
  if (!data_.truncate(head_.data_size) ||
      !data_.write_at(head_.data_size, bytes) || !data_.sync()) {
    return set_error(error, "rvla: appending to " + data_.path() +
                                " failed: " + std::strerror(errno));
  }
  RvlaHead next = head_;
  next.last_frame_offset = head_.data_size;
  next.data_size = head_.data_size + bytes.size();
  next.frame_count = head_.frame_count + 1;
  std::string why;
  if (!heads_.commit(encode_head(next), &why)) {
    return set_error(error, "rvla: " + why);
  }
  head_ = next;
  crc_ = persist::crc32(bytes, crc_);
  return true;
}

RvlaCursor::RvlaCursor(RvlaHead head, std::ifstream file)
    : head_(head),
      file_(std::move(file)),
      min_date_days_(std::numeric_limits<std::int64_t>::min()) {}

std::optional<RvlaCursor> RvlaCursor::open(const std::string& directory,
                                           std::string* error) {
  const RvlaPaths paths = RvlaPaths::in(directory);
  std::optional<RvlaHead> head;
  const auto choice = persist::load_newest_slot(
      paths.heads(), "rvla",
      [&head](std::span<const std::uint8_t> payload, std::string* why) {
        head = decode_head(payload, why);
        return head.has_value();
      });
  if (!choice.has_value()) {
    set_error(error, "rvla: no valid head in " + paths.head + " or " +
                         paths.head1);
    return std::nullopt;
  }

  std::ifstream file(paths.data, std::ios::binary);
  if (!file) {
    set_error(error, "rvla: missing or unreadable " + paths.data);
    return std::nullopt;
  }
  std::uint8_t preamble[kRvlaPreambleSize];
  if (!file.read(reinterpret_cast<char*>(preamble), sizeof preamble)) {
    set_error(error, "rvla: " + paths.data + " shorter than preamble");
    return std::nullopt;
  }
  if (!decode_data_preamble(preamble, error)) return std::nullopt;
  return RvlaCursor(*head, std::move(file));
}

std::optional<RvlaFrame> RvlaCursor::fail(const std::string& why) {
  failed_ = true;
  error_ = "rvla: " + why;
  util::log(util::LogLevel::kWarn, error_);
  return std::nullopt;
}

std::optional<RvlaFrame> RvlaCursor::next() {
  if (done_ || failed_) return std::nullopt;
  if (seen_ == head_.frame_count) {
    if (pos_ != head_.data_size) {
      return fail("committed length does not match frame walk");
    }
    if (head_.frame_count != 0 && prev_ != head_.last_frame_offset) {
      return fail("last frame offset does not match head");
    }
    done_ = true;
    return std::nullopt;
  }
  if (pos_ + kRvlaFrameFixedSize > head_.data_size) {
    return fail("frame header past committed length");
  }
  buf_.resize(kRvlaFrameFixedSize);
  if (!file_.read(reinterpret_cast<char*>(buf_.data()),
                  static_cast<std::streamsize>(buf_.size()))) {
    return fail("short read in " + std::to_string(pos_));
  }
  std::string why;
  const auto fixed = decode_frame_fixed(buf_, &why);
  if (!fixed.has_value()) return fail(why);
  const std::size_t size = frame_size(fixed->row_count, fixed->has_health);
  if (size > head_.data_size - pos_) {
    return fail("frame runs past committed length");
  }
  buf_.resize(size);
  if (!file_.read(
          reinterpret_cast<char*>(buf_.data() + kRvlaFrameFixedSize),
          static_cast<std::streamsize>(size - kRvlaFrameFixedSize))) {
    return fail("short read in frame body at " + std::to_string(pos_));
  }
  auto frame = decode_frame(buf_, seen_ == 0 ? 0 : prev_,
                            min_date_days_, &why);
  if (!frame.has_value()) return fail(why);
  prev_ = pos_;
  pos_ += size;
  min_date_days_ = frame->date.days_since_epoch();
  ++seen_;
  return frame;
}

std::optional<std::uint32_t> data_crc(const std::string& directory,
                                      std::uint64_t length) {
  std::ifstream file(RvlaPaths::in(directory).data, std::ios::binary);
  std::vector<std::uint8_t> chunk(std::size_t{1} << 16);
  std::uint32_t crc = 0;
  while (file && length > 0) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(length, chunk.size()));
    file.read(reinterpret_cast<char*>(chunk.data()),
              static_cast<std::streamsize>(n));
    crc = persist::crc32({chunk.data(), n}, crc);
    length -= n;
  }
  if (!file) return std::nullopt;
  return crc;
}

}  // namespace rovista::analytics
