#include "persist/slot_file.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "persist/wire.h"
#include "util/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>
#define ROVISTA_PERSIST_POSIX 1
#endif

namespace rovista::persist {

namespace fs = std::filesystem;

namespace {

constexpr std::uint8_t kSlotMagic[4] = {'R', 'V', 'S', 'L'};

bool set_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

std::string errno_text() { return std::strerror(errno); }

using SlotHeader = std::array<std::uint8_t, kSlotHeaderSize>;

void put_le(SlotHeader& out, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// The header of `payload`'s slot image under `seq`; the payload follows
// it unchanged, so a commit writes both without copying the payload.
SlotHeader slot_header(std::uint64_t seq,
                       std::span<const std::uint8_t> payload) {
  SlotHeader h{};
  std::memcpy(h.data(), kSlotMagic, sizeof kSlotMagic);
  put_le(h, 8, seq, 8);
  put_le(h, 16, payload.size(), 4);
  put_le(h, 4, crc32(payload, crc32(std::span(h).subspan(8))), 4);
  return h;
}

}  // namespace

std::vector<std::uint8_t> encode_slot(std::uint64_t seq,
                                      std::span<const std::uint8_t> payload) {
  const SlotHeader header = slot_header(seq, payload);
  std::vector<std::uint8_t> image(kSlotHeaderSize + payload.size());
  std::copy(header.begin(), header.end(), image.begin());
  std::copy(payload.begin(), payload.end(), image.begin() + kSlotHeaderSize);
  return image;
}

std::span<const std::uint8_t> SlotFile::payload() const noexcept {
  const std::span<const std::uint8_t> all(bytes);
  if (kind == Kind::kUnslotted) return all;
  if (all.size() < kSlotHeaderSize) return {};
  return all.subspan(kSlotHeaderSize);
}

SlotFile decode_slot(std::vector<std::uint8_t> bytes) {
  SlotFile f;
  f.bytes = std::move(bytes);
  if (f.bytes.empty()) return f;  // kAbsent
  const std::size_t magic_seen = std::min(f.bytes.size(), sizeof kSlotMagic);
  if (std::memcmp(f.bytes.data(), kSlotMagic, magic_seen) != 0) {
    f.kind = SlotFile::Kind::kUnslotted;
    return f;
  }
  f.kind = SlotFile::Kind::kTorn;
  if (f.bytes.size() < kSlotHeaderSize) {
    f.why = "slot image cut inside its header";
    return f;
  }
  ByteReader r(f.bytes);
  std::uint32_t crc = 0;
  std::uint32_t length = 0;
  r.skip(sizeof kSlotMagic);
  r.u32(crc);
  r.u64(f.seq);
  r.u32(length);
  f.has_seq = true;
  if (f.bytes.size() != kSlotHeaderSize + std::size_t{length}) {
    f.why = "slot image is " + std::to_string(f.bytes.size()) +
            " bytes, its header says " +
            std::to_string(kSlotHeaderSize + std::size_t{length});
    return f;
  }
  if (crc32(std::span(f.bytes).subspan(8)) != crc) {
    f.why = "slot CRC mismatch";
    return f;
  }
  f.kind = SlotFile::Kind::kValid;
  return f;
}

SlotFile read_slot(const std::string& path) {
  auto bytes = read_file_bytes(path);
  return decode_slot(bytes.has_value() ? std::move(*bytes)
                                       : std::vector<std::uint8_t>{});
}

std::optional<SlotChoice> load_newest_slot(const SlotPair& pair,
                                           std::string_view what,
                                           const SlotAccept& accept) {
  const std::array<SlotFile, 2> files = {read_slot(pair[0]),
                                         read_slot(pair[1])};
  std::vector<SlotChoice> order;
  for (int i = 0; i < 2; ++i) {
    const SlotFile& f = files[i];
    if (f.kind == SlotFile::Kind::kValid) {
      order.push_back({i, true, f.seq});
    } else if (f.kind == SlotFile::Kind::kTorn) {
      util::log(util::LogLevel::kWarn, std::string(what) + ": rejecting " +
                                           pair[i] + ": " + f.why);
    }
  }
  std::sort(order.begin(), order.end(),
            [](const SlotChoice& a, const SlotChoice& b) {
              return a.seq > b.seq;
            });
  for (int i = 0; i < 2; ++i) {
    if (files[i].kind == SlotFile::Kind::kUnslotted) {
      order.push_back({i, false, 0});
    }
  }
  for (const SlotChoice& c : order) {
    std::string why;
    if (!accept(files[c.slot].payload(), &why)) {
      util::log(util::LogLevel::kWarn, std::string(what) + ": rejecting " +
                                           pair[c.slot] + ": " + why);
      continue;
    }
    // An unslotted file next to an accepted slot image is either an
    // older build's leftover or a slot whose magic was damaged; either
    // way it is passed over, so say so.
    for (int i = 0; c.slotted && i < 2; ++i) {
      if (files[i].kind == SlotFile::Kind::kUnslotted) {
        util::log(util::LogLevel::kWarn,
                  std::string(what) + ": rejecting " + pair[i] +
                      ": not a slot image (outranked by " + pair[c.slot] +
                      ")");
      }
    }
    return c;
  }
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  if (size < 0) return std::nullopt;
  f.seekg(0, std::ios::beg);
  bytes.resize(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  if (!f) return std::nullopt;
  return bytes;
}

void sync_directory(const std::string& directory) {
#ifdef ROVISTA_PERSIST_POSIX
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)directory;
#endif
}

// ---------- DurableFile ----------

std::optional<DurableFile> DurableFile::open(const std::string& path,
                                             bool* created,
                                             std::string* error) {
#ifdef ROVISTA_PERSIST_POSIX
  bool made = true;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0 && errno == EEXIST) {
    made = false;
    fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  }
  if (fd < 0) {
    set_error(error, "cannot open " + path + ": " + errno_text());
    return std::nullopt;
  }
  if (created != nullptr) *created = made;
  return DurableFile(path, fd);
#else
  std::error_code ec;
  const bool made = !fs::exists(path, ec);
  if (made) std::ofstream(path, std::ios::binary);
  if (!fs::exists(path, ec)) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  if (created != nullptr) *created = made;
  return DurableFile(path, 0);
#endif
}

DurableFile::DurableFile(DurableFile&& other) noexcept
    : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)) {}

DurableFile& DurableFile::operator=(DurableFile&& other) noexcept {
  if (this != &other) {
    DurableFile dead(std::move(*this));
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

DurableFile::~DurableFile() {
#ifdef ROVISTA_PERSIST_POSIX
  if (fd_ >= 0) ::close(fd_);
#endif
}

bool DurableFile::truncate(std::uint64_t size) {
#ifdef ROVISTA_PERSIST_POSIX
  return ::ftruncate(fd_, static_cast<::off_t>(size)) == 0;
#else
  std::error_code ec;
  fs::resize_file(path_, size, ec);
  return !ec;
#endif
}

bool DurableFile::write_at(std::uint64_t offset,
                           std::span<const std::uint8_t> head,
                           std::span<const std::uint8_t> body) {
#ifdef ROVISTA_PERSIST_POSIX
  const std::size_t total = head.size() + body.size();
  std::size_t written = 0;
  while (written < total) {
    ::iovec parts[2];
    int count = 0;
    if (written < head.size()) {
      parts[count++] = {const_cast<std::uint8_t*>(head.data()) + written,
                        head.size() - written};
    }
    const std::size_t body_done =
        written > head.size() ? written - head.size() : 0;
    if (body_done < body.size()) {
      parts[count++] = {const_cast<std::uint8_t*>(body.data()) + body_done,
                        body.size() - body_done};
    }
    const ::ssize_t n = ::pwritev(fd_, parts, count,
                                  static_cast<::off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
#else
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) return false;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(head.data()),
          static_cast<std::streamsize>(head.size()));
  f.write(reinterpret_cast<const char*>(body.data()),
          static_cast<std::streamsize>(body.size()));
  f.flush();
  return static_cast<bool>(f);
#endif
}

bool DurableFile::sync() {
#if defined(ROVISTA_PERSIST_POSIX) && defined(_POSIX_SYNCHRONIZED_IO) && \
    _POSIX_SYNCHRONIZED_IO > 0
  return ::fdatasync(fd_) == 0;
#elif defined(ROVISTA_PERSIST_POSIX)
  return ::fsync(fd_) == 0;
#else
  return true;
#endif
}

// ---------- SlotWriter ----------

SlotWriter::SlotWriter(std::array<DurableFile, 2> files,
                       std::array<bool, 2> empty, int target,
                       std::uint64_t next_seq)
    : files_(std::move(files)),
      empty_(empty),
      target_(target),
      next_seq_(next_seq) {}

std::optional<SlotWriter> SlotWriter::open(
    const SlotPair& pair,
    const std::function<bool(std::span<const std::uint8_t>)>& unslotted_ok,
    std::string* error) {
  const std::array<SlotFile, 2> found = {read_slot(pair[0]),
                                         read_slot(pair[1])};
  std::uint64_t max_seq = 0;
  int newest = -1;  // slot holding the newest valid record
  for (int i = 0; i < 2; ++i) {
    if (found[i].has_seq) max_seq = std::max(max_seq, found[i].seq);
    if (found[i].kind == SlotFile::Kind::kValid &&
        (newest < 0 || found[i].seq > found[newest].seq)) {
      newest = i;
    }
  }
  for (int i = 0; newest < 0 && i < 2; ++i) {
    if (found[i].kind == SlotFile::Kind::kUnslotted &&
        unslotted_ok(found[i].payload())) {
      newest = i;
    }
  }

  bool created[2] = {false, false};
  auto slot0 = DurableFile::open(pair[0], &created[0], error);
  if (!slot0.has_value()) return std::nullopt;
  auto slot1 = DurableFile::open(pair[1], &created[1], error);
  if (!slot1.has_value()) return std::nullopt;
  if (created[0] || created[1]) {
    const fs::path dir = fs::path(pair[0]).parent_path();
    sync_directory(dir.empty() ? "." : dir.string());
  }
  return SlotWriter({std::move(*slot0), std::move(*slot1)},
                    {found[0].bytes.empty(), found[1].bytes.empty()},
                    newest == 0 ? 1 : 0, max_seq + 1);
}

bool SlotWriter::commit(std::span<const std::uint8_t> payload,
                        std::string* error) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    return set_error(error, "a slot payload of " +
                                std::to_string(payload.size()) +
                                " bytes does not fit its u32 length");
  }
  const SlotHeader header = slot_header(next_seq_, payload);
  ++next_seq_;
  DurableFile& slot = files_[target_];
  empty_[target_] = false;
  if (!slot.write_at(0, header, payload) ||
      !slot.truncate(header.size() + payload.size()) || !slot.sync()) {
    return set_error(error,
                     "committing " + slot.path() + " failed: " + errno_text());
  }
  target_ ^= 1;
  return true;
}

bool SlotWriter::retire(std::string* error) {
  for (int i = 0; i < 2; ++i) {
    if (empty_[i]) continue;
    if (!files_[i].truncate(0) || !files_[i].sync()) {
      return set_error(error, "retiring " + files_[i].path() +
                                  " failed: " + errno_text());
    }
    empty_[i] = true;
  }
  target_ = 0;
  return true;
}

}  // namespace rovista::persist
