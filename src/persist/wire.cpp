#include "persist/wire.h"

#include <array>
#include <bit>

namespace rovista::persist {

namespace {

// Slicing-by-8: t[k][b] is the register contribution of byte b followed
// by k zero bytes, so eight input bytes fold into the register with
// eight independent table loads instead of eight dependent
// shift-and-lookup steps. t[0] is the classic bytewise table.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// Append the `n` low-order bytes of `v`, least significant first.
void append_le(std::vector<std::uint8_t>& buf, std::uint64_t v,
               std::size_t n) {
  std::uint8_t b[8];
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf.insert(buf.end(), b, b + n);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t crc) noexcept {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                      std::uint64_t basis) noexcept {
  std::uint64_t h = basis;
  for (const std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) { append_le(buf_, v, 2); }

void ByteWriter::u32(std::uint32_t v) { append_le(buf_, v, 4); }

void ByteWriter::u64(std::uint64_t v) { append_le(buf_, v, 8); }

void ByteWriter::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

bool ByteReader::take(std::size_t n, const std::uint8_t*& out) noexcept {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool ByteReader::u8(std::uint8_t& out) noexcept {
  const std::uint8_t* p = nullptr;
  if (!take(1, p)) return false;
  out = p[0];
  return true;
}

bool ByteReader::u16(std::uint16_t& out) noexcept {
  const std::uint8_t* p = nullptr;
  if (!take(2, p)) return false;
  out = static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
  return true;
}

bool ByteReader::u32(std::uint32_t& out) noexcept {
  const std::uint8_t* p = nullptr;
  if (!take(4, p)) return false;
  out = 0;
  for (int i = 3; i >= 0; --i) out = (out << 8) | p[i];
  return true;
}

bool ByteReader::u64(std::uint64_t& out) noexcept {
  const std::uint8_t* p = nullptr;
  if (!take(8, p)) return false;
  out = 0;
  for (int i = 7; i >= 0; --i) out = (out << 8) | p[i];
  return true;
}

bool ByteReader::i64(std::int64_t& out) noexcept {
  std::uint64_t v = 0;
  if (!u64(v)) return false;
  out = static_cast<std::int64_t>(v);
  return true;
}

bool ByteReader::f64(double& out) noexcept {
  std::uint64_t v = 0;
  if (!u64(v)) return false;
  out = std::bit_cast<double>(v);
  return true;
}

bool ByteReader::skip(std::size_t n) noexcept {
  const std::uint8_t* p = nullptr;
  return take(n, p);
}

}  // namespace rovista::persist
