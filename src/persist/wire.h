// Byte-level primitives for the checkpoint wire format (docs/FORMATS.md).
//
// Everything on disk is little-endian regardless of host order, floats
// travel as their IEEE-754 bit patterns, and every read is bounds-
// checked: a ByteReader that runs off the end latches a failure flag
// instead of touching memory it does not own. The checkpoint loader is
// fed attacker-grade inputs (truncations, bit flips) by the tier-1
// corruption tests, so nothing here may trust a length it read.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

namespace rovista::persist {

/// IEEE 802.3 CRC-32 (polynomial 0xEDB88320, init/final-xor 0xFFFFFFFF)
/// — the per-section integrity check of the checkpoint container.
/// Passing a previous result as `crc` continues it: crc32(b, crc32(a))
/// == crc32(a ‖ b).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t crc = 0) noexcept;

/// 64-bit FNV-1a — used for configuration digests (persist stores the
/// digest; the engine decides what feeds it).
std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                      std::uint64_t basis = 0xcbf29ce484222325ull) noexcept;

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// IEEE-754 bit pattern, so doubles round-trip bit-exactly (NaN
  /// payloads included).
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);

  std::size_t size() const noexcept { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder. Every accessor returns false
/// (and latches `failed`) once the input is exhausted; partial reads
/// never occur.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  bool u8(std::uint8_t& out) noexcept;
  bool u16(std::uint16_t& out) noexcept;
  bool u32(std::uint32_t& out) noexcept;
  bool u64(std::uint64_t& out) noexcept;
  bool i64(std::int64_t& out) noexcept;
  bool f64(double& out) noexcept;
  bool skip(std::size_t n) noexcept;

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool failed() const noexcept { return failed_; }
  /// True iff no read ever failed and the input was consumed exactly.
  bool exhausted_ok() const noexcept { return !failed_ && remaining() == 0; }

 private:
  bool take(std::size_t n, const std::uint8_t*& out) noexcept;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace rovista::persist
