#ifndef DBTF_COMMON_SERDE_H_
#define DBTF_COMMON_SERDE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dbtf {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes,
/// computed slicing-by-8 (eight table lookups per 8-byte step).
/// Test vector: Crc32("123456789", 9) == 0xCBF43926.
std::uint32_t Crc32(const void* data, std::size_t size);

/// Longest LEB128 varint of a 64-bit value: ceil(64 / 7) bytes.
inline constexpr int kMaxVarintBytes = 10;

/// Bytes ByteWriter::WriteVarint spends on `value` (1..kMaxVarintBytes).
constexpr int VarintBytes(std::uint64_t value) {
  int bytes = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++bytes;
  }
  return bytes;
}

/// ZigZag mapping of signed onto unsigned integers (0, -1, 1, -2, ... ->
/// 0, 1, 2, 3, ...), so values of small magnitude get short varints.
constexpr std::uint64_t ZigZagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}
constexpr std::int64_t ZigZagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>((value >> 1) ^ (0 - (value & 1)));
}

/// FNV-1a 64-bit hash. Used for cheap content fingerprints (configuration
/// and tensor identity checks on resume), not for integrity — integrity is
/// Crc32's job.
std::uint64_t Fnv1a64(const void* data, std::size_t size);

/// Append-only little-endian binary writer. All multi-byte fields are
/// serialized little-endian regardless of host order, so snapshots written
/// on one machine parse on any other.
class ByteWriter {
 public:
  void WriteU8(std::uint8_t value);
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteI64(std::int64_t value);
  void WriteDouble(double value);
  /// Unsigned LEB128: 7 bits per byte, low group first, high bit set on
  /// every byte but the last. Always the shortest form.
  void WriteVarint(std::uint64_t value);
  /// Length-prefixed (u64) byte string.
  void WriteString(const std::string& value);
  void WriteBytes(const void* data, std::size_t size);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  /// CRC-32 of everything written so far.
  std::uint32_t Crc() const { return Crc32(bytes_.data(), bytes_.size()); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounded little-endian reader over a byte buffer it does not own. Every
/// read is checked against the remaining length and fails with kIoError on
/// truncation; ExpectEnd() rejects trailing bytes, so a parse that returns
/// OK consumed exactly the buffer.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size)
      : data_(static_cast<const std::uint8_t*>(data)), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int64_t> ReadI64();
  Result<double> ReadDouble();
  /// Inverse of ByteWriter::WriteVarint. Accepts only the shortest form:
  /// a varint longer than kMaxVarintBytes, one whose tenth byte carries
  /// more than bit 63, or one ending in a redundant zero byte fails with
  /// kIoError, so every value has exactly one encoding.
  Result<std::uint64_t> ReadVarint();
  /// Length-prefixed (u64) byte string; the length is validated against the
  /// remaining buffer before any allocation.
  Result<std::string> ReadString();
  /// Copies `size` raw bytes into `out`.
  Status ReadBytes(void* out, std::size_t size);

  std::size_t remaining() const { return size_ - offset_; }
  std::size_t offset() const { return offset_; }
  /// Fails with kIoError unless the buffer was consumed exactly.
  Status ExpectEnd() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace dbtf

#endif  // DBTF_COMMON_SERDE_H_
