#include "common/serde.h"

#include <array>
#include <bit>
#include <cstring>

namespace dbtf {
namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table, and
/// kCrcTables[k][b] is the CRC contribution of byte b followed by k zero
/// bytes, so one 8-byte step is eight independent lookups XORed together.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Host <-> little-endian conversion of a 64-bit word (its own inverse).
std::uint64_t LittleEndian64(std::uint64_t value) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(value);
  }
  return value;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFU;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(bytes);
    const std::uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::uint64_t Fnv1a64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void ByteWriter::WriteU8(std::uint8_t value) { bytes_.push_back(value); }

void ByteWriter::WriteU32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void ByteWriter::WriteU64(std::uint64_t value) {
  const std::uint64_t le = LittleEndian64(value);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&le);
  bytes_.insert(bytes_.end(), bytes, bytes + sizeof(le));
}

void ByteWriter::WriteI64(std::int64_t value) {
  WriteU64(static_cast<std::uint64_t>(value));
}

void ByteWriter::WriteDouble(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteVarint(std::uint64_t value) {
  while (value >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(value | 0x80));
    value >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(value));
}

void ByteWriter::WriteString(const std::string& value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size());
}

void ByteWriter::WriteBytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

Result<std::uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return Status::IoError("serde: truncated u8");
  return data_[offset_++];
}

Result<std::uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) return Status::IoError("serde: truncated u32");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return value;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) return Status::IoError("serde: truncated u64");
  std::uint64_t le = 0;
  std::memcpy(&le, data_ + offset_, sizeof(le));
  offset_ += sizeof(le);
  return LittleEndian64(le);
}

Result<std::int64_t> ByteReader::ReadI64() {
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t value, ReadU64());
  return static_cast<std::int64_t>(value);
}

Result<double> ByteReader::ReadDouble() {
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t bits, ReadU64());
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::uint64_t> ByteReader::ReadVarint() {
  std::uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    if (remaining() < 1) return Status::IoError("serde: truncated varint");
    const std::uint8_t byte = data_[offset_++];
    if (shift == 7 * (kMaxVarintBytes - 1)) {
      // The tenth byte holds bit 63 alone.
      if ((byte & 0x80) != 0) {
        return Status::IoError("serde: varint longer than 10 bytes");
      }
      if (byte > 1) return Status::IoError("serde: varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift > 0) {
        return Status::IoError("serde: varint not in shortest form");
      }
      return value;
    }
  }
}

Result<std::string> ByteReader::ReadString() {
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t length, ReadU64());
  if (length > remaining()) {
    return Status::IoError("serde: string length exceeds remaining buffer");
  }
  std::string value(reinterpret_cast<const char*>(data_ + offset_),
                    static_cast<std::size_t>(length));
  offset_ += static_cast<std::size_t>(length);
  return value;
}

Status ByteReader::ReadBytes(void* out, std::size_t size) {
  if (size > remaining()) return Status::IoError("serde: truncated bytes");
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (offset_ != size_) {
    return Status::IoError("serde: trailing bytes after parsed payload");
  }
  return Status::OK();
}

}  // namespace dbtf
