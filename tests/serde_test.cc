#include "common/serde.h"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rank.h"
#include "common/status.h"
#include "dbtf/partition.h"
#include "dist/messages.h"
#include "dist/transport/wire.h"
#include "tensor/bit_matrix.h"
#include "test_util.h"

namespace dbtf {
namespace {

TEST(Crc32Test, MatchesIeeeTestVector) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, SensitiveToEveryByte) {
  const std::string a = "checkpoint";
  std::string b = a;
  b[3] ^= 0x01;
  EXPECT_NE(Crc32(a.data(), a.size()), Crc32(b.data(), b.size()));
}

/// The one-byte-at-a-time CRC-32 that slicing-by-8 must reproduce.
std::uint32_t BytewiseCrc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> bytes(4096 + 8);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::uint8_t& b : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(state >> 56);
  }
  EXPECT_EQ(BytewiseCrc32(reinterpret_cast<const std::uint8_t*>("123456789"),
                          9),
            0xCBF43926u);
  for (std::size_t size = 0; size <= 4096; ++size) {
    ASSERT_EQ(Crc32(bytes.data(), size), BytewiseCrc32(bytes.data(), size))
        << "length " << size;
  }
  for (std::size_t offset = 1; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 200; ++size) {
      ASSERT_EQ(Crc32(bytes.data() + offset, size),
                BytewiseCrc32(bytes.data() + offset, size))
          << "offset " << offset << ", length " << size;
    }
  }
}

TEST(Fnv1a64Test, DistinguishesContent) {
  const std::string a = "config-a";
  const std::string b = "config-b";
  EXPECT_NE(Fnv1a64(a.data(), a.size()), Fnv1a64(b.data(), b.size()));
  EXPECT_EQ(Fnv1a64(a.data(), a.size()), Fnv1a64(a.data(), a.size()));
}

TEST(Fnv1a64Test, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
}

TEST(SerdeTest, RoundTripsEveryType) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI64(-42);
  w.WriteI64(std::numeric_limits<std::int64_t>::min());
  w.WriteDouble(3.141592653589793);
  w.WriteString("factor");
  w.WriteString("");  // empty strings round-trip too

  ByteReader r(w.bytes());
  ASSERT_TRUE(r.ReadU8().ok());
  ByteReader r2(w.bytes());
  EXPECT_EQ(r2.ReadU8().value(), 0xAB);
  EXPECT_EQ(r2.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r2.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r2.ReadI64().value(), -42);
  EXPECT_EQ(r2.ReadI64().value(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r2.ReadDouble().value(), 3.141592653589793);
  EXPECT_EQ(r2.ReadString().value(), "factor");
  EXPECT_EQ(r2.ReadString().value(), "");
  EXPECT_TRUE(r2.ExpectEnd().ok());
}

TEST(SerdeTest, LittleEndianOnTheWire) {
  ByteWriter w;
  w.WriteU32(0x01020304u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[1], 0x03);
  EXPECT_EQ(w.bytes()[2], 0x02);
  EXPECT_EQ(w.bytes()[3], 0x01);
  w.WriteU64(0x0102030405060708ull);
  EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{4, 3, 2, 1, 8, 7, 6, 5, 4,
                                                  3, 2, 1}));
  ByteReader r(w.bytes().data() + 4, 8);
  EXPECT_EQ(r.ReadU64().value(), 0x0102030405060708ull);
}

TEST(SerdeTest, VarintsRoundTripInShortestForm) {
  const std::uint64_t values[] = {0,       1,          127,
                                  128,     300,        16383,
                                  16384,   1ull << 63, ~0ull};
  for (const std::uint64_t v : values) {
    ByteWriter w;
    w.WriteVarint(v);
    EXPECT_EQ(static_cast<int>(w.size()), VarintBytes(v)) << v;
    ByteReader r(w.bytes());
    EXPECT_EQ(r.ReadVarint().value(), v);
    EXPECT_TRUE(r.ExpectEnd().ok());
  }
  EXPECT_EQ(VarintBytes(0), 1);
  EXPECT_EQ(VarintBytes(127), 1);
  EXPECT_EQ(VarintBytes(128), 2);
  EXPECT_EQ(VarintBytes(~0ull), kMaxVarintBytes);
  ByteWriter w;
  w.WriteVarint(300);
  EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{0xAC, 0x02}));
}

TEST(SerdeTest, ZigZagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(ZigZagEncode(kMax), ~0ull - 1);
  EXPECT_EQ(ZigZagEncode(kMin), ~0ull);
  for (const std::int64_t v : {kMin, kMin + 1, std::int64_t{-300},
                               std::int64_t{0}, std::int64_t{77}, kMax}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(SerdeTest, MalformedVarintsAreRejected) {
  const auto rejected = [](std::vector<std::uint8_t> bytes) {
    ByteReader r(bytes);
    return r.ReadVarint().status().code() == StatusCode::kIoError;
  };
  EXPECT_TRUE(rejected({})) << "empty";
  EXPECT_TRUE(rejected({0x80})) << "continuation with nothing after it";
  EXPECT_TRUE(rejected({0x80, 0x00})) << "redundant zero byte";
  EXPECT_TRUE(rejected({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                        0x02}))
      << "tenth byte past bit 63";
  EXPECT_TRUE(rejected({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                        0x81, 0x00}))
      << "longer than ten bytes";
  // The largest value is exactly ten bytes and is accepted.
  std::vector<std::uint8_t> max(9, 0xFF);
  max.push_back(0x01);
  ByteReader r(max);
  EXPECT_EQ(r.ReadVarint().value(), ~0ull);
}

TEST(SerdeTest, RawBytesRoundTrip) {
  const std::uint8_t payload[4] = {1, 2, 3, 4};
  ByteWriter w;
  w.WriteBytes(payload, sizeof(payload));
  ByteReader r(w.bytes());
  std::uint8_t out[4] = {0, 0, 0, 0};
  ASSERT_TRUE(r.ReadBytes(out, sizeof(out)).ok());
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, TruncationFailsEveryReader) {
  ByteWriter w;
  w.WriteU64(7);
  // Chop one byte off; every multi-byte read past the end must fail with
  // kIoError instead of reading out of bounds.
  ByteReader r(w.bytes().data(), w.size() - 1);
  EXPECT_EQ(r.ReadU64().status().code(), StatusCode::kIoError);

  ByteReader empty(w.bytes().data(), 0);
  EXPECT_EQ(empty.ReadU8().status().code(), StatusCode::kIoError);
  EXPECT_EQ(empty.ReadU32().status().code(), StatusCode::kIoError);
  EXPECT_EQ(empty.ReadI64().status().code(), StatusCode::kIoError);
  EXPECT_EQ(empty.ReadDouble().status().code(), StatusCode::kIoError);
  EXPECT_EQ(empty.ReadString().status().code(), StatusCode::kIoError);
  std::uint8_t sink = 0;
  EXPECT_EQ(empty.ReadBytes(&sink, 1).code(), StatusCode::kIoError);
}

TEST(SerdeTest, StringLengthBeyondBufferIsRejected) {
  // A length prefix claiming more bytes than remain must fail before any
  // allocation, not over-read.
  ByteWriter w;
  w.WriteU64(1000);  // claims a 1000-byte string...
  w.WriteU8('x');    // ...but only one byte follows
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadString().status().code(), StatusCode::kIoError);
}

TEST(SerdeTest, TrailingBytesAreRejected) {
  ByteWriter w;
  w.WriteU32(5);
  w.WriteU8(0xFF);  // one stray byte after the parsed prefix
  ByteReader r(w.bytes());
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_EQ(r.ExpectEnd().code(), StatusCode::kIoError);
  ASSERT_TRUE(r.ReadU8().ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, WriterCrcTracksContent) {
  ByteWriter w;
  EXPECT_EQ(w.Crc(), 0u);
  w.WriteString("123456789");
  // The string is length-prefixed, so the CRC covers prefix + payload.
  EXPECT_EQ(w.Crc(), Crc32(w.bytes().data(), w.size()));
  const std::uint32_t before = w.Crc();
  w.WriteU8(0);
  EXPECT_NE(w.Crc(), before);
}

TEST(SerdeTest, OffsetAndRemainingTrackReads) {
  ByteWriter w;
  w.WriteU32(1);
  w.WriteU32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.offset(), 0u);
  EXPECT_EQ(r.remaining(), 8u);
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_EQ(r.offset(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

// --- Wire-message codecs (dist/transport/wire.h) ----------------------------
//
// Property-style coverage of every WireMessage kind: encode -> decode ->
// encode must be byte-stable (the codecs are exact inverses), every strict
// prefix of an encoding must be rejected with a Status (truncation is never
// UB — the bytes arrive from another process), and frame-level corruption
// must be caught by the CRC trailer.

/// Encodes, decodes, re-encodes, and asserts byte-stability. The decoder
/// must also consume the buffer exactly (no trailing bytes, nothing short).
template <typename T, typename Encode, typename Decode>
void ExpectWireRoundTrip(const T& msg, const Encode& encode,
                         const Decode& decode) {
  ByteWriter first;
  encode(msg, &first);
  ByteReader reader(first.bytes());
  auto decoded = decode(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(reader.ExpectEnd().ok());
  ByteWriter second;
  encode(*decoded, &second);
  EXPECT_EQ(first.bytes(), second.bytes());
}

/// Every strict prefix of `bytes` must fail to decode — with a Status, not
/// UB (run under ASan/UBSan in CI, this is the no-overread proof).
template <typename Decode>
void ExpectEveryTruncationRejected(const std::vector<std::uint8_t>& bytes,
                                   const Decode& decode) {
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader(bytes.data(), cut);
    auto decoded = decode(&reader);
    // Either a read ran off the shortened buffer, or the decoder finished
    // early without consuming what the full encoding contains.
    const bool rejected = !decoded.ok() || !reader.ExpectEnd().ok();
    EXPECT_TRUE(rejected) << "prefix of " << cut << " of " << bytes.size()
                          << " bytes decoded cleanly";
  }
}

BitMatrix TestMatrix(std::int64_t rows, std::int64_t cols,
                     std::uint64_t seed) {
  BitMatrix m(rows, cols);
  std::uint64_t state = seed;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      m.Set(r, c, (state >> 62) & 1);
    }
  }
  return m;
}

FactorDelta TestFactorDelta() {
  FactorDelta msg;
  msg.mode = Mode::kTwo;
  msg.rows = 24;
  msg.mf_slot = 2;
  msg.ms_slot = 1;
  msg.cache_group_size = 7;
  msg.enable_caching = false;
  MatrixDelta full;
  full.slot = 2;
  full.generation = 41;
  full.full = true;
  full.dense = TestMatrix(12, 5, 3);
  full.rows = 12;
  full.cols = 5;
  msg.updates.push_back(std::move(full));
  MatrixDelta delta;
  delta.slot = 1;
  delta.generation = 42;
  delta.base_generation = 40;
  delta.full = false;
  delta.rows = 70;  // two BitWords per column
  delta.cols = 4;
  delta.columns = {0, 3};
  delta.column_bits = {{0x00000000000000FFull, 0x1Full},
                       {0xAAAAAAAAAAAAAAAAull, 0x2Aull}};
  msg.updates.push_back(std::move(delta));
  return msg;
}

StorePartitionRequest TestStoreRequest() {
  using dbtf::testing::RandomTensor;
  const SparseTensor t = RandomTensor(12, 10, 8, 0.3, 99);
  auto unfolding = PartitionedUnfolding::Build(t, Mode::kOne, 2);
  StorePartitionRequest msg;
  msg.mode = Mode::kOne;
  msg.index = 1;
  msg.shape = unfolding->shape();
  std::vector<Partition> parts = std::move(*unfolding).ReleasePartitions();
  msg.partition = std::move(parts[parts.size() > 1 ? 1 : 0]);
  return msg;
}

TEST(WireCodec, FactorDeltaRoundTripsByteStable) {
  ExpectWireRoundTrip(TestFactorDelta(), EncodeFactorDelta, DecodeFactorDelta);
}

TEST(WireCodec, FactorDeltaTruncationRejected) {
  ByteWriter w;
  EncodeFactorDelta(TestFactorDelta(), &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeFactorDelta);
}

/// Masks of `rows` rows, each a pseudo-random subset of the low `width`
/// bits, with the top bit forced on in the last row so the planes' width is
/// exactly `width`.
RunUpdateColumn TestRunUpdateColumn(std::int64_t rows, int width) {
  RunUpdateColumn msg;
  msg.mode = Mode::kThree;
  msg.column = 5;
  msg.rows = rows;
  std::uint64_t state = static_cast<std::uint64_t>(rows * 131 + width);
  const std::uint64_t low =
      width == 64 ? ~0ull : (std::uint64_t{1} << width) - 1;
  for (std::int64_t r = 0; r < rows; ++r) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    msg.row_masks.push_back(state & low);
  }
  if (width > 0 && rows > 0) {
    msg.row_masks.back() |= std::uint64_t{1} << (width - 1);
  }
  return msg;
}

/// Bytes of a RunUpdateColumn header: mode, column, rows, plane width.
constexpr std::size_t kRunHeaderBytes = 1 + 8 + 8 + 1;

TEST(WireCodec, RunUpdateColumnRoundTripsAsBitPlanes) {
  for (const std::int64_t rows : {0, 1, 63, 64, 65, 160}) {
    for (const int width : {0, 1, 10, 64}) {
      const RunUpdateColumn msg = TestRunUpdateColumn(rows, width);
      SCOPED_TRACE("rows " + std::to_string(rows) + ", width " +
                   std::to_string(width));
      ExpectWireRoundTrip(msg, EncodeRunUpdateColumn, DecodeRunUpdateColumn);
      ByteWriter w;
      EncodeRunUpdateColumn(msg, &w);
      const std::size_t planes =
          rows == 0 ? 0 : static_cast<std::size_t>(width);
      EXPECT_EQ(w.size(), kRunHeaderBytes + planes * 8 *
                                                WordsForBits(
                                                    static_cast<std::size_t>(
                                                        rows)));
      ByteReader reader(w.bytes());
      EXPECT_EQ(DecodeRunUpdateColumn(&reader)->row_masks, msg.row_masks);
      ExpectEveryTruncationRejected(w.bytes(), DecodeRunUpdateColumn);
    }
  }
  // The fig-7-sized column: 160 rows at rank 10 ship 10 planes of 3 words,
  // 240 bytes of masks instead of 160 x 8.
  ByteWriter w;
  EncodeRunUpdateColumn(TestRunUpdateColumn(160, 10), &w);
  EXPECT_EQ(w.size() - kRunHeaderBytes, 240u);
}

TEST(WireCodec, RunUpdateColumnRejectsBadPlanes) {
  ByteWriter w;
  EncodeRunUpdateColumn(TestRunUpdateColumn(5, 3), &w);
  const std::size_t width_at = kRunHeaderBytes - 1;
  {
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[width_at] = static_cast<std::uint8_t>(kMaxRank + 1);
    bytes.resize(kRunHeaderBytes + static_cast<std::size_t>(kMaxRank + 1) * 8,
                 0);
    ByteReader reader(bytes);
    EXPECT_EQ(DecodeRunUpdateColumn(&reader).status().code(),
              StatusCode::kIoError)
        << "plane width above the rank cap";
  }
  {
    // Bit 10 of the first plane belongs to no row (5 rows).
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[kRunHeaderBytes + 1] |= 0x04;
    ByteReader reader(bytes);
    EXPECT_EQ(DecodeRunUpdateColumn(&reader).status().code(),
              StatusCode::kIoError)
        << "set bit in plane padding";
  }
}

TEST(WireCodec, RunUpdateColumnRejectsAnEmptyTopPlane) {
  // The width is the bit width of the OR of all masks, so the top plane the
  // encoder sends always has a set bit. One more, all-zero plane would
  // decode to the same masks and re-encode 8 bytes shorter.
  ByteWriter w;
  EncodeRunUpdateColumn(TestRunUpdateColumn(5, 3), &w);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes[kRunHeaderBytes - 1] = 4;
  bytes.resize(bytes.size() + 8, 0);  // plane 3: one word for 5 rows
  ByteReader reader(bytes);
  EXPECT_EQ(DecodeRunUpdateColumn(&reader).status().code(),
            StatusCode::kIoError);

  // With no rows every plane is empty: the only encoding has width 0.
  ByteWriter empty;
  EncodeRunUpdateColumn(TestRunUpdateColumn(0, 0), &empty);
  bytes = empty.bytes();
  ASSERT_EQ(bytes.size(), kRunHeaderBytes);
  bytes[kRunHeaderBytes - 1] = 1;
  ByteReader empty_reader(bytes);
  EXPECT_EQ(DecodeRunUpdateColumn(&empty_reader).status().code(),
            StatusCode::kIoError);
}

TEST(WireCodec, CollectErrorsRequestRoundTripsByteStable) {
  CollectErrorsRequest msg;
  msg.mode = Mode::kTwo;
  msg.rows = 17;
  msg.want_stats = true;
  ExpectWireRoundTrip(msg, EncodeCollectErrorsRequest,
                      DecodeCollectErrorsRequest);
  ByteWriter w;
  EncodeCollectErrorsRequest(msg, &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeCollectErrorsRequest);
}

CollectErrorsResponse TestResponse(std::int64_t rows) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t extremes[] = {kMax, 0, -kMax, -1, 1, -200, 5000};
  CollectErrorsResponse msg;
  for (std::int64_t r = 0; r < rows; ++r) {
    msg.diffs.push_back(extremes[r % 7]);
  }
  msg.base_error = 123456789;
  msg.cache_entries = 17;
  msg.cache_bytes = 2048;
  return msg;
}

TEST(WireCodec, CollectErrorsResponseRoundTripsAtItsExactSize) {
  for (const std::int64_t rows : {0, 1, 63, 64, 65, 160}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const CollectErrorsResponse msg = TestResponse(rows);
    ExpectWireRoundTrip(msg, EncodeCollectErrorsResponse,
                        DecodeCollectErrorsResponse);
    ByteWriter w;
    EncodeCollectErrorsResponse(msg, &w);
    EXPECT_EQ(static_cast<std::int64_t>(w.size()), msg.WireBytes());
    ByteReader reader(w.bytes());
    const Result<CollectErrorsResponse> decoded =
        DecodeCollectErrorsResponse(&reader);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->diffs, msg.diffs);
    EXPECT_EQ(decoded->base_error, msg.base_error);
    EXPECT_EQ(decoded->cache_entries, msg.cache_entries);
    EXPECT_EQ(decoded->cache_bytes, msg.cache_bytes);
    ExpectEveryTruncationRejected(w.bytes(), DecodeCollectErrorsResponse);
  }
  // 160 zero differences cost one byte each.
  CollectErrorsResponse zeros;
  zeros.diffs.assign(160, 0);
  EXPECT_EQ(zeros.WireBytes(), 2 + 2 + 160 + 3);
}

TEST(WireCodec, CollectErrorsResponseRejectsABlockThatMissesTheRowCount) {
  CollectErrorsResponse msg;
  msg.diffs = {3, -4, 5};
  ByteWriter w;
  EncodeCollectErrorsResponse(msg, &w);
  // Byte 0 is the row count: claim two rows, then four, over the 3-diff
  // block.
  for (const std::uint8_t rows : {2, 4}) {
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[0] = rows;
    ByteReader reader(bytes);
    EXPECT_EQ(DecodeCollectErrorsResponse(&reader).status().code(),
              StatusCode::kIoError)
        << "rows " << static_cast<int>(rows);
  }
}

TEST(WireCodec, MergeSumsDifferencesAndScalars) {
  CollectErrorsResponse a;
  a.diffs = {1, -2};
  a.base_error = 10;
  a.cache_entries = 1;
  CollectErrorsResponse b;
  b.diffs = {-5, 2, 7};
  b.base_error = 4;
  b.cache_bytes = 8;
  a.MergeFrom(b);
  EXPECT_EQ(a.diffs, (std::vector<std::int64_t>{-4, 0, 7}));
  EXPECT_EQ(a.base_error, 14);
  EXPECT_EQ(a.cache_entries, 1);
  EXPECT_EQ(a.cache_bytes, 8);
}

TEST(WireCodec, ColumnDeltaBitsPastTheRowsAreRejected) {
  // A 4-row column uses 4 bits of its word; like every other packed-bit
  // field, a column whose padding is set has no encoder that produces it.
  FactorDelta msg;
  msg.rows = 4;
  MatrixDelta delta;
  delta.slot = 1;
  delta.generation = 2;
  delta.base_generation = 1;
  delta.full = false;
  delta.rows = 4;
  delta.cols = 3;
  delta.columns = {2};
  delta.column_bits = {{0x5ull}};
  msg.updates.push_back(delta);
  ExpectWireRoundTrip(msg, EncodeFactorDelta, DecodeFactorDelta);

  msg.updates[0].column_bits[0][0] |= std::uint64_t{1} << 10;
  ByteWriter w;
  EncodeFactorDelta(msg, &w);
  ByteReader reader(w.bytes());
  EXPECT_EQ(DecodeFactorDelta(&reader).status().code(), StatusCode::kIoError);
}

TEST(WireCodec, StorePartitionRequestRoundTripsByteStable) {
  const StorePartitionRequest msg = TestStoreRequest();
  ExpectWireRoundTrip(msg, EncodeStorePartitionRequest,
                      DecodeStorePartitionRequest);
  ByteWriter w;
  EncodeStorePartitionRequest(msg, &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeStorePartitionRequest);
}

TEST(WireCodec, ListPartitionsRoundTripsByteStable) {
  {
    ByteWriter first;
    EncodeListPartitionsRequest(Mode::kThree, &first);
    ByteReader reader(first.bytes());
    auto mode = DecodeListPartitionsRequest(&reader);
    ASSERT_TRUE(mode.ok());
    ASSERT_TRUE(reader.ExpectEnd().ok());
    ByteWriter second;
    EncodeListPartitionsRequest(*mode, &second);
    EXPECT_EQ(first.bytes(), second.bytes());
    ExpectEveryTruncationRejected(first.bytes(), DecodeListPartitionsRequest);
  }
  {
    const std::vector<std::int64_t> indexes = {0, 7, 3};
    ByteWriter first;
    EncodeListPartitionsResponse(indexes, &first);
    ByteReader reader(first.bytes());
    auto decoded = DecodeListPartitionsResponse(&reader);
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(reader.ExpectEnd().ok());
    EXPECT_EQ(*decoded, indexes);
    ExpectEveryTruncationRejected(first.bytes(), DecodeListPartitionsResponse);
  }
}

TEST(WireCodec, ReplyRoundTripsByteStable) {
  WireReply reply;
  reply.status = Status::FailedPrecondition("stale base generation");
  reply.compute_seconds = 0.125;
  reply.body = {1, 2, 3, 0xFF, 0};
  ExpectWireRoundTrip(reply, EncodeReply, DecodeReply);
  ByteWriter w;
  EncodeReply(reply, &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeReply);
}

/// One request of each query kind, as the serving engine builds them.
std::vector<QueryRequest> TestQueries() {
  QueryRequest membership;
  membership.kind = QueryKind::kMembership;
  membership.id = 1;
  membership.i = 3;
  membership.j = 1;
  membership.k = 4;
  QueryRequest fiber;
  fiber.kind = QueryKind::kFiber;
  fiber.id = 2;
  fiber.mode = Mode::kTwo;
  fiber.k = 2;
  fiber.i = 5;
  QueryRequest top;
  top.kind = QueryKind::kTopConcepts;
  top.id = 3;
  top.mode = Mode::kThree;
  top.slice_bits = {0xF0F0F0F0F0F0F0F0ull, 0x3ull};
  top.slice_len = 66;
  top.top_r = 4;
  return {membership, fiber, top};
}

/// One answer of each query kind, tagged with the three generations.
std::vector<QueryResponse> TestAnswers() {
  QueryResponse membership;
  membership.id = 1;
  membership.member = true;
  membership.explain_mask = 0x9;
  membership.generations = {21, 22, 23};
  QueryResponse fiber;
  fiber.id = 2;
  fiber.fiber_bits = {0x0FF0ull};
  fiber.fiber_len = 12;
  fiber.generations = {21, 22, 23};
  QueryResponse top;
  top.id = 3;
  top.concept_ids = {0, 3, 7};
  top.concept_scores = {6, 2, 2};
  top.generations = {21, 22, 23};
  return {membership, fiber, top};
}

TEST(WireCodec, QueriesArePricedAtTheirEncodedSize) {
  // The query ledger charges request.WireBytes() + response.WireBytes():
  // both must be the exact size of the encoding, or every query is
  // mispriced.
  for (const QueryRequest& msg : TestQueries()) {
    SCOPED_TRACE("request kind " + std::to_string(static_cast<int>(msg.kind)));
    ExpectWireRoundTrip(msg, EncodeQueryRequest, DecodeQueryRequest);
    ByteWriter w;
    EncodeQueryRequest(msg, &w);
    EXPECT_EQ(static_cast<std::int64_t>(w.size()), msg.WireBytes());
    ExpectEveryTruncationRejected(w.bytes(), DecodeQueryRequest);
  }
  for (const QueryResponse& msg : TestAnswers()) {
    SCOPED_TRACE("answer " + std::to_string(msg.id));
    ExpectWireRoundTrip(msg, EncodeQueryResponse, DecodeQueryResponse);
    ByteWriter w;
    EncodeQueryResponse(msg, &w);
    EXPECT_EQ(static_cast<std::int64_t>(w.size()), msg.WireBytes());
    ExpectEveryTruncationRejected(w.bytes(), DecodeQueryResponse);
  }
  // id, member, mask, fiber length, two empty ranked lists, and the three
  // generations behind their count.
  EXPECT_EQ(TestAnswers()[0].WireBytes(), 8 + 1 + 8 + 8 + 8 + 8 + 8 + 3 * 8);
}

TEST(WireCodec, InvalidModeIsRejectedNotUb) {
  ByteWriter w;
  w.WriteU8(9);  // Mode is 1..3 on the wire
  ByteReader reader(w.bytes());
  EXPECT_FALSE(DecodeListPartitionsRequest(&reader).ok());
}

TEST(WireFrameTest, FrameRoundTripsAndRejectsDamage) {
  ByteWriter payload;
  EncodeRunUpdateColumn(
      RunUpdateColumn{Mode::kOne, 2, {0xF0ull, 0x0Full}, 2}, &payload);
  const std::vector<std::uint8_t> frame =
      EncodeFrame(WireKind::kRunColumn, payload);
  ASSERT_GE(frame.size(), kFrameHeaderBytes + kFrameCrcBytes);

  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, WireKind::kRunColumn);
  EXPECT_EQ(decoded->payload, payload.bytes());

  // Every single-bit flip anywhere in the frame is rejected: header damage
  // fails the magic/version/kind/length checks, payload damage fails the
  // CRC, CRC damage fails the comparison.
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    std::vector<std::uint8_t> damaged = frame;
    damaged[byte] ^= 0x40;
    auto result = DecodeFrame(damaged);
    EXPECT_FALSE(result.ok()) << "bit flip in byte " << byte << " accepted";
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    }
  }

  // Truncation at every length is a clean kIoError, never an overread.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<std::uint8_t> short_frame(frame.begin(),
                                          frame.begin() + cut);
    EXPECT_FALSE(DecodeFrame(short_frame).ok());
  }
}

TEST(WireFrameTest, RetiredCollectKindIsUnknown) {
  ByteWriter empty;
  std::vector<std::uint8_t> frame = EncodeFrame(WireKind::kShutdown, empty);
  frame[5] = 3;  // the separate collect request of wire version 2
  EXPECT_EQ(DecodeFrame(frame).status().code(), StatusCode::kIoError);
}

TEST(WireFrameTest, ShutdownFrameIsEmptyPayload) {
  ByteWriter empty;
  const std::vector<std::uint8_t> frame =
      EncodeFrame(WireKind::kShutdown, empty);
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, WireKind::kShutdown);
  EXPECT_TRUE(decoded->payload.empty());
}

/// A padding-bit violation in a dense matrix payload is data corruption the
/// CRC cannot see (it was encoded that way); the decoder must reject it
/// rather than import a matrix whose popcounts lie.
TEST(WireCodec, PaddingBitViolationRejected) {
  MatrixDelta d;
  d.slot = 0;
  d.generation = 1;
  d.full = true;
  d.dense = TestMatrix(3, 5, 11);  // 5 cols -> 59 padding bits per word
  d.rows = 3;
  d.cols = 5;
  FactorDelta msg;
  msg.mode = Mode::kOne;
  msg.rows = 3;
  msg.updates.push_back(std::move(d));
  ByteWriter w;
  EncodeFactorDelta(msg, &w);
  // The matrix words are the trailing cols-bit groups; flip a high bit in
  // the last row word (belongs to padding, not to any column).
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes[bytes.size() - 1] ^= 0x80;  // top byte of the final little-endian word
  ByteReader reader(bytes);
  auto decoded = DecodeFactorDelta(&reader);
  EXPECT_FALSE(decoded.ok());
}

}  // namespace
}  // namespace dbtf
