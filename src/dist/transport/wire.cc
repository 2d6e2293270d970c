#include "dist/transport/wire.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/bitspan.h"
#include "common/rank.h"
#include "tensor/bit_matrix.h"

namespace dbtf {
namespace {

/// Upper bound on any single dimension crossing the wire. Generous (the
/// packed unfoldings themselves are capped at 2 GiB) but small enough that
/// size arithmetic below cannot overflow 64 bits.
constexpr std::int64_t kMaxWireDim = std::int64_t{1} << 32;

/// Sanity cap on one frame's payload: a partition cannot exceed the packed
/// unfolding cap, so anything larger is corruption, not data.
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 33;

Status Corrupt(const char* what) {
  return Status::IoError(std::string("wire message corrupt: ") + what);
}

bool IsWireKind(std::uint8_t kind) {
  switch (static_cast<WireKind>(kind)) {
    case WireKind::kFactorDelta:
    case WireKind::kRunColumn:
    case WireKind::kStorePartition:
    case WireKind::kListPartitions:
    case WireKind::kShutdown:
    case WireKind::kReply:
    case WireKind::kQuery:
      return true;
  }
  return false;
}

void EncodeMode(Mode mode, ByteWriter* writer) {
  writer->WriteU8(static_cast<std::uint8_t>(mode));
}

Result<Mode> DecodeMode(ByteReader* reader) {
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t raw, reader->ReadU8());
  if (raw < 1 || raw > 3) return Corrupt("mode out of range");
  return static_cast<Mode>(raw);
}

Result<bool> DecodeBool(ByteReader* reader) {
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t raw, reader->ReadU8());
  if (raw > 1) return Corrupt("boolean flag out of range");
  return raw != 0;
}

void EncodeMatrixDelta(const MatrixDelta& d, ByteWriter* writer) {
  writer->WriteU8(static_cast<std::uint8_t>(d.slot));
  writer->WriteU64(d.generation);
  writer->WriteU64(d.base_generation);
  writer->WriteU8(d.full ? 1 : 0);
  writer->WriteI64(d.rows);
  writer->WriteI64(d.cols);
  if (d.full) {
    WriteBitMatrix(d.dense, writer);
    return;
  }
  writer->WriteU64(d.columns.size());
  const std::size_t words_per_column =
      static_cast<std::size_t>((d.rows + 63) / 64);
  for (std::size_t i = 0; i < d.columns.size(); ++i) {
    writer->WriteI64(d.columns[i]);
    for (std::size_t w = 0; w < words_per_column; ++w) {
      writer->WriteU64(d.column_bits[i][w]);
    }
  }
}

Result<MatrixDelta> DecodeMatrixDelta(ByteReader* reader) {
  MatrixDelta d;
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t slot, reader->ReadU8());
  if (slot > 2) return Corrupt("factor slot out of range");
  d.slot = slot;
  DBTF_ASSIGN_OR_RETURN(d.generation, reader->ReadU64());
  DBTF_ASSIGN_OR_RETURN(d.base_generation, reader->ReadU64());
  DBTF_ASSIGN_OR_RETURN(d.full, DecodeBool(reader));
  DBTF_ASSIGN_OR_RETURN(d.rows, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(d.cols, reader->ReadI64());
  if (d.rows < 0 || d.cols < 0 || d.rows > kMaxWireDim || d.cols > kMaxRank) {
    return Corrupt("matrix-delta shape out of range");
  }
  if (d.full) {
    DBTF_ASSIGN_OR_RETURN(d.dense, ReadBitMatrix(reader));
    if (d.dense.rows() != d.rows || d.dense.cols() != d.cols) {
      return Corrupt("full payload does not match the delta's shape");
    }
    return d;
  }
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  const std::uint64_t words_per_column =
      static_cast<std::uint64_t>((d.rows + 63) / 64);
  const std::uint64_t per_column = 8 + words_per_column * 8;
  if (count > static_cast<std::uint64_t>(d.cols) ||
      count * per_column > reader->remaining()) {
    return Corrupt("column-delta count truncated");
  }
  d.columns.reserve(static_cast<std::size_t>(count));
  d.column_bits.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    DBTF_ASSIGN_OR_RETURN(const std::int64_t column, reader->ReadI64());
    if (column < 0 || column >= d.cols) {
      return Corrupt("changed column index out of range");
    }
    std::vector<BitWord> bits(static_cast<std::size_t>(words_per_column), 0);
    for (std::uint64_t w = 0; w < words_per_column; ++w) {
      DBTF_ASSIGN_OR_RETURN(bits[static_cast<std::size_t>(w)],
                            reader->ReadU64());
    }
    d.columns.push_back(column);
    d.column_bits.push_back(std::move(bits));
  }
  return d;
}

}  // namespace

void EncodeFactorDelta(const FactorDelta& msg, ByteWriter* writer) {
  EncodeMode(msg.mode, writer);
  writer->WriteI64(msg.rows);
  writer->WriteU8(static_cast<std::uint8_t>(msg.mf_slot));
  writer->WriteU8(static_cast<std::uint8_t>(msg.ms_slot));
  writer->WriteU32(static_cast<std::uint32_t>(msg.cache_group_size));
  writer->WriteU8(msg.enable_caching ? 1 : 0);
  writer->WriteU8(msg.apply_only ? 1 : 0);
  writer->WriteU64(msg.updates.size());
  for (const MatrixDelta& d : msg.updates) EncodeMatrixDelta(d, writer);
}

Result<FactorDelta> DecodeFactorDelta(ByteReader* reader) {
  FactorDelta msg;
  DBTF_ASSIGN_OR_RETURN(msg.mode, DecodeMode(reader));
  DBTF_ASSIGN_OR_RETURN(msg.rows, reader->ReadI64());
  if (msg.rows < 0 || msg.rows > kMaxWireDim) {
    return Corrupt("factor rows out of range");
  }
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t mf_slot, reader->ReadU8());
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t ms_slot, reader->ReadU8());
  if (mf_slot > 2 || ms_slot > 2) return Corrupt("operand slot out of range");
  msg.mf_slot = mf_slot;
  msg.ms_slot = ms_slot;
  DBTF_ASSIGN_OR_RETURN(const std::uint32_t group, reader->ReadU32());
  msg.cache_group_size = static_cast<int>(group);
  DBTF_ASSIGN_OR_RETURN(msg.enable_caching, DecodeBool(reader));
  DBTF_ASSIGN_OR_RETURN(msg.apply_only, DecodeBool(reader));
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  if (count > 3) return Corrupt("operand update count out of range");
  for (std::uint64_t i = 0; i < count; ++i) {
    DBTF_ASSIGN_OR_RETURN(MatrixDelta d, DecodeMatrixDelta(reader));
    msg.updates.push_back(std::move(d));
  }
  return msg;
}

void EncodeRunUpdateColumn(const RunUpdateColumn& msg, ByteWriter* writer) {
  DBTF_DCHECK(static_cast<std::int64_t>(msg.row_masks.size()) == msg.rows,
              "RunUpdateColumn row masks do not match its row count");
  EncodeMode(msg.mode, writer);
  writer->WriteI64(msg.column);
  writer->WriteI64(msg.rows);
  std::uint64_t used = 0;
  for (const std::uint64_t mask : msg.row_masks) used |= mask;
  const int width = std::bit_width(used);
  writer->WriteU8(static_cast<std::uint8_t>(width));
  // Transpose the masks into bit planes: row r's bit b lands at position r
  // of plane b.
  const std::size_t rows = msg.row_masks.size();
  const std::size_t words = WordsForBits(rows);
  std::vector<BitWord> planes(static_cast<std::size_t>(width) * words, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    ForEachSetBit(BitSpan(&msg.row_masks[r], kBitsPerWord),
                  [&](std::size_t b) {
                    MutableBitSpan(planes.data() + b * words, rows)
                        .Set(r, true);
                  });
  }
  for (const BitWord w : planes) writer->WriteU64(w);
}

Result<RunUpdateColumn> DecodeRunUpdateColumn(ByteReader* reader) {
  RunUpdateColumn msg;
  DBTF_ASSIGN_OR_RETURN(msg.mode, DecodeMode(reader));
  DBTF_ASSIGN_OR_RETURN(msg.column, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.rows, reader->ReadI64());
  if (msg.column < 0 || msg.column >= kMaxRank || msg.rows < 0 ||
      msg.rows > kMaxWireDim) {
    return Corrupt("run-update-column header out of range");
  }
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t width, reader->ReadU8());
  if (width > kMaxRank) {
    return Corrupt("row-mask plane width exceeds the rank cap");
  }
  const std::size_t rows = static_cast<std::size_t>(msg.rows);
  const std::size_t words = WordsForBits(rows);
  if (width * words > reader->remaining() / 8) {
    return Corrupt("row-mask planes truncated");
  }
  msg.row_masks.assign(rows, 0);
  std::vector<BitWord> plane(words, 0);
  for (int b = 0; b < width; ++b) {
    for (std::size_t w = 0; w < words; ++w) {
      DBTF_ASSIGN_OR_RETURN(plane[w], reader->ReadU64());
    }
    const BitSpan bits(plane.data(), rows);
    if (!TailPaddingZero(bits)) {
      return Corrupt("row-mask plane padding bits set");
    }
    ForEachSetBit(bits, [&](std::size_t r) {
      msg.row_masks[r] |= std::uint64_t{1} << b;
    });
  }
  return msg;
}

void EncodeCollectErrorsRequest(const CollectErrorsRequest& msg,
                                ByteWriter* writer) {
  EncodeMode(msg.mode, writer);
  writer->WriteI64(msg.rows);
  writer->WriteU8(msg.want_stats ? 1 : 0);
}

Result<CollectErrorsRequest> DecodeCollectErrorsRequest(ByteReader* reader) {
  CollectErrorsRequest msg;
  DBTF_ASSIGN_OR_RETURN(msg.mode, DecodeMode(reader));
  DBTF_ASSIGN_OR_RETURN(msg.rows, reader->ReadI64());
  if (msg.rows < 0 || msg.rows > kMaxWireDim) {
    return Corrupt("collect-errors rows out of range");
  }
  DBTF_ASSIGN_OR_RETURN(msg.want_stats, DecodeBool(reader));
  return msg;
}

namespace {

/// Packed bit string: logical length prefix, then exactly WordsForBits(len)
/// storage words. The vector must be sized to the length.
void EncodePackedBits(const std::vector<BitWord>& words, std::int64_t bits,
                      ByteWriter* writer) {
  DBTF_DCHECK(words.size() == WordsForBits(static_cast<std::size_t>(bits)),
              "packed bit vector does not match its logical length");
  writer->WriteI64(bits);
  for (const BitWord w : words) writer->WriteU64(w);
}

struct PackedBits {
  std::vector<BitWord> words;
  std::int64_t bits = 0;
};

Result<PackedBits> DecodePackedBits(ByteReader* reader) {
  PackedBits packed;
  DBTF_ASSIGN_OR_RETURN(packed.bits, reader->ReadI64());
  if (packed.bits < 0 || packed.bits > kMaxWireDim) {
    return Corrupt("packed bit length out of range");
  }
  const std::uint64_t nwords =
      WordsForBits(static_cast<std::size_t>(packed.bits));
  if (nwords > reader->remaining() / 8) {
    return Corrupt("packed bit vector truncated");
  }
  packed.words.assign(static_cast<std::size_t>(nwords), 0);
  for (std::uint64_t w = 0; w < nwords; ++w) {
    DBTF_ASSIGN_OR_RETURN(packed.words[static_cast<std::size_t>(w)],
                          reader->ReadU64());
  }
  if (!TailPaddingZero(BitSpan(packed.words.data(),
                               static_cast<std::size_t>(packed.bits)))) {
    return Corrupt("packed bit padding set");
  }
  return packed;
}

void WriteZigZag(std::int64_t value, ByteWriter* writer) {
  writer->WriteVarint(ZigZagEncode(value));
}

Result<std::int64_t> ReadZigZag(ByteReader* reader) {
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t raw, reader->ReadVarint());
  return ZigZagDecode(raw);
}

}  // namespace


void EncodeCollectErrorsResponse(const CollectErrorsResponse& msg,
                                 ByteWriter* writer) {
  std::uint64_t block = 0;
  for (const std::int64_t d : msg.diffs) block += VarintBytes(ZigZagEncode(d));
  writer->WriteVarint(msg.diffs.size());
  writer->WriteVarint(block);
  for (const std::int64_t d : msg.diffs) WriteZigZag(d, writer);
  WriteZigZag(msg.base_error, writer);
  WriteZigZag(msg.cache_entries, writer);
  WriteZigZag(msg.cache_bytes, writer);
}

Result<CollectErrorsResponse> DecodeCollectErrorsResponse(ByteReader* reader) {
  CollectErrorsResponse msg;
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t rows, reader->ReadVarint());
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t block, reader->ReadVarint());
  // Every varint takes at least one byte: the block bounds the row count
  // and the buffer bounds the block, both before anything is allocated.
  if (block > reader->remaining()) return Corrupt("diff block truncated");
  if (rows > block) return Corrupt("diff block holds fewer diffs than rows");
  msg.diffs.assign(static_cast<std::size_t>(rows), 0);
  const std::size_t begin = reader->offset();
  for (std::int64_t& d : msg.diffs) {
    DBTF_ASSIGN_OR_RETURN(d, ReadZigZag(reader));
  }
  if (reader->offset() - begin != block) {
    return Corrupt("diff block does not hold exactly one diff per row");
  }
  DBTF_ASSIGN_OR_RETURN(msg.base_error, ReadZigZag(reader));
  DBTF_ASSIGN_OR_RETURN(msg.cache_entries, ReadZigZag(reader));
  DBTF_ASSIGN_OR_RETURN(msg.cache_bytes, ReadZigZag(reader));
  return msg;
}

void EncodeStorePartitionRequest(const StorePartitionRequest& msg,
                                 ByteWriter* writer) {
  EncodeMode(msg.mode, writer);
  writer->WriteI64(msg.index);
  writer->WriteI64(msg.shape.rows);
  writer->WriteI64(msg.shape.blocks);
  writer->WriteI64(msg.shape.within);
  writer->WriteI64(msg.partition.col_begin);
  writer->WriteI64(msg.partition.col_end);
  writer->WriteU64(msg.partition.blocks.size());
  for (const PartitionBlock& block : msg.partition.blocks) {
    writer->WriteI64(block.block_index);
    writer->WriteI64(block.within_begin);
    writer->WriteI64(block.within_end);
    writer->WriteI64(block.word_begin);
    writer->WriteU64(block.last_word_mask);
    writer->WriteU8(static_cast<std::uint8_t>(block.type));
    WriteBitMatrix(block.rows, writer);
    writer->WriteU64(block.row_nnz.size());
    for (const std::int32_t nnz : block.row_nnz) {
      writer->WriteU32(static_cast<std::uint32_t>(nnz));
    }
  }
}

Result<StorePartitionRequest> DecodeStorePartitionRequest(ByteReader* reader) {
  StorePartitionRequest msg;
  DBTF_ASSIGN_OR_RETURN(msg.mode, DecodeMode(reader));
  DBTF_ASSIGN_OR_RETURN(msg.index, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.shape.rows, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.shape.blocks, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.shape.within, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.partition.col_begin, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.partition.col_end, reader->ReadI64());
  if (msg.index < 0 || msg.shape.rows < 0 || msg.shape.blocks < 0 ||
      msg.shape.within < 0 || msg.shape.rows > kMaxWireDim ||
      msg.shape.blocks > kMaxWireDim || msg.shape.within > kMaxWireDim) {
    return Corrupt("partition header out of range");
  }
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t block_count, reader->ReadU64());
  // Each block carries at least its fixed-size fields; bound the count by
  // the remaining buffer before reserving anything.
  if (block_count * (5 * 8 + 1 + 2 * 8 + 8) > reader->remaining()) {
    return Corrupt("partition block count truncated");
  }
  msg.partition.blocks.reserve(static_cast<std::size_t>(block_count));
  for (std::uint64_t i = 0; i < block_count; ++i) {
    PartitionBlock block;
    DBTF_ASSIGN_OR_RETURN(block.block_index, reader->ReadI64());
    DBTF_ASSIGN_OR_RETURN(block.within_begin, reader->ReadI64());
    DBTF_ASSIGN_OR_RETURN(block.within_end, reader->ReadI64());
    DBTF_ASSIGN_OR_RETURN(block.word_begin, reader->ReadI64());
    DBTF_ASSIGN_OR_RETURN(block.last_word_mask, reader->ReadU64());
    DBTF_ASSIGN_OR_RETURN(const std::uint8_t type, reader->ReadU8());
    if (type > static_cast<std::uint8_t>(BlockType::kInterior)) {
      return Corrupt("block type out of range");
    }
    block.type = static_cast<BlockType>(type);
    DBTF_ASSIGN_OR_RETURN(block.rows, ReadBitMatrix(reader));
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t nnz_count, reader->ReadU64());
    if (nnz_count * 4 > reader->remaining()) {
      return Corrupt("row-nnz vector truncated");
    }
    block.row_nnz.resize(static_cast<std::size_t>(nnz_count), 0);
    for (std::uint64_t n = 0; n < nnz_count; ++n) {
      DBTF_ASSIGN_OR_RETURN(const std::uint32_t nnz, reader->ReadU32());
      block.row_nnz[static_cast<std::size_t>(n)] =
          static_cast<std::int32_t>(nnz);
    }
    msg.partition.blocks.push_back(std::move(block));
  }
  return msg;
}

void EncodeListPartitionsRequest(Mode mode, ByteWriter* writer) {
  EncodeMode(mode, writer);
}

Result<Mode> DecodeListPartitionsRequest(ByteReader* reader) {
  return DecodeMode(reader);
}

void EncodeListPartitionsResponse(const std::vector<std::int64_t>& indexes,
                                  ByteWriter* writer) {
  writer->WriteI64Vector(indexes);
}

Result<std::vector<std::int64_t>> DecodeListPartitionsResponse(
    ByteReader* reader) {
  return reader->ReadI64Vector();
}

void EncodeQueryRequest(const QueryRequest& msg, ByteWriter* writer) {
  writer->WriteU8(static_cast<std::uint8_t>(msg.kind));
  writer->WriteU64(msg.id);
  EncodeMode(msg.mode, writer);
  writer->WriteI64(msg.i);
  writer->WriteI64(msg.j);
  writer->WriteI64(msg.k);
  writer->WriteI64(msg.top_r);
  EncodePackedBits(msg.slice_bits, msg.slice_len, writer);
}

Result<QueryRequest> DecodeQueryRequest(ByteReader* reader) {
  QueryRequest msg;
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t kind, reader->ReadU8());
  if (kind < static_cast<std::uint8_t>(QueryKind::kMembership) ||
      kind > static_cast<std::uint8_t>(QueryKind::kTopConcepts)) {
    return Corrupt("query kind out of range");
  }
  msg.kind = static_cast<QueryKind>(kind);
  DBTF_ASSIGN_OR_RETURN(msg.id, reader->ReadU64());
  DBTF_ASSIGN_OR_RETURN(msg.mode, DecodeMode(reader));
  DBTF_ASSIGN_OR_RETURN(msg.i, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.j, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.k, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(msg.top_r, reader->ReadI64());
  // Coordinates are validated against the factor shapes by the worker; the
  // decoder only rejects values no tensor can reach. top_r is bounded by the
  // rank cap shared with MatrixDelta.
  if (msg.i < 0 || msg.j < 0 || msg.k < 0 || msg.i > kMaxWireDim ||
      msg.j > kMaxWireDim || msg.k > kMaxWireDim || msg.top_r < 0 ||
      msg.top_r > kMaxRank) {
    return Corrupt("query header out of range");
  }
  DBTF_ASSIGN_OR_RETURN(PackedBits slice, DecodePackedBits(reader));
  msg.slice_bits = std::move(slice.words);
  msg.slice_len = slice.bits;
  return msg;
}

void EncodeQueryResponse(const QueryResponse& msg, ByteWriter* writer) {
  writer->WriteU64(msg.id);
  writer->WriteU8(msg.member ? 1 : 0);
  writer->WriteU64(msg.explain_mask);
  EncodePackedBits(msg.fiber_bits, msg.fiber_len, writer);
  writer->WriteI64Vector(msg.concept_ids);
  writer->WriteI64Vector(msg.concept_scores);
  writer->WriteU64(msg.generations.size());
  for (const std::uint64_t g : msg.generations) writer->WriteU64(g);
}

Result<QueryResponse> DecodeQueryResponse(ByteReader* reader) {
  QueryResponse msg;
  DBTF_ASSIGN_OR_RETURN(msg.id, reader->ReadU64());
  DBTF_ASSIGN_OR_RETURN(msg.member, DecodeBool(reader));
  DBTF_ASSIGN_OR_RETURN(msg.explain_mask, reader->ReadU64());
  DBTF_ASSIGN_OR_RETURN(PackedBits fiber, DecodePackedBits(reader));
  msg.fiber_bits = std::move(fiber.words);
  msg.fiber_len = fiber.bits;
  DBTF_ASSIGN_OR_RETURN(msg.concept_ids, reader->ReadI64Vector());
  DBTF_ASSIGN_OR_RETURN(msg.concept_scores, reader->ReadI64Vector());
  if (msg.concept_ids.size() != msg.concept_scores.size()) {
    return Corrupt("ranked concept lists disagree on length");
  }
  for (const std::int64_t concept_id : msg.concept_ids) {
    if (concept_id < 0 || concept_id >= kMaxRank) {
      return Corrupt("ranked concept id out of range");
    }
  }
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t gen_count, reader->ReadU64());
  // The worker always answers with the three factor-slot generations; a
  // different count is a framing error, not a smaller cluster.
  if (gen_count != 3 || gen_count > reader->remaining() / 8) {
    return Corrupt("generation vector out of range");
  }
  msg.generations.assign(static_cast<std::size_t>(gen_count), 0);
  for (std::uint64_t g = 0; g < gen_count; ++g) {
    DBTF_ASSIGN_OR_RETURN(msg.generations[static_cast<std::size_t>(g)],
                          reader->ReadU64());
  }
  return msg;
}

void EncodeReply(const WireReply& reply, ByteWriter* writer) {
  writer->WriteU32(static_cast<std::uint32_t>(reply.status.code()));
  writer->WriteString(reply.status.message());
  writer->WriteDouble(reply.compute_seconds);
  writer->WriteU64(reply.body.size());
  if (!reply.body.empty()) {
    writer->WriteBytes(reply.body.data(), reply.body.size());
  }
}

Result<WireReply> DecodeReply(ByteReader* reader) {
  WireReply reply;
  DBTF_ASSIGN_OR_RETURN(const std::uint32_t code, reader->ReadU32());
  if (code > static_cast<std::uint32_t>(StatusCode::kUnavailable)) {
    return Corrupt("status code out of range");
  }
  DBTF_ASSIGN_OR_RETURN(std::string message, reader->ReadString());
  reply.status = Status(static_cast<StatusCode>(code), std::move(message));
  DBTF_ASSIGN_OR_RETURN(reply.compute_seconds, reader->ReadDouble());
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t body_bytes, reader->ReadU64());
  if (body_bytes > reader->remaining()) {
    return Corrupt("reply body truncated");
  }
  reply.body.resize(static_cast<std::size_t>(body_bytes));
  if (body_bytes > 0) {
    DBTF_RETURN_IF_ERROR(reader->ReadBytes(
        reply.body.data(), static_cast<std::size_t>(body_bytes)));
  }
  return reply;
}

std::vector<std::uint8_t> EncodeFrame(WireKind kind,
                                      const ByteWriter& payload) {
  ByteWriter frame;
  frame.WriteU32(kWireMagic);
  frame.WriteU8(kWireVersion);
  frame.WriteU8(static_cast<std::uint8_t>(kind));
  frame.WriteU64(payload.size());
  if (payload.size() > 0) {
    frame.WriteBytes(payload.bytes().data(), payload.size());
  }
  frame.WriteU32(payload.Crc());
  return frame.bytes();
}

std::vector<std::uint8_t> EncodeFactorDeltaFrame(const FactorDelta& msg) {
  ByteWriter payload;
  EncodeFactorDelta(msg, &payload);
  return EncodeFrame(WireKind::kFactorDelta, payload);
}

std::vector<std::uint8_t> EncodeRunColumnFrame(
    const RunUpdateColumn& run, const CollectErrorsRequest& req) {
  ByteWriter payload;
  EncodeRunUpdateColumn(run, &payload);
  EncodeCollectErrorsRequest(req, &payload);
  return EncodeFrame(WireKind::kRunColumn, payload);
}

Result<std::pair<WireKind, std::uint64_t>> ParseFrameHeader(
    const std::uint8_t* header, std::size_t size) {
  ByteReader reader(header, size);
  DBTF_ASSIGN_OR_RETURN(const std::uint32_t magic, reader.ReadU32());
  if (magic != kWireMagic) return Corrupt("bad frame magic");
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t version, reader.ReadU8());
  if (version != kWireVersion) return Corrupt("unsupported frame version");
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t kind, reader.ReadU8());
  if (!IsWireKind(kind)) return Corrupt("unknown frame kind");
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t payload_bytes, reader.ReadU64());
  if (payload_bytes > kMaxFramePayload) {
    return Corrupt("frame payload length out of range");
  }
  return std::make_pair(static_cast<WireKind>(kind), payload_bytes);
}

Status VerifyFramePayload(const std::vector<std::uint8_t>& payload,
                          std::uint32_t crc) {
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Corrupt("payload CRC mismatch");
  }
  return Status::OK();
}

Result<WireFrame> DecodeFrame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFrameHeaderBytes + kFrameCrcBytes) {
    return Corrupt("frame truncated");
  }
  DBTF_ASSIGN_OR_RETURN(const auto header,
                        ParseFrameHeader(bytes.data(), kFrameHeaderBytes));
  const std::uint64_t payload_bytes = header.second;
  if (bytes.size() != kFrameHeaderBytes + payload_bytes + kFrameCrcBytes) {
    return Corrupt("frame length does not match its header");
  }
  WireFrame frame;
  frame.kind = header.first;
  frame.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(
                                           kFrameHeaderBytes),
                       bytes.begin() + static_cast<std::ptrdiff_t>(
                                           kFrameHeaderBytes + payload_bytes));
  ByteReader crc_reader(bytes.data() + kFrameHeaderBytes + payload_bytes,
                        kFrameCrcBytes);
  DBTF_ASSIGN_OR_RETURN(const std::uint32_t crc, crc_reader.ReadU32());
  DBTF_RETURN_IF_ERROR(VerifyFramePayload(frame.payload, crc));
  return frame;
}

}  // namespace dbtf
