#include "dist/transport/wire.h"

#include <bit>
#include <string>
#include <utility>

#include "common/bitspan.h"
#include "common/fields.h"
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

// --- The special encodings ----------------------------------------------------

/// A delta's payload: the full matrix, or the changed columns: u64 count (at
/// most `cols`), then per column its i64 index and `rows` packed bits.
struct DeltaPayload {
  static constexpr std::size_t kMembers = 3;
  const bool& full;
  BitMatrix& dense;
  std::vector<std::int64_t>& columns;
  std::vector<std::vector<BitWord>>& bits;
  const std::int64_t& rows;
  const std::int64_t& cols;
  void Encode(ByteWriter* w) const {
    if (full) return CodecFor(dense).Encode(w);
    w->WriteU64(columns.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
      w->WriteI64(columns[i]);
      WritePackedWords(bits[i], static_cast<std::size_t>(rows), w);
    }
  }
  Status Decode(ByteReader* r) {
    if (full) return CodecFor(dense).Decode(r);
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t count, r->ReadU64());
    // rows <= kMaxWireDim and count <= cols <= kMaxRank: no product wraps.
    const std::uint64_t per_column =
        8 + WordsForBits(static_cast<std::size_t>(rows)) * 8;
    if (count > static_cast<std::uint64_t>(cols) ||
        count * per_column > r->remaining()) {
      return Corrupt("column-delta count truncated");
    }
    columns.assign(static_cast<std::size_t>(count), 0);
    bits.assign(static_cast<std::size_t>(count), {});
    for (std::size_t i = 0; i < columns.size(); ++i) {
      DBTF_RETURN_IF_ERROR(InRange(columns[i], 0, cols - 1).Decode(r));
      DBTF_RETURN_IF_ERROR(
          ReadPackedWords(r, static_cast<std::size_t>(rows), &bits[i]));
    }
    return Status::OK();
  }
};

/// Row masks as bit planes: u8 width, then `width` planes of `rows` packed
/// bits, plane b holding bit b of every mask. The width is the bit width of
/// the OR of all masks, at most kMaxRank, so the top plane is never empty.
struct BitPlanes {
  static constexpr std::size_t kMembers = 1;
  std::vector<std::uint64_t>& masks;
  const std::int64_t& rows;
  void Encode(ByteWriter* w) const {
    DBTF_DCHECK(static_cast<std::int64_t>(masks.size()) == rows,
                "RunUpdateColumn row masks do not match its row count");
    std::uint64_t used = 0;
    for (const std::uint64_t mask : masks) used |= mask;
    const int width = std::bit_width(used);
    w->WriteU8(static_cast<std::uint8_t>(width));
    // Transpose the masks into bit planes: row r's bit b lands at position
    // r of plane b.
    const std::size_t n = masks.size();
    const std::size_t words = WordsForBits(n);
    std::vector<BitWord> planes(static_cast<std::size_t>(width) * words, 0);
    for (std::size_t r = 0; r < n; ++r) {
      ForEachSetBit(BitSpan(&masks[r], kBitsPerWord), [&](std::size_t b) {
        MutableBitSpan(planes.data() + b * words, n).Set(r, true);
      });
    }
    for (const BitWord word : planes) w->WriteU64(word);
  }
  Status Decode(ByteReader* r) {
    DBTF_ASSIGN_OR_RETURN(const std::uint8_t width, r->ReadU8());
    if (width > kMaxRank) {
      return Corrupt("row-mask plane width exceeds the rank cap");
    }
    const std::size_t n = static_cast<std::size_t>(rows);
    if (width * WordsForBits(n) > r->remaining() / 8) {
      return Corrupt("row-mask planes truncated");
    }
    masks.assign(n, 0);
    std::vector<BitWord> plane;
    for (int b = 0; b < width; ++b) {
      DBTF_RETURN_IF_ERROR(ReadPackedWords(r, n, &plane));
      bool empty = true;
      ForEachSetBit(BitSpan(plane.data(), n), [&](std::size_t row) {
        masks[row] |= std::uint64_t{1} << b;
        empty = false;
      });
      if (empty && b == width - 1) return Corrupt("top row-mask plane empty");
    }
    return Status::OK();
  }
};

/// The diffs as one block: varint rows, varint block bytes, then `rows`
/// zigzag varints. The block length bounds the row count before anything
/// is allocated and rejects a block holding more or fewer diffs than rows.
struct DiffBlock {
  static constexpr std::size_t kMembers = 1;
  std::vector<std::int64_t>& diffs;
  std::uint64_t BlockBytes() const {
    std::uint64_t block = 0;
    for (const std::int64_t d : diffs) block += VarintBytes(ZigZagEncode(d));
    return block;
  }
  void Encode(ByteWriter* w) const {
    w->WriteVarint(diffs.size());
    w->WriteVarint(BlockBytes());
    for (const std::int64_t d : diffs) w->WriteVarint(ZigZagEncode(d));
  }
  Status Decode(ByteReader* r) {
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t n, r->ReadVarint());
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t block, r->ReadVarint());
    // Every varint takes at least one byte: the block bounds the row count
    // and the buffer bounds the block.
    if (block > r->remaining()) return Corrupt("diff block truncated");
    if (n > block) return Corrupt("diff block holds fewer diffs than rows");
    diffs.assign(static_cast<std::size_t>(n), 0);
    const std::size_t begin = r->offset();
    for (std::int64_t& d : diffs) DBTF_RETURN_IF_ERROR(ZigZag{d}.Decode(r));
    if (r->offset() - begin != block) {
      return Corrupt("diff block does not hold exactly one diff per row");
    }
    return Status::OK();
  }
  std::int64_t Bytes() const {
    const std::uint64_t block = BlockBytes();
    return VarintBytes(diffs.size()) + VarintBytes(block) +
           static_cast<std::int64_t>(block);
  }
};

/// A handler's Status: u32 code (at most kUnavailable), then its message.
struct ReplyStatus {
  static constexpr std::size_t kMembers = 1;
  Status& status;
  void Encode(ByteWriter* w) const {
    w->WriteU32(static_cast<std::uint32_t>(status.code()));
    w->WriteString(status.message());
  }
  Status Decode(ByteReader* r) {
    DBTF_ASSIGN_OR_RETURN(const std::uint32_t code, r->ReadU32());
    if (code > static_cast<std::uint32_t>(StatusCode::kUnavailable)) {
      return Corrupt("status code out of range");
    }
    DBTF_ASSIGN_OR_RETURN(std::string message, r->ReadString());
    status = Status(static_cast<StatusCode>(code), std::move(message));
    return Status::OK();
  }
};

}  // namespace

// --- The field lists: every message's bytes, in order -------------------------
//
// A value no encoder writes is rejected as the list is read (a bounded
// field) or right after it (one Check per message): one encoding each.

/// One byte, 1..3.
static Bounded<std::uint8_t, Mode> CodecFor(Mode& mode) {
  return ByteIn(mode, 1, 3);
}

static auto Fields(MatrixDelta& m) {
  return FieldList(
      ByteIn(m.slot, 0, 2), m.generation, m.base_generation, m.full,
      InRange(m.rows, 0, kMaxWireDim), InRange(m.cols, 0, kMaxRank),
      DeltaPayload{m.full, m.dense, m.columns, m.column_bits, m.rows, m.cols},
      Check{[&m] {
              return !m.full ||
                     (m.dense.rows() == m.rows && m.dense.cols() == m.cols);
            },
            "full payload does not match the delta's shape"});
}

static auto Fields(FactorDelta& m) {
  return FieldList(m.mode, InRange(m.rows, 0, kMaxWireDim),
                   ByteIn(m.mf_slot, 0, 2), ByteIn(m.ms_slot, 0, 2),
                   m.cache_group_size, m.enable_caching, m.apply_only,
                   ListOf<MatrixDelta>{m.updates, 3, 0});
}

static auto Fields(RunUpdateColumn& m) {
  return FieldList(m.mode, InRange(m.column, 0, kMaxRank - 1),
                   InRange(m.rows, 0, kMaxWireDim),
                   BitPlanes{m.row_masks, m.rows});
}

static auto Fields(CollectErrorsRequest& m) {
  return FieldList(m.mode, InRange(m.rows, 0, kMaxWireDim), m.want_stats);
}

static auto Fields(CollectErrorsResponse& m) {
  return FieldList(DiffBlock{m.diffs}, ZigZag{m.base_error},
                   ZigZag{m.cache_entries}, ZigZag{m.cache_bytes});
}

static auto Fields(UnfoldShape& m) {
  return FieldList(InRange(m.rows, 0, kMaxWireDim),
                   InRange(m.blocks, 0, kMaxWireDim),
                   InRange(m.within, 0, kMaxWireDim));
}

static auto Fields(PartitionBlock& m) {
  return FieldList(m.block_index, m.within_begin, m.within_end, m.word_begin,
                   m.last_word_mask,
                   ByteIn(m.type, 0, static_cast<int>(BlockType::kInterior)),
                   m.rows, m.row_nnz);
}

/// A block is at least its fixed fields, an empty matrix and an empty
/// non-zero list.
static auto Fields(Partition& m) {
  return FieldList(m.col_begin, m.col_end,
                   ListOf<PartitionBlock>{m.blocks, UINT64_MAX,
                                          5 * 8 + 1 + 2 * 8 + 8});
}

static auto Fields(StorePartitionRequest& m) {
  return FieldList(m.mode, InRange(m.index, 0, INT64_MAX), m.shape,
                   m.partition);
}

/// Coordinates are validated against the factor shapes by the worker; the
/// decoder only rejects values no tensor can reach.
static auto Fields(QueryRequest& m) {
  return FieldList(ByteIn(m.kind, 1, 3), m.id, m.mode,
                   InRange(m.i, 0, kMaxWireDim), InRange(m.j, 0, kMaxWireDim),
                   InRange(m.k, 0, kMaxWireDim), InRange(m.top_r, 0, kMaxRank),
                   PackedBits{m.slice_bits, m.slice_len, kMaxWireDim});
}

/// The worker always answers with the three factor-slot generations: a
/// different count is a framing error, not a smaller cluster.
static auto Fields(QueryResponse& m) {
  return FieldList(
      m.id, m.member, m.explain_mask,
      PackedBits{m.fiber_bits, m.fiber_len, kMaxWireDim}, m.concept_ids,
      m.concept_scores, m.generations,
      Check{[&m] {
              for (const std::int64_t id : m.concept_ids) {
                if (id < 0 || id >= kMaxRank) return false;
              }
              return m.concept_ids.size() == m.concept_scores.size() &&
                     m.generations.size() == 3;
            },
            "ranked concepts or generations out of range"});
}

static auto Fields(WireReply& m) {
  return FieldList(ReplyStatus{m.status}, m.compute_seconds, m.body);
}

std::int64_t CollectErrorsResponse::WireBytes() const {
  return FieldBytes(*this);
}
std::int64_t QueryRequest::WireBytes() const { return FieldBytes(*this); }
std::int64_t QueryResponse::WireBytes() const { return FieldBytes(*this); }

// --- Message payload codecs ---------------------------------------------------

void EncodeFactorDelta(const FactorDelta& msg, ByteWriter* writer) {
  EncodeFields(msg, writer);
}
Result<FactorDelta> DecodeFactorDelta(ByteReader* reader) {
  return DecodeFields<FactorDelta>(reader);
}

void EncodeRunUpdateColumn(const RunUpdateColumn& msg, ByteWriter* writer) {
  EncodeFields(msg, writer);
}
Result<RunUpdateColumn> DecodeRunUpdateColumn(ByteReader* reader) {
  return DecodeFields<RunUpdateColumn>(reader);
}

void EncodeCollectErrorsRequest(const CollectErrorsRequest& msg,
                                ByteWriter* writer) {
  EncodeFields(msg, writer);
}
Result<CollectErrorsRequest> DecodeCollectErrorsRequest(ByteReader* reader) {
  return DecodeFields<CollectErrorsRequest>(reader);
}

void EncodeCollectErrorsResponse(const CollectErrorsResponse& msg,
                                 ByteWriter* writer) {
  EncodeFields(msg, writer);
}
Result<CollectErrorsResponse> DecodeCollectErrorsResponse(ByteReader* reader) {
  return DecodeFields<CollectErrorsResponse>(reader);
}

void EncodeStorePartitionRequest(const StorePartitionRequest& msg,
                                 ByteWriter* writer) {
  EncodeFields(msg, writer);
}
Result<StorePartitionRequest> DecodeStorePartitionRequest(ByteReader* reader) {
  return DecodeFields<StorePartitionRequest>(reader);
}

void EncodeListPartitionsRequest(Mode mode, ByteWriter* writer) {
  EncodeValue(mode, writer);
}
Result<Mode> DecodeListPartitionsRequest(ByteReader* reader) {
  return DecodeValue<Mode>(reader);
}

void EncodeListPartitionsResponse(const std::vector<std::int64_t>& indexes,
                                  ByteWriter* writer) {
  EncodeValue(indexes, writer);
}
Result<std::vector<std::int64_t>> DecodeListPartitionsResponse(
    ByteReader* reader) {
  return DecodeValue<std::vector<std::int64_t>>(reader);
}

void EncodeQueryRequest(const QueryRequest& msg, ByteWriter* writer) {
  EncodeFields(msg, writer);
}
Result<QueryRequest> DecodeQueryRequest(ByteReader* reader) {
  return DecodeFields<QueryRequest>(reader);
}

void EncodeQueryResponse(const QueryResponse& msg, ByteWriter* writer) {
  EncodeFields(msg, writer);
}
Result<QueryResponse> DecodeQueryResponse(ByteReader* reader) {
  return DecodeFields<QueryResponse>(reader);
}

void EncodeReply(const WireReply& reply, ByteWriter* writer) {
  EncodeFields(reply, writer);
}
Result<WireReply> DecodeReply(ByteReader* reader) {
  return DecodeFields<WireReply>(reader);
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
