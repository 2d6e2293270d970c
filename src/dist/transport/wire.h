#ifndef DBTF_DIST_TRANSPORT_WIRE_H_
#define DBTF_DIST_TRANSPORT_WIRE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "dist/messages.h"
#include "tensor/unfold.h"

namespace dbtf {

// Wire codecs of the socket transport: every typed message of
// dist/messages.h has a deterministic little-endian encoding, the walk of
// its one field list in wire.cc (common/fields.h), so encode -> decode ->
// encode is byte-stable and a snapshot of the wire traffic parses on any
// host. Each message has exactly one encoding: the decoders reject every
// byte string the encoder cannot produce. Decoding is
// defensive throughout — every count and shape is validated against the
// remaining buffer *before* any allocation, truncation and corruption fail
// with kIoError (never UB) — because the bytes arrive from another process.

/// Message discriminator carried in every frame. Value 3 (the separate
/// collect request of wire version 2) is retired and rejected.
enum class WireKind : std::uint8_t {
  kFactorDelta = 1,
  /// One column exchange: EncodeRunUpdateColumn then
  /// EncodeCollectErrorsRequest; the reply body is the encoded
  /// CollectErrorsResponse.
  kRunColumn = 2,
  kStorePartition = 4,
  kListPartitions = 5,
  kShutdown = 6,  ///< empty payload; the worker replies, then exits
  kReply = 7,
  kQuery = 8,  ///< serving-layer query; the answer rides the reply body
};

// --- Message payload codecs -------------------------------------------------
//
// Each pair walks the message's field list in wire.cc, which is its layout.

void EncodeFactorDelta(const FactorDelta& msg, ByteWriter* writer);
Result<FactorDelta> DecodeFactorDelta(ByteReader* reader);

void EncodeRunUpdateColumn(const RunUpdateColumn& msg, ByteWriter* writer);
Result<RunUpdateColumn> DecodeRunUpdateColumn(ByteReader* reader);

void EncodeCollectErrorsRequest(const CollectErrorsRequest& msg,
                                ByteWriter* writer);
Result<CollectErrorsRequest> DecodeCollectErrorsRequest(ByteReader* reader);

void EncodeCollectErrorsResponse(const CollectErrorsResponse& msg,
                                 ByteWriter* writer);
Result<CollectErrorsResponse> DecodeCollectErrorsResponse(ByteReader* reader);

void EncodeStorePartitionRequest(const StorePartitionRequest& msg,
                                 ByteWriter* writer);
Result<StorePartitionRequest> DecodeStorePartitionRequest(ByteReader* reader);

/// One mode byte.
void EncodeListPartitionsRequest(Mode mode, ByteWriter* writer);
Result<Mode> DecodeListPartitionsRequest(ByteReader* reader);

/// u64 count | the i64 indexes.
void EncodeListPartitionsResponse(const std::vector<std::int64_t>& indexes,
                                  ByteWriter* writer);
Result<std::vector<std::int64_t>> DecodeListPartitionsResponse(
    ByteReader* reader);

void EncodeQueryRequest(const QueryRequest& msg, ByteWriter* writer);
Result<QueryRequest> DecodeQueryRequest(ByteReader* reader);

void EncodeQueryResponse(const QueryResponse& msg, ByteWriter* writer);
Result<QueryResponse> DecodeQueryResponse(ByteReader* reader);

/// Reply envelope of every worker response: the handler's Status, the
/// worker-side CPU seconds the handler consumed (so the driver charges the
/// same virtual compute either way), and an optional body (e.g. the encoded
/// CollectErrorsResponse of a kRunColumn exchange).
struct WireReply {
  Status status;
  double compute_seconds = 0.0;
  std::vector<std::uint8_t> body;
};

void EncodeReply(const WireReply& reply, ByteWriter* writer);
Result<WireReply> DecodeReply(ByteReader* reader);

// --- Framing ----------------------------------------------------------------
//
// Frame layout: u32 magic "DBTF" | u8 version | u8 kind | u64 payload bytes
// | payload | u32 CRC-32 of the payload. The CRC rejects corruption; the
// length-prefixed header lets the socket loop read exactly one frame without
// peeking into the payload.

constexpr std::uint32_t kWireMagic = 0x46544244;  // "DBTF", little-endian
// Version 2: FactorDelta gained apply_only; kQuery frames added.
// Version 3: one kRunColumn exchange per column replaces the separate
// dispatch and collect frames; row masks travel as bit planes and the
// collect reply as varint error differences.
constexpr std::uint8_t kWireVersion = 3;
/// magic + version + kind + payload length.
constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 1 + 8;
constexpr std::size_t kFrameCrcBytes = 4;

/// One whole frame as a byte buffer (header + payload + CRC).
std::vector<std::uint8_t> EncodeFrame(WireKind kind,
                                      const ByteWriter& payload);

/// The request frames of the two fan-outs. A fan-out encodes its frame
/// once and writes the same bytes to every machine (and to a retry).
std::vector<std::uint8_t> EncodeFactorDeltaFrame(const FactorDelta& msg);
std::vector<std::uint8_t> EncodeRunColumnFrame(const RunUpdateColumn& run,
                                               const CollectErrorsRequest& req);

/// Parses a frame header, validating magic, version, kind, and a sanity
/// bound on the payload length. Returns (kind, payload bytes).
Result<std::pair<WireKind, std::uint64_t>> ParseFrameHeader(
    const std::uint8_t* header, std::size_t size);

/// Verifies the payload against the frame's CRC-32 trailer.
Status VerifyFramePayload(const std::vector<std::uint8_t>& payload,
                          std::uint32_t crc);

/// Decodes one exactly-framed buffer (the inverse of EncodeFrame): header,
/// payload, and CRC must all be present and consistent.
struct WireFrame {
  WireKind kind = WireKind::kReply;
  std::vector<std::uint8_t> payload;
};
Result<WireFrame> DecodeFrame(const std::vector<std::uint8_t>& bytes);

}  // namespace dbtf

#endif  // DBTF_DIST_TRANSPORT_WIRE_H_
