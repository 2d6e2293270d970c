// Fuzz target: the wire-frame decoder and every message payload codec
// behind it (src/dist/transport/wire.cc). The input is one candidate frame
// buffer as it would arrive from a peer socket — the decoder must reject
// truncation, corruption, and hostile length fields with a Status, never
// with UB (the ASan/UBSan CI leg enforces "never").
//
// On a successful decode the harness re-encodes the message and aborts
// unless the encoding is exactly the bytes the message was decoded from:
// every message has one encoding, so encode(decode(x)) == x, and
// encode -> decode -> encode is a fixed point (the byte-stability the
// transport documents). Decoded column replies and queries must also price
// themselves (WireBytes) at exactly those bytes.
//
// Every input is also read as a stream: the bytes go through the socket
// transport's FrameReader in pseudo-random chunks, with a pseudo-random
// buffer size, both drawn from a hash of the input (so a replay is exact).
// The reader must agree with DecodeFrame: each frame it yields is what
// DecodeFrame makes of exactly those bytes, it fails only where DecodeFrame
// rejects the rest of the stream as a frame, and it ends cleanly only at the
// end of the input.
//
// Build modes: a real libFuzzer binary under clang (-fsanitize=fuzzer);
// under GCC the same TestOneInput links against replay_main.cc and replays
// the committed corpus + crash regressions as a ctest case.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "dist/messages.h"
#include "dist/transport/socket.h"
#include "dist/transport/wire.h"

namespace {

void Require(bool ok) {
  if (!ok) std::abort();  // a failed round-trip is a findings-grade bug
}

/// Decodes one message from `reader` (positioned inside `bytes`) and, when
/// that succeeds, requires its encoding to be exactly the bytes consumed.
template <typename Encode, typename Decode>
auto DecodeCanonical(const std::vector<std::uint8_t>& bytes,
                     dbtf::ByteReader* reader, Encode encode, Decode decode) {
  const std::size_t begin = reader->offset();
  auto msg = decode(reader);
  if (msg.ok()) {
    dbtf::ByteWriter writer;
    encode(msg.value(), &writer);
    const auto consumed =
        bytes.begin() + static_cast<std::ptrdiff_t>(begin);
    Require(writer.size() == reader->offset() - begin);
    Require(std::equal(writer.bytes().begin(), writer.bytes().end(),
                       consumed));
  }
  return msg;
}

/// A message decoded from the start of `reader` prices itself
/// (WireBytes) at exactly the bytes it was decoded from.
template <typename Message>
void RequireExactPrice(const dbtf::Result<Message>& msg,
                       const dbtf::ByteReader& reader) {
  if (msg.ok()) {
    Require(msg.value().WireBytes() ==
            static_cast<std::int64_t>(reader.offset()));
  }
}

void DecodePayload(dbtf::WireKind kind,
                   const std::vector<std::uint8_t>& payload) {
  dbtf::ByteReader reader(payload);
  switch (kind) {
    case dbtf::WireKind::kFactorDelta:
      (void)DecodeCanonical(payload, &reader, dbtf::EncodeFactorDelta,
                            dbtf::DecodeFactorDelta);
      break;
    case dbtf::WireKind::kRunColumn: {
      // The column exchange: the task, then what to send back.
      auto run = DecodeCanonical(payload, &reader, dbtf::EncodeRunUpdateColumn,
                                 dbtf::DecodeRunUpdateColumn);
      if (!run.ok()) break;
      (void)DecodeCanonical(payload, &reader, dbtf::EncodeCollectErrorsRequest,
                            dbtf::DecodeCollectErrorsRequest);
      break;
    }
    case dbtf::WireKind::kStorePartition:
      (void)DecodeCanonical(payload, &reader, dbtf::EncodeStorePartitionRequest,
                            dbtf::DecodeStorePartitionRequest);
      break;
    case dbtf::WireKind::kListPartitions:
      (void)DecodeCanonical(payload, &reader, dbtf::EncodeListPartitionsRequest,
                            dbtf::DecodeListPartitionsRequest);
      break;
    case dbtf::WireKind::kShutdown:
      break;  // empty payload by contract; stray bytes must not crash
    case dbtf::WireKind::kQuery: {
      auto msg = DecodeCanonical(payload, &reader, dbtf::EncodeQueryRequest,
                                 dbtf::DecodeQueryRequest);
      RequireExactPrice(msg, reader);
      break;
    }
    case dbtf::WireKind::kReply: {
      auto reply = DecodeCanonical(payload, &reader, dbtf::EncodeReply,
                                   dbtf::DecodeReply);
      if (reply.ok()) {
        // A reply body, when present, is an encoded CollectErrorsResponse,
        // ListPartitionsResponse, or QueryResponse; every decoder must
        // survive every body.
        const std::vector<std::uint8_t>& body = reply.value().body;
        dbtf::ByteReader body1(body);
        auto response = DecodeCanonical(body, &body1,
                                        dbtf::EncodeCollectErrorsResponse,
                                        dbtf::DecodeCollectErrorsResponse);
        RequireExactPrice(response, body1);
        dbtf::ByteReader body2(body);
        (void)DecodeCanonical(body, &body2,
                              dbtf::EncodeListPartitionsResponse,
                              dbtf::DecodeListPartitionsResponse);
        dbtf::ByteReader body3(body);
        auto answer = DecodeCanonical(body, &body3, dbtf::EncodeQueryResponse,
                                      dbtf::DecodeQueryResponse);
        RequireExactPrice(answer, body3);
      }
      break;
    }
  }
}

/// xorshift64 over a FNV-1a hash of the input: the stream mode's chunk and
/// buffer sizes.
class InputRng {
 public:
  explicit InputRng(const std::vector<std::uint8_t>& bytes) {
    for (const std::uint8_t b : bytes) {
      state_ = (state_ ^ b) * 0x100000001b3ULL;
    }
    state_ |= 1;
  }
  std::uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

void ReadAsStream(const std::vector<std::uint8_t>& bytes) {
  InputRng rng(bytes);
  const std::size_t buffer_bytes = std::size_t{16} << (rng.Next() % 13);
  std::size_t offset = 0;
  dbtf::FrameReader reader(
      [&bytes, &offset, &rng](std::uint8_t* data, std::size_t size)
          -> dbtf::Result<std::size_t> {
        std::size_t chunk = bytes.size() - offset;
        if (rng.Next() % 4 != 0) {
          chunk = std::min<std::size_t>(chunk, 1 + rng.Next() % 64);
        }
        chunk = std::min(chunk, size);
        if (chunk > 0) std::memcpy(data, bytes.data() + offset, chunk);
        offset += chunk;
        return chunk;
      },
      buffer_bytes);
  std::size_t consumed = 0;  // bytes of the frames read so far
  for (;;) {
    auto read = reader.Next();
    if (!read.ok()) {
      const std::vector<std::uint8_t> rest(
          bytes.begin() + static_cast<std::ptrdiff_t>(consumed), bytes.end());
      Require(!dbtf::DecodeFrame(rest).ok());
      return;
    }
    if (read.value().eof) {
      Require(consumed == bytes.size());
      return;
    }
    const dbtf::WireFrame& frame = read.value().frame;
    const std::size_t size =
        dbtf::kFrameHeaderBytes + frame.payload.size() + dbtf::kFrameCrcBytes;
    Require(size <= bytes.size() - consumed);
    const auto begin =
        bytes.begin() + static_cast<std::ptrdiff_t>(consumed);
    auto direct = dbtf::DecodeFrame(std::vector<std::uint8_t>(
        begin, begin + static_cast<std::ptrdiff_t>(size)));
    Require(direct.ok());
    Require(direct.value().kind == frame.kind);
    Require(direct.value().payload == frame.payload);
    consumed += size;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);

  // Header-only parse first (the socket loop's read path).
  auto header = dbtf::ParseFrameHeader(bytes.data(), bytes.size());
  (void)header;

  auto frame = dbtf::DecodeFrame(bytes);
  if (frame.ok()) {
    DecodePayload(frame.value().kind, frame.value().payload);
  }
  ReadAsStream(bytes);
  return 0;
}
