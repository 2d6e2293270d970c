// Fuzz target: the wire-frame decoder and every message payload codec
// behind it (src/dist/transport/wire.cc). The input is one candidate frame
// buffer as it would arrive from a peer socket — the decoder must reject
// truncation, corruption, and hostile length fields with a Status, never
// with UB (the ASan/UBSan CI leg enforces "never").
//
// On a successful decode the harness re-encodes the message and decodes the
// re-encoding, aborting on failure: encode -> decode -> encode must be a
// fixed point (the byte-stability the transport documents).
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

template <typename Message, typename Encode, typename Decode>
void Roundtrip(const Message& msg, Encode encode, Decode decode) {
  dbtf::ByteWriter writer;
  encode(msg, &writer);
  dbtf::ByteReader reader(writer.bytes());
  auto again = decode(&reader);
  Require(again.ok());
  Require(reader.ExpectEnd().ok());
}

void DecodePayload(dbtf::WireKind kind,
                   const std::vector<std::uint8_t>& payload) {
  dbtf::ByteReader reader(payload);
  switch (kind) {
    case dbtf::WireKind::kFactorDelta: {
      auto msg = dbtf::DecodeFactorDelta(&reader);
      if (msg.ok()) {
        Roundtrip(msg.value(), dbtf::EncodeFactorDelta,
                  dbtf::DecodeFactorDelta);
      }
      break;
    }
    case dbtf::WireKind::kRunColumn: {
      // The column exchange: the task, then what to send back.
      auto run = dbtf::DecodeRunUpdateColumn(&reader);
      if (!run.ok()) break;
      Roundtrip(run.value(), dbtf::EncodeRunUpdateColumn,
                dbtf::DecodeRunUpdateColumn);
      auto req = dbtf::DecodeCollectErrorsRequest(&reader);
      if (req.ok()) {
        Roundtrip(req.value(), dbtf::EncodeCollectErrorsRequest,
                  dbtf::DecodeCollectErrorsRequest);
      }
      break;
    }
    case dbtf::WireKind::kStorePartition: {
      auto msg = dbtf::DecodeStorePartitionRequest(&reader);
      if (msg.ok()) {
        Roundtrip(msg.value(), dbtf::EncodeStorePartitionRequest,
                  dbtf::DecodeStorePartitionRequest);
      }
      break;
    }
    case dbtf::WireKind::kListPartitions: {
      auto mode = dbtf::DecodeListPartitionsRequest(&reader);
      (void)mode;
      break;
    }
    case dbtf::WireKind::kShutdown:
      break;  // empty payload by contract; stray bytes must not crash
    case dbtf::WireKind::kQuery: {
      auto msg = dbtf::DecodeQueryRequest(&reader);
      if (msg.ok()) {
        Roundtrip(msg.value(), dbtf::EncodeQueryRequest,
                  dbtf::DecodeQueryRequest);
      }
      break;
    }
    case dbtf::WireKind::kReply: {
      auto reply = dbtf::DecodeReply(&reader);
      if (reply.ok()) {
        // A reply body, when present, is an encoded CollectErrorsResponse,
        // ListPartitionsResponse, or QueryResponse; every decoder must
        // survive every body. A decoded column reply must also price itself
        // at exactly the bytes it was decoded from.
        dbtf::ByteReader body(reply.value().body);
        auto response = dbtf::DecodeCollectErrorsResponse(&body);
        if (response.ok()) {
          Require(response.value().WireBytes() ==
                  static_cast<std::int64_t>(body.offset()));
          Roundtrip(response.value(), dbtf::EncodeCollectErrorsResponse,
                    dbtf::DecodeCollectErrorsResponse);
        }
        dbtf::ByteReader body2(reply.value().body);
        auto indexes = dbtf::DecodeListPartitionsResponse(&body2);
        (void)indexes;
        dbtf::ByteReader body3(reply.value().body);
        auto answer = dbtf::DecodeQueryResponse(&body3);
        if (answer.ok()) {
          Roundtrip(answer.value(), dbtf::EncodeQueryResponse,
                    dbtf::DecodeQueryResponse);
        }
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
