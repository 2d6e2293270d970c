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
// Build modes: a real libFuzzer binary under clang (-fsanitize=fuzzer);
// under GCC the same TestOneInput links against replay_main.cc and replays
// the committed corpus + crash regressions as a ctest case.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "dist/messages.h"
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
  return 0;
}
