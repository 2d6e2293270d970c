// Fuzz target: the checkpoint byte codecs (src/ckpt/format.cc) — the
// manifest parser and the four state-blob parsers — over bytes as they
// would be read back from a (possibly corrupt or torn) snapshot directory.
// Each parser guards with a magic/CRC, so most inputs bounce off cheaply;
// what matters is that hostile counts, sizes, and truncations always fail
// with a Status and never with an allocation blow-up or OOB access.
//
// Whenever a parser accepts an input, the harness re-serializes what it
// parsed and aborts unless that gives back exactly the input: the manifest
// and every blob have one encoding, so serialize(parse(x)) == x.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/format.h"
#include "common/status.h"

namespace {

void Require(bool ok) {
  if (!ok) std::abort();  // a second encoding is a findings-grade bug
}

/// Parses `bytes` as one state blob into a fresh state and, when that
/// succeeds, requires the blob's serializer to give the bytes back.
template <typename Parse, typename Serialize>
void RequireCanonicalBlob(const std::vector<std::uint8_t>& bytes, Parse parse,
                          Serialize serialize) {
  dbtf::CheckpointState state;
  if (parse(bytes, &state).ok()) Require(serialize(state) == bytes);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace fmt = dbtf::ckpt_format;
  const std::vector<std::uint8_t> bytes(data, data + size);

  auto manifest = fmt::ParseManifest(bytes);
  if (manifest.ok()) Require(fmt::SerializeManifest(manifest.value()) == bytes);

  RequireCanonicalBlob(bytes, fmt::ParseRun, fmt::SerializeRun);
  RequireCanonicalBlob(bytes, fmt::ParseFactors, fmt::SerializeFactors);
  RequireCanonicalBlob(bytes, fmt::ParseBcast, fmt::SerializeBcast);
  RequireCanonicalBlob(bytes, fmt::ParseDist, fmt::SerializeDist);
  return 0;
}
