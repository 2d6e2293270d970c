#ifndef DBTF_CKPT_FORMAT_H_
#define DBTF_CKPT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/fields.h"
#include "common/status.h"

namespace dbtf {
namespace ckpt_format {

/// Pure byte-level codecs of the checkpoint format: the manifest and the
/// four state blobs a snapshot directory holds. Nothing here touches the
/// filesystem — CheckpointStore (checkpoint.cc) composes these with the
/// POSIX plumbing (tmp + fsync + rename), and the fuzz harness
/// (fuzz/fuzz_ckpt_manifest.cc) and format tests drive the parsers directly
/// with adversarial bytes. Every parser is defensive: counts and sizes are
/// validated against the remaining buffer before any allocation, and each
/// blob parse must consume its buffer exactly.

// "DBTK" little-endian, followed by the format version. Bump the version on
// any layout change; readers reject unknown versions (and fall back).
inline constexpr std::uint32_t kManifestMagic = 0x4B544244U;
// Version 2: the dist blob's comm ledger gained the query lane
// (query_bytes, query_events).
// Version 3: collect_bytes counts the compact column replies (exact encoded
// size of the varint error differences), so older ledgers do not compose.
inline constexpr std::uint32_t kFormatVersion = 3;

inline constexpr const char* kManifestName = "MANIFEST";
inline constexpr const char* kRunBlob = "run.bin";
inline constexpr const char* kFactorsBlob = "factors.bin";
inline constexpr const char* kBcastBlob = "bcast.bin";
inline constexpr const char* kDistBlob = "dist.bin";

/// One blob listed by a manifest: its file name plus the size and CRC-32 the
/// file's content must match for the snapshot to be valid.
struct ManifestEntry {
  std::string name;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// Largest name a manifest entry may carry. Blob names are short constants
/// (run.bin & co.); anything bigger is corruption, not data.
inline constexpr std::size_t kMaxEntryNameBytes = 256;

inline auto Fields(ManifestEntry& m) {
  return FieldList(m.name, m.size, m.crc, Check{[&m] {
    return !m.name.empty() && m.name.size() <= kMaxEntryNameBytes;
  }, "manifest entry name out of range"});
}

/// Parsed manifest body. The sequence is informational (the snapshot
/// directory name is authoritative).
struct Manifest {
  std::int64_t sequence = 0;
  std::vector<ManifestEntry> entries;
};

/// Each entry is at least a length-prefixed name (8) + size (8) + crc (4),
/// which bounds the entry count by the remaining body (a division: a
/// hostile count times 20 wraps u64, found by fuzz_ckpt_manifest and pinned
/// under fuzz/crashes/).
inline auto Fields(Manifest& m) {
  return FieldList(m.sequence,
                   ListOf<ManifestEntry>{m.entries, UINT64_MAX, 8 + 8 + 4});
}

/// Serializes magic | version | sequence | entry list, sealed with a
/// trailing CRC-32 of the body.
std::vector<std::uint8_t> SerializeManifest(const Manifest& manifest);

/// Validates the trailing CRC, magic, and version, then parses the entry
/// list. Rejects truncation, trailing bytes, and entry names long enough to
/// overrun the buffer — the manifest arrives from disk and may be corrupt.
Result<Manifest> ParseManifest(const std::vector<std::uint8_t>& bytes);

// --- State blobs ------------------------------------------------------------
//
// Each blob is the walk of one field list over CheckpointState (format.cc),
// and the four lists together name every member of CheckpointState; the
// structs it embeds are walked through their own lists (checkpoint.h), and
// RunProgress, split over run.bin and factors.bin, through one list per
// segment. The compiler checks that the lists name every member, so a
// member added to any of these structs without a codec change (and a
// version bump) does not compile. Each parse must consume its blob exactly.

std::vector<std::uint8_t> SerializeRun(const CheckpointState& state);
Status ParseRun(const std::vector<std::uint8_t>& bytes, CheckpointState* state);

std::vector<std::uint8_t> SerializeFactors(const CheckpointState& state);
Status ParseFactors(const std::vector<std::uint8_t>& bytes,
                    CheckpointState* state);

std::vector<std::uint8_t> SerializeBcast(const CheckpointState& state);
Status ParseBcast(const std::vector<std::uint8_t>& bytes,
                  CheckpointState* state);

std::vector<std::uint8_t> SerializeDist(const CheckpointState& state);
Status ParseDist(const std::vector<std::uint8_t>& bytes,
                 CheckpointState* state);

}  // namespace ckpt_format
}  // namespace dbtf

#endif  // DBTF_CKPT_FORMAT_H_
