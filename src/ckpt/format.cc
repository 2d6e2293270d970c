#include "ckpt/format.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/fields.h"
#include "common/serde.h"

namespace dbtf {
namespace ckpt_format {
namespace {

/// factors.bin's has-best byte, 1 exactly while best_error >= 0 (RunProgress
/// doc). Derived, so it names no member; checked once best_error is read.
struct HasBest {
  static constexpr std::size_t kMembers = 0;
  const std::int64_t& best_error;
  bool flag = false;
  void Encode(ByteWriter* w) const { EncodeValue(best_error >= 0, w); }
  Status Decode(ByteReader* r) { return DecodeValue(r, &flag); }
  Status Finish() const {
    if (flag != (best_error >= 0)) {
      return FieldError("has_best flag contradicts best_error");
    }
    return Status::OK();
  }
};

/// Dead-machine ids: u64 count, then each id as an i64 in [0, INT32_MAX].
/// A wider id would wrap into the cluster's range when narrowed to int and
/// resume with the wrong machine dead.
struct MachineIds {
  static constexpr std::size_t kMembers = 1;
  std::vector<int>& ids;
  void Encode(ByteWriter* w) const {
    w->WriteU64(ids.size());
    for (const int id : ids) w->WriteI64(id);
  }
  Status Decode(ByteReader* r) {
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t count, r->ReadU64());
    if (count > r->remaining() / 8) {
      return FieldError("dead-machine list larger than blob");
    }
    ids.assign(static_cast<std::size_t>(count), 0);
    for (int& id : ids) {
      std::int64_t value = 0;
      DBTF_RETURN_IF_ERROR(InRange(value, 0, INT32_MAX).Decode(r));
      id = static_cast<int>(value);
    }
    return Status::OK();
  }
};

// RunProgress is split over two blobs: one list per segment, and together
// they name every member.

auto RunCursor(RunProgress& p) {
  return FieldList(p.iteration, p.set_index, p.mode_index, p.next_column,
                   p.columns_done);
}

auto RunTotals(RunProgress& p) {
  return FieldList(p.update_stats, p.iter_stats, p.iteration_errors,
                   p.cells_changed, p.cache_entries, p.cache_bytes,
                   p.checkpoints_written);
}

auto RunFactors(RunProgress& p) {
  return FieldList(p.current, HasBest{p.best_error}, p.best, p.best_error);
}

using ProgressRef = RunProgress&;
static_assert(NamesEveryMember<
              RunProgress, decltype(RunCursor(std::declval<ProgressRef>())),
              decltype(RunTotals(std::declval<ProgressRef>())),
              decltype(RunFactors(std::declval<ProgressRef>()))>::value);

// The four blobs, each one list over CheckpointState; together they name
// every member. The fingerprints and the rng state interleave with the
// RunProgress segments in run.bin.

auto RunBlob(CheckpointState& s) {
  return FieldList(s.config_fingerprint, s.tensor_fingerprint,
                   Segment(RunCursor(s.progress)), s.rng_state,
                   LaterSegment(RunTotals(s.progress)));
}

auto FactorsBlob(CheckpointState& s) {
  return FieldList(LaterSegment(RunFactors(s.progress)));
}

auto BcastBlob(CheckpointState& s) { return FieldList(s.shadows); }

auto DistBlob(CheckpointState& s) {
  return FieldList(s.comm, s.recovery, s.fault_delivery_counters,
                   MachineIds{s.dead_machines}, s.machine_seconds,
                   s.driver_seconds);
}

using StateRef = CheckpointState&;
static_assert(NamesEveryMember<
              CheckpointState, decltype(RunBlob(std::declval<StateRef>())),
              decltype(FactorsBlob(std::declval<StateRef>())),
              decltype(BcastBlob(std::declval<StateRef>())),
              decltype(DistBlob(std::declval<StateRef>()))>::value);

/// One blob: the walk of `blob`'s list over the state (read only).
template <typename Blob>
std::vector<std::uint8_t> Serialize(Blob blob, const CheckpointState& state) {
  auto list = blob(const_cast<CheckpointState&>(state));
  ByteWriter w;
  EncodeList(list, &w);
  return w.bytes();
}

template <typename Blob>
Status Parse(Blob blob, const std::vector<std::uint8_t>& bytes,
             CheckpointState* state) {
  auto list = blob(*state);
  ByteReader r(bytes);
  DBTF_RETURN_IF_ERROR(DecodeList(list, &r));
  return r.ExpectEnd();
}

}  // namespace

std::vector<std::uint8_t> SerializeManifest(const Manifest& manifest) {
  ByteWriter body;
  body.WriteU32(kManifestMagic);
  body.WriteU32(kFormatVersion);
  EncodeFields(manifest, &body);
  ByteWriter sealed;
  sealed.WriteBytes(body.bytes().data(), body.size());
  sealed.WriteU32(body.Crc());
  return sealed.bytes();
}

Result<Manifest> ParseManifest(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4) {
    return Status::IoError("checkpoint: manifest truncated");
  }
  const std::size_t body_size = bytes.size() - 4;
  ByteReader trailer(bytes.data() + body_size, 4);
  DBTF_ASSIGN_OR_RETURN(const std::uint32_t stored_crc, trailer.ReadU32());
  if (Crc32(bytes.data(), body_size) != stored_crc) {
    return Status::IoError("checkpoint: manifest CRC mismatch");
  }

  ByteReader r(bytes.data(), body_size);
  DBTF_ASSIGN_OR_RETURN(const std::uint32_t magic, r.ReadU32());
  if (magic != kManifestMagic) {
    return Status::IoError("checkpoint: bad manifest magic");
  }
  DBTF_ASSIGN_OR_RETURN(const std::uint32_t version, r.ReadU32());
  if (version != kFormatVersion) {
    return Status::IoError("checkpoint: unsupported format version");
  }
  DBTF_ASSIGN_OR_RETURN(Manifest manifest, DecodeFields<Manifest>(&r));
  DBTF_RETURN_IF_ERROR(r.ExpectEnd());
  return manifest;
}

std::vector<std::uint8_t> SerializeRun(const CheckpointState& state) {
  return Serialize(RunBlob, state);
}
Status ParseRun(const std::vector<std::uint8_t>& bytes,
                CheckpointState* state) {
  return Parse(RunBlob, bytes, state);
}

std::vector<std::uint8_t> SerializeFactors(const CheckpointState& state) {
  return Serialize(FactorsBlob, state);
}
Status ParseFactors(const std::vector<std::uint8_t>& bytes,
                    CheckpointState* state) {
  return Parse(FactorsBlob, bytes, state);
}

std::vector<std::uint8_t> SerializeBcast(const CheckpointState& state) {
  return Serialize(BcastBlob, state);
}
Status ParseBcast(const std::vector<std::uint8_t>& bytes,
                  CheckpointState* state) {
  return Parse(BcastBlob, bytes, state);
}

std::vector<std::uint8_t> SerializeDist(const CheckpointState& state) {
  return Serialize(DistBlob, state);
}
Status ParseDist(const std::vector<std::uint8_t>& bytes,
                 CheckpointState* state) {
  return Parse(DistBlob, bytes, state);
}

}  // namespace ckpt_format
}  // namespace dbtf
