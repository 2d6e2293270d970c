#include "ckpt/format.h"

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"
#include "tensor/bit_matrix.h"

namespace dbtf {
namespace ckpt_format {
namespace {

/// Largest name a manifest entry may carry. Blob names are short constants
/// (run.bin & co.); anything bigger is corruption, not data.
constexpr std::uint64_t kMaxEntryNameBytes = 256;

}  // namespace

std::vector<std::uint8_t> SerializeManifest(const Manifest& manifest) {
  ByteWriter body;
  body.WriteU32(kManifestMagic);
  body.WriteU32(kFormatVersion);
  body.WriteI64(manifest.sequence);
  body.WriteU64(manifest.entries.size());
  for (const ManifestEntry& entry : manifest.entries) {
    body.WriteString(entry.name);
    body.WriteU64(entry.size);
    body.WriteU32(entry.crc);
  }
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
  Manifest manifest;
  DBTF_ASSIGN_OR_RETURN(manifest.sequence, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t entry_count, r.ReadU64());
  // Each entry is at least a length-prefixed name (8) + size (8) + crc (4);
  // bound the count by the remaining body before reserving anything. Divide
  // rather than multiply: a hostile count times 20 wraps around u64 (found
  // by fuzz_ckpt_manifest; the input is pinned under fuzz/crashes/).
  if (entry_count > r.remaining() / (8 + 8 + 4)) {
    return Status::IoError("checkpoint: manifest entry count truncated");
  }
  manifest.entries.reserve(static_cast<std::size_t>(entry_count));
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    ManifestEntry entry;
    DBTF_ASSIGN_OR_RETURN(entry.name, r.ReadString());
    if (entry.name.empty() || entry.name.size() > kMaxEntryNameBytes) {
      return Status::IoError("checkpoint: manifest entry name out of range");
    }
    DBTF_ASSIGN_OR_RETURN(entry.size, r.ReadU64());
    DBTF_ASSIGN_OR_RETURN(entry.crc, r.ReadU32());
    manifest.entries.push_back(std::move(entry));
  }
  DBTF_RETURN_IF_ERROR(r.ExpectEnd());
  return manifest;
}

std::vector<std::uint8_t> SerializeRun(const CheckpointState& state) {
  const RunProgress& p = state.progress;
  ByteWriter w;
  w.WriteU64(state.config_fingerprint);
  w.WriteU64(state.tensor_fingerprint);
  w.WriteI64(p.iteration);
  w.WriteI64(p.set_index);
  w.WriteI64(p.mode_index);
  w.WriteI64(p.next_column);
  w.WriteI64(p.columns_done);
  for (const std::uint64_t word : state.rng_state) w.WriteU64(word);
  w.WriteI64(p.update_stats.cache_entries);
  w.WriteI64(p.update_stats.cache_bytes);
  w.WriteI64(p.update_stats.cells_changed);
  w.WriteI64(p.update_stats.final_error);
  w.WriteI64(p.iter_stats.error);
  w.WriteI64(p.iter_stats.cells_changed);
  w.WriteI64(p.iter_stats.cache_entries);
  w.WriteI64(p.iter_stats.cache_bytes);
  w.WriteI64Vector(p.iteration_errors);
  w.WriteI64(p.cells_changed);
  w.WriteI64(p.cache_entries);
  w.WriteI64(p.cache_bytes);
  w.WriteI64(p.checkpoints_written);
  return w.bytes();
}

Status ParseRun(const std::vector<std::uint8_t>& bytes,
                CheckpointState* state) {
  RunProgress& p = state->progress;
  ByteReader r(bytes);
  DBTF_ASSIGN_OR_RETURN(state->config_fingerprint, r.ReadU64());
  DBTF_ASSIGN_OR_RETURN(state->tensor_fingerprint, r.ReadU64());
  DBTF_ASSIGN_OR_RETURN(p.iteration, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.set_index, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.mode_index, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.next_column, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.columns_done, r.ReadI64());
  for (std::uint64_t& word : state->rng_state) {
    DBTF_ASSIGN_OR_RETURN(word, r.ReadU64());
  }
  DBTF_ASSIGN_OR_RETURN(p.update_stats.cache_entries, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.update_stats.cache_bytes, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.update_stats.cells_changed, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.update_stats.final_error, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.iter_stats.error, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.iter_stats.cells_changed, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.iter_stats.cache_entries, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.iter_stats.cache_bytes, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.iteration_errors, r.ReadI64Vector());
  DBTF_ASSIGN_OR_RETURN(p.cells_changed, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.cache_entries, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.cache_bytes, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(p.checkpoints_written, r.ReadI64());
  return r.ExpectEnd();
}

std::vector<std::uint8_t> SerializeFactors(const CheckpointState& state) {
  const RunProgress& p = state.progress;
  ByteWriter w;
  WriteBitMatrix(p.current.a, &w);
  WriteBitMatrix(p.current.b, &w);
  WriteBitMatrix(p.current.c, &w);
  // The has-best flag byte is implied by best_error (RunProgress doc).
  w.WriteU8(p.best_error >= 0 ? 1 : 0);
  WriteBitMatrix(p.best.a, &w);
  WriteBitMatrix(p.best.b, &w);
  WriteBitMatrix(p.best.c, &w);
  w.WriteI64(p.best_error);
  return w.bytes();
}

Status ParseFactors(const std::vector<std::uint8_t>& bytes,
                    CheckpointState* state) {
  RunProgress& p = state->progress;
  ByteReader r(bytes);
  DBTF_ASSIGN_OR_RETURN(p.current.a, ReadBitMatrix(&r));
  DBTF_ASSIGN_OR_RETURN(p.current.b, ReadBitMatrix(&r));
  DBTF_ASSIGN_OR_RETURN(p.current.c, ReadBitMatrix(&r));
  DBTF_ASSIGN_OR_RETURN(const std::uint8_t has_best, r.ReadU8());
  if (has_best > 1) return Status::IoError("checkpoint: bad has_best flag");
  DBTF_ASSIGN_OR_RETURN(p.best.a, ReadBitMatrix(&r));
  DBTF_ASSIGN_OR_RETURN(p.best.b, ReadBitMatrix(&r));
  DBTF_ASSIGN_OR_RETURN(p.best.c, ReadBitMatrix(&r));
  DBTF_ASSIGN_OR_RETURN(p.best_error, r.ReadI64());
  if ((has_best != 0) != (p.best_error >= 0)) {
    return Status::IoError("checkpoint: has_best flag contradicts best_error");
  }
  return r.ExpectEnd();
}

std::vector<std::uint8_t> SerializeBcast(const CheckpointState& state) {
  ByteWriter w;
  for (const FactorShadowSnapshot& shadow : state.shadows) {
    w.WriteU8(shadow.initialized ? 1 : 0);
    w.WriteU64(shadow.generation);
    WriteBitMatrix(shadow.content, &w);
  }
  return w.bytes();
}

Status ParseBcast(const std::vector<std::uint8_t>& bytes,
                  CheckpointState* state) {
  ByteReader r(bytes);
  for (FactorShadowSnapshot& shadow : state->shadows) {
    DBTF_ASSIGN_OR_RETURN(const std::uint8_t initialized, r.ReadU8());
    if (initialized > 1) {
      return Status::IoError("checkpoint: bad shadow flag");
    }
    shadow.initialized = initialized != 0;
    DBTF_ASSIGN_OR_RETURN(shadow.generation, r.ReadU64());
    DBTF_ASSIGN_OR_RETURN(shadow.content, ReadBitMatrix(&r));
  }
  return r.ExpectEnd();
}

std::vector<std::uint8_t> SerializeDist(const CheckpointState& state) {
  ByteWriter w;
  w.WriteI64(state.comm.shuffle_bytes);
  w.WriteI64(state.comm.broadcast_bytes);
  w.WriteI64(state.comm.collect_bytes);
  w.WriteI64(state.comm.query_bytes);
  w.WriteI64(state.comm.shuffle_events);
  w.WriteI64(state.comm.broadcast_events);
  w.WriteI64(state.comm.collect_events);
  w.WriteI64(state.comm.query_events);
  w.WriteI64(state.recovery.failed_deliveries);
  w.WriteI64(state.recovery.retries);
  w.WriteI64(state.recovery.machines_lost);
  w.WriteI64(state.recovery.reprovisions);
  w.WriteI64(state.recovery.reshipped_bytes);
  w.WriteDouble(state.recovery.recovery_seconds);
  w.WriteI64Vector(state.fault_delivery_counters);
  w.WriteU64(state.dead_machines.size());
  for (const int machine : state.dead_machines) {
    w.WriteI64(machine);
  }
  w.WriteU64(state.machine_seconds.size());
  for (const double seconds : state.machine_seconds) {
    w.WriteDouble(seconds);
  }
  w.WriteDouble(state.driver_seconds);
  return w.bytes();
}

Status ParseDist(const std::vector<std::uint8_t>& bytes,
                 CheckpointState* state) {
  ByteReader r(bytes);
  DBTF_ASSIGN_OR_RETURN(state->comm.shuffle_bytes, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->comm.broadcast_bytes, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->comm.collect_bytes, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->comm.query_bytes, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->comm.shuffle_events, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->comm.broadcast_events, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->comm.collect_events, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->comm.query_events, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->recovery.failed_deliveries, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->recovery.retries, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->recovery.machines_lost, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->recovery.reprovisions, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->recovery.reshipped_bytes, r.ReadI64());
  DBTF_ASSIGN_OR_RETURN(state->recovery.recovery_seconds, r.ReadDouble());
  DBTF_ASSIGN_OR_RETURN(state->fault_delivery_counters, r.ReadI64Vector());
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t dead_count, r.ReadU64());
  if (dead_count > r.remaining() / 8) {
    return Status::IoError("checkpoint: dead-machine list larger than blob");
  }
  state->dead_machines.resize(static_cast<std::size_t>(dead_count));
  for (int& machine : state->dead_machines) {
    DBTF_ASSIGN_OR_RETURN(const std::int64_t value, r.ReadI64());
    machine = static_cast<int>(value);
  }
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t clock_count, r.ReadU64());
  if (clock_count > r.remaining() / 8) {
    return Status::IoError("checkpoint: clock list larger than blob");
  }
  state->machine_seconds.resize(static_cast<std::size_t>(clock_count));
  for (double& seconds : state->machine_seconds) {
    DBTF_ASSIGN_OR_RETURN(seconds, r.ReadDouble());
  }
  DBTF_ASSIGN_OR_RETURN(state->driver_seconds, r.ReadDouble());
  return r.ExpectEnd();
}

}  // namespace ckpt_format
}  // namespace dbtf
