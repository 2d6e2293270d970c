#ifndef DBTF_CKPT_CHECKPOINT_H_
#define DBTF_CKPT_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "dist/comm_stats.h"
#include "dist/fault.h"
#include "tensor/bit_matrix.h"

namespace dbtf {

/// Checkpoint/restore subsystem: durable snapshots of the full factorization
/// state, resumable to a bitwise-identical result (see DESIGN.md,
/// "Checkpoint/restore").
///
/// A snapshot is a directory `ckpt-<sequence>` holding a versioned,
/// CRC-checked MANIFEST plus one blob per artifact group. Writes are atomic:
/// blobs and manifest land in a `.tmp` directory, every file is fsynced,
/// and a rename publishes the snapshot — a crash at any point leaves either
/// the previous snapshots intact or an unpublished `.tmp` that the next
/// writer discards. Restore walks sequences newest-first and falls back past
/// corrupt or truncated snapshots (manifest CRC, per-blob size + CRC, and
/// exact-consumption parses all gate validity).
///
/// This layer knows nothing about sessions or clusters: it (de)serializes
/// the plain CheckpointState below. The types it embeds are the live ones —
/// Session::Factorize loops over a RunProgress and FactorBroadcastState
/// keeps FactorShadowSnapshots — so a snapshot copies whole members and a
/// resumed run adopts them as they are.

/// One set of factor matrices A, B, C (worker slots 0, 1, 2).
struct FactorSet {
  BitMatrix a;
  BitMatrix b;
  BitMatrix c;
};

// The field lists (common/fields.h) of the embedded structs a snapshot
// stores whole, in byte order; ckpt/format.cc lays out the blobs.

inline auto Fields(FactorSet& m) { return FieldList(m.a, m.b, m.c); }

/// Statistics of one distributed factor update (RunFactorUpdate).
struct UpdateFactorStats {
  std::int64_t cache_entries = 0;      ///< entries built across partitions
  std::int64_t cache_bytes = 0;        ///< table bytes across partitions
  std::int64_t cells_changed = 0;      ///< factor entries flipped
  std::int64_t final_error = 0;        ///< |X(n) - A o (Mf kr Ms)^T| after
};

inline auto Fields(UpdateFactorStats& m) {
  return FieldList(m.cache_entries, m.cache_bytes, m.cells_changed,
                   m.final_error);
}

/// Merged statistics of one full alternating iteration (A, B, C updates).
struct IterationStats {
  std::int64_t error = 0;          ///< reconstruction error after the C update
  std::int64_t cells_changed = 0;  ///< entries flipped across the 3 updates
  std::int64_t cache_entries = 0;  ///< resident cache entries (all 3 modes)
  std::int64_t cache_bytes = 0;    ///< resident cache bytes (all 3 modes)
};

inline auto Fields(IterationStats& m) {
  return FieldList(m.error, m.cells_changed, m.cache_entries, m.cache_bytes);
}

/// Resumable cursor and accumulators of one Factorize run (Algorithm 2).
/// Session::Factorize is a loop over this struct, so a restored RunProgress
/// re-enters the loop exactly where the interrupted run left it.
struct RunProgress {
  /// Cursor: the next column to decide is column `next_column` of mode
  /// `mode_index` (0 = A, 1 = B, 2 = C) of iteration `iteration` (updating
  /// initial set `set_index` during the multi-start first iteration).
  /// Checkpoints fire only at column boundaries, so a restored cursor has
  /// next_column in [1, rank]; next_column == rank marks a mode whose last
  /// column completed right before the snapshot, finalized from the carried
  /// statistics without another engine call. `columns_done` counts
  /// completed columns across the whole run (the checkpoint cadence unit).
  std::int64_t iteration = 1;
  std::int64_t set_index = 0;
  std::int64_t mode_index = 0;
  std::int64_t next_column = 0;
  std::int64_t columns_done = 0;

  FactorSet current;  ///< the set under update at the cursor
  /// Best completed initial set (iteration 1 only): `best_error` >= 0 exactly
  /// while `best` holds one; afterwards both are reset.
  FactorSet best;
  std::int64_t best_error = -1;

  UpdateFactorStats update_stats;  ///< carried stats of the in-flight update
  IterationStats iter_stats;       ///< merged stats of this iteration so far

  /// Result accumulators up to the cursor.
  std::vector<std::int64_t> iteration_errors;
  std::int64_t cells_changed = 0;
  std::int64_t cache_entries = 0;
  std::int64_t cache_bytes = 0;
  std::int64_t checkpoints_written = 0;
};

/// One committed delta-broadcast slot (FactorBroadcastState): the content the
/// workers hold and its generation. `content` is meaningful only when
/// `initialized`.
struct FactorShadowSnapshot {
  bool initialized = false;
  std::uint64_t generation = 0;
  BitMatrix content;
};

inline auto Fields(FactorShadowSnapshot& m) {
  return FieldList(m.initialized, m.generation, m.content);
}

/// Everything a resumed run needs to continue bitwise-identically.
struct CheckpointState {
  /// Identity guards: a snapshot may only resume the same configuration on
  /// the same tensor (Fnv1a64 fingerprints computed by the session).
  std::uint64_t config_fingerprint = 0;
  std::uint64_t tensor_fingerprint = 0;

  RunProgress progress;

  /// xoshiro256** engine state at the cursor.
  std::array<std::uint64_t, 4> rng_state{};

  /// Delta-broadcast shadows, indexed by worker slot (A = 0, B = 1, C = 2).
  std::array<FactorShadowSnapshot, 3> shadows;

  /// Run-attributed ledgers at the cursor (already Since/Plus-folded by the
  /// session, so they are correct across chains of resumes).
  CommSnapshot comm;
  RecoveryStats recovery;

  /// Fault-injector delivery counters (machine * 3 + kind; empty without a
  /// fault plan) and permanently dead machines.
  std::vector<std::int64_t> fault_delivery_counters;
  std::vector<int> dead_machines;

  /// Virtual clocks at the cursor.
  std::vector<double> machine_seconds;
  double driver_seconds = 0.0;
};

/// Durable store of snapshots under one directory.
class CheckpointStore {
 public:
  /// Opens (creating the directory if needed) a store retaining the newest
  /// `retention` snapshots; older ones are pruned after each write.
  static Result<CheckpointStore> Open(const std::string& dir, int retention);

  /// Atomically writes `state` as the next snapshot in sequence, prunes
  /// beyond the retention limit, and returns the new sequence number. After
  /// this returns, the snapshot survives a hard process kill (fsync on every
  /// file and on the directory).
  Result<std::int64_t> Write(const CheckpointState& state) const;

  /// Loads the newest snapshot that passes validation, skipping (with a
  /// warning) any that are corrupt, truncated, or half-written. Fails with
  /// kNotFound when no valid snapshot exists.
  Result<CheckpointState> LoadNewestValid() const;

  /// Published snapshot sequence numbers, ascending.
  std::vector<std::int64_t> ListSequences() const;

  const std::string& dir() const { return dir_; }
  int retention() const { return retention_; }

 private:
  CheckpointStore(std::string dir, int retention);

  std::string dir_;
  int retention_;
};

}  // namespace dbtf

#endif  // DBTF_CKPT_CHECKPOINT_H_
