#include "dbtf/engine.h"

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitspan.h"
#include "common/check.h"
#include "dist/messages.h"

namespace dbtf {
namespace {

/// Process-wide generation source. Globally unique generations make a
/// worker-side generation match proof of identical content even across
/// Factorize runs on session-resident workers — two runs can never hand out
/// the same generation for different content. Only equality is ever tested,
/// so the allocation order does not affect results.
std::atomic<std::uint64_t>& GenerationCounter() {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}

std::uint64_t NextGeneration() {
  return GenerationCounter().fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Ensures no future generation is <= `floor`. Restoring a checkpoint
/// replays generations minted by an earlier process; bumping the counter
/// past them keeps the uniqueness invariant for generations minted after
/// the resume.
void AdvanceGenerationCounterPast(std::uint64_t floor) {
  auto& counter = GenerationCounter();
  std::uint64_t current = counter.load(std::memory_order_relaxed);
  while (current < floor &&
         !counter.compare_exchange_weak(current, floor,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

std::uint64_t NextFactorGeneration() { return NextGeneration(); }

FactorDelta FactorBroadcastState::Plan(const FactorRoles& roles, Mode mode,
                                       std::int64_t rows, const BitMatrix& mf,
                                       const BitMatrix& ms,
                                       const DbtfConfig& config) {
  FactorDelta msg;
  msg.mode = mode;
  msg.rows = rows;
  msg.mf_slot = roles.mf_slot;
  msg.ms_slot = roles.ms_slot;
  msg.cache_group_size = config.cache_group_size;
  msg.enable_caching = config.enable_caching;
  PlanSlot(roles.mf_slot, mf, &msg);
  PlanSlot(roles.ms_slot, ms, &msg);
  return msg;
}

void FactorBroadcastState::PlanSlot(int slot_index, const BitMatrix& current,
                                    FactorDelta* out) {
  DBTF_CHECK_LE(0, slot_index);
  DBTF_CHECK_LT(slot_index, 3);
  Slot& slot = slots_[static_cast<std::size_t>(slot_index)];
  // The workers already hold exactly this content — ship nothing. (Freshly
  // adopted partitions still get cache tables: the worker rebuilds any
  // partition with no table from its resident copy.)
  if (slot.initialized && slot.shadow == current) return;

  MatrixDelta d;
  d.slot = slot_index;
  d.rows = current.rows();
  d.cols = current.cols();
  d.generation = NextGeneration();
  slot.pending_generation = d.generation;

  bool ship_full = !slot.initialized || !delta_enabled_;
  if (!ship_full) {
    // Changed columns, from the 64-bit row masks (factor cols == rank <= 64,
    // the same bound RowMask64-based column scoring already relies on).
    std::uint64_t changed = 0;
    for (std::int64_t r = 0; r < current.rows(); ++r) {
      changed |= slot.shadow.RowMask64(r) ^ current.RowMask64(r);
    }
    d.full = false;
    d.base_generation = slot.generation;
    const std::size_t words_per_column =
        static_cast<std::size_t>((current.rows() + 63) / 64);
    for (std::int64_t c = 0; c < current.cols(); ++c) {
      if ((changed & (std::uint64_t{1} << static_cast<unsigned>(c))) == 0) {
        continue;
      }
      std::vector<BitWord> bits(words_per_column, 0);
      const MutableBitSpan column(bits.data(),
                                  static_cast<std::size_t>(current.rows()));
      for (std::int64_t r = 0; r < current.rows(); ++r) {
        if (current.Get(r, c)) column.Set(static_cast<std::size_t>(r), true);
      }
      d.columns.push_back(c);
      d.column_bits.push_back(std::move(bits));
    }
    // A delta that is no smaller than the full matrix buys nothing — ship
    // full and let the generation skip handle idempotence.
    const std::int64_t full_bytes =
        d.rows * ((d.cols + 63) / 64) *
        static_cast<std::int64_t>(sizeof(BitWord));
    if (d.WireBytes() >= full_bytes) ship_full = true;
  }
  if (ship_full) {
    d.full = true;
    d.base_generation = 0;
    d.dense = current;
    d.columns.clear();
    d.column_bits.clear();
  }
  out->updates.push_back(std::move(d));
}

void FactorBroadcastState::Commit(const FactorRoles& roles,
                                  const BitMatrix& mf, const BitMatrix& ms) {
  CommitSlot(roles.mf_slot, mf);
  CommitSlot(roles.ms_slot, ms);
}

void FactorBroadcastState::CommitSlot(int slot_index,
                                      const BitMatrix& current) {
  Slot& slot = slots_[static_cast<std::size_t>(slot_index)];
  if (slot.pending_generation == 0) return;  // nothing was planned/shipped
  slot.shadow = current;
  slot.generation = slot.pending_generation;
  slot.pending_generation = 0;
  slot.initialized = true;
}

FactorBroadcastState::ShadowView FactorBroadcastState::shadow(
    int slot_index) const {
  DBTF_CHECK_LE(0, slot_index);
  DBTF_CHECK_LT(slot_index, 3);
  const Slot& slot = slots_[static_cast<std::size_t>(slot_index)];
  ShadowView view;
  view.initialized = slot.initialized;
  view.generation = slot.generation;
  view.content = slot.initialized ? &slot.shadow : nullptr;
  return view;
}

void FactorBroadcastState::RestoreShadow(int slot_index, BitMatrix content,
                                         std::uint64_t generation) {
  DBTF_CHECK_LE(0, slot_index);
  DBTF_CHECK_LT(slot_index, 3);
  DBTF_CHECK_LT(0, static_cast<std::int64_t>(generation));
  Slot& slot = slots_[static_cast<std::size_t>(slot_index)];
  slot.shadow = std::move(content);
  slot.generation = generation;
  slot.pending_generation = 0;
  slot.initialized = true;
  AdvanceGenerationCounterPast(generation);
}

Result<UpdateFactorStats> RunFactorUpdate(
    Cluster* cluster, Mode mode, const UnfoldShape& shape, BitMatrix* factor,
    const BitMatrix& mf, const BitMatrix& ms, const DbtfConfig& config,
    const RecoverWorkersFn& recover, const FactorRoles& roles,
    FactorBroadcastState* broadcast_state, const ColumnCompletedFn& on_column,
    const FactorUpdateResume* resume) {
  const std::int64_t rank = config.rank;
  if (factor->cols() != rank || mf.cols() != rank || ms.cols() != rank) {
    return Status::InvalidArgument("factor ranks do not match config.rank");
  }
  if (factor->rows() != shape.rows || mf.rows() != shape.blocks ||
      ms.rows() != shape.within) {
    return Status::InvalidArgument("factor shapes do not match the unfolding");
  }
  if (cluster->num_attached_workers() == 0) {
    return Status::FailedPrecondition(
        "RunFactorUpdate requires workers attached to the cluster");
  }
  const std::int64_t start_column =
      resume != nullptr ? resume->start_column : 0;
  if (start_column < 0 || start_column >= rank) {
    return Status::InvalidArgument(
        "resume start_column outside the column range");
  }
  const std::int64_t rows = shape.rows;

  // Ledger seam (Lemma 7): a fault-free factor update must charge exactly
  // one broadcast event, one collect event per column, and no shuffle —
  // checked against a snapshot at the end of this function (recovery relaxes
  // the checks; see below).
  const CommSnapshot ledger_begin = cluster->comm().Snapshot();
  const RecoveryStats recovery_begin = cluster->recovery().Snapshot();

  // Plan the operand broadcast (Lemma 7, delta-tightened): only stale
  // content ships; workers rebuild caches (Algorithm 5) only for operands
  // that moved. Exactly one broadcast event goes out per update — even an
  // empty delta is delivered, because the message also carries the mode's
  // shape/cache parameters and triggers cache builds for freshly adopted
  // partitions.
  FactorBroadcastState local_state(config.enable_delta_broadcast);
  FactorBroadcastState* bstate =
      broadcast_state != nullptr ? broadcast_state : &local_state;
  const FactorDelta broadcast =
      bstate->Plan(roles, mode, rows, mf, ms, config);
  const auto send_broadcast = [cluster, &broadcast]() {
    // BroadcastFactors takes its own copy of the message and charges
    // broadcast.WireBytes() per machine before delivery; re-sends of a
    // committed plan are idempotent at the workers (generation match), so
    // recovery can re-invoke this closure freely.
    return cluster->BroadcastFactors(broadcast);
  };

  // Runs `op`, recovering from retryable routing failures: `recover`
  // restores partition coverage (re-provisioning lost machines' partitions
  // onto survivors), then — when `rebroadcast` — the factor matrices go out
  // again so the adopted partitions get cache tables and error state, then
  // `op` is re-run from scratch. The original driver-owned matrices are
  // re-broadcast verbatim and each column recomputes its errors entirely
  // from the driver's row masks, so a recovered run makes exactly the
  // decisions a fault-free run makes. Bounded: one round per machine plus
  // one, so a fault that recovery cannot clear surfaces instead of looping.
  const auto with_recovery = [&](const std::function<Status()>& op,
                                 bool rebroadcast) -> Status {
    Status status = op();
    int rounds = cluster->num_machines() + 1;
    while (recover != nullptr && !status.ok() &&
           IsRetryable(status.code()) && rounds-- > 0) {
      DBTF_RETURN_IF_ERROR(recover());
      if (rebroadcast) DBTF_RETURN_IF_ERROR(send_broadcast());
      status = op();
    }
    return status;
  };

  // A failed broadcast re-runs itself after recovery, which also equips any
  // partitions adopted during that recovery. Commit only after a successful
  // send: a plan that never reached the workers must not advance the shadow.
  //
  // A resumed update (start_column > 0) skips the send and the commit: the
  // interrupted run already delivered and charged this update's broadcast,
  // and the restore path rehydrated the workers to exactly the committed
  // shadow content — so the plan above is empty by construction. It stays
  // in scope for the recovery path, whose rebroadcast re-equips adopted
  // partitions (an empty delta still carries the mode's cache parameters).
  if (start_column == 0) {
    DBTF_RETURN_IF_ERROR(
        with_recovery(send_broadcast, /*rebroadcast=*/false));
    bstate->Commit(roles, mf, ms);
  }

  UpdateFactorStats stats = resume != nullptr ? resume->carried
                                              : UpdateFactorStats{};

  // Snapshot of the factor's row masks; the workers see it through each
  // column's RunUpdateColumn, updated with the driver's previous decisions.
  std::vector<std::uint64_t> row_masks(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    row_masks[static_cast<std::size_t>(r)] = factor->RowMask64(r);
  }

  CollectErrorsResponse errors;
  for (std::int64_t c = start_column; c < rank; ++c) {
    // One column is the recovery retry unit: dispatch + collect, with the
    // merged response rebuilt from scratch on every attempt so a partially
    // collected failed attempt leaves no residue behind.
    //
    // Dispatch and collect are enqueued back-to-back on the machines'
    // serial mailboxes: each machine runs its compute task then its
    // collect, in order, without the driver waiting for the slowest machine
    // between the two steps — a fast machine's collect overlaps a slow
    // machine's compute. RunColumn blocks until every delivery is done, so
    // a failed attempt never leaves tasks racing a retry.
    const auto run_column = [&]() -> Status {
      errors = CollectErrorsResponse();

      RunUpdateColumn run;
      run.mode = mode;
      run.column = c;
      run.row_masks = row_masks;
      run.rows = rows;
      CollectErrorsRequest collect;
      collect.mode = mode;
      collect.rows = rows;
      // Cache metrics piggyback on the first collect's responses.
      collect.want_stats = (c == 0);

      // The fused primitive takes one registry snapshot for both halves, so
      // a machine crashing mid-column yields the same ledger no matter how
      // threads (or the transport) interleave with the crash.
      DBTF_RETURN_IF_ERROR(cluster->RunColumn(std::move(run), collect, &errors));
      if (static_cast<std::int64_t>(errors.totals0.size()) != rows ||
          static_cast<std::int64_t>(errors.totals1.size()) != rows) {
        return Status::Internal(
            "collected error totals do not cover the unfolding rows");
      }
      return Status::OK();
    };
    DBTF_RETURN_IF_ERROR(with_recovery(run_column, /*rebroadcast=*/true));
    const std::vector<std::int64_t>& totals0 = errors.totals0;
    const std::vector<std::int64_t>& totals1 = errors.totals1;

    // Decide each entry of column c; ties prefer 0 (the sparser factor).
    const std::uint64_t bit = std::uint64_t{1} << static_cast<unsigned>(c);
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t total0 = totals0[static_cast<std::size_t>(r)];
      const std::int64_t total1 = totals1[static_cast<std::size_t>(r)];
      const bool old_value =
          (row_masks[static_cast<std::size_t>(r)] & bit) != 0;
      const bool new_value = total1 < total0;
      if (new_value != old_value) ++stats.cells_changed;
      std::uint64_t& mask = row_masks[static_cast<std::size_t>(r)];
      mask = new_value ? (mask | bit) : (mask & ~bit);
      if (c == rank - 1) {
        stats.final_error += new_value ? total1 : total0;
      }
    }
    // Cache metrics piggyback on column 0's collect; fold them in here
    // rather than after the loop so (a) the checkpoint hook below sees them
    // and (b) a resumed update (which skips column 0) keeps the carried
    // values instead of zeroing them.
    if (c == 0) {
      stats.cache_entries = errors.cache_entries;
      stats.cache_bytes = errors.cache_bytes;
    }
    if (on_column != nullptr) {
      // The hook observes the update at a column boundary: sync the decided
      // masks into the driver-owned factor first, so a checkpoint taken in
      // the hook snapshots exactly the columns completed so far.
      for (std::int64_t r = 0; r < rows; ++r) {
        factor->SetRowMask64(r, row_masks[static_cast<std::size_t>(r)]);
      }
      DBTF_RETURN_IF_ERROR(on_column(c, stats));
    }
  }

  // Write the updated masks back into the driver-owned factor matrix.
  for (std::int64_t r = 0; r < rows; ++r) {
    factor->SetRowMask64(r, row_masks[static_cast<std::size_t>(r)]);
  }

  // Every routed message was charged exactly once by the Cluster layer. A
  // fault-free update charges the exact Lemma 7 footprint; an update that
  // went through retries or recovery legitimately re-charges re-broadcasts
  // and re-collects, and every re-provision appears as one shuffle.
  const CommSnapshot d = cluster->comm().Snapshot().Since(ledger_begin);
  const RecoveryStats r = cluster->recovery().Snapshot().Since(recovery_begin);
  // A resumed update charges no initial broadcast (the interrupted run paid
  // it) and only the remaining columns' collects.
  const std::int64_t expected_broadcasts = start_column == 0 ? 1 : 0;
  const std::int64_t expected_collects = rank - start_column;
  if (r.failed_deliveries == 0 && r.machines_lost == 0 &&
      r.reprovisions == 0) {
    DBTF_DCHECK_EQ(d.broadcast_events, expected_broadcasts);
    DBTF_DCHECK_EQ(d.collect_events, expected_collects);
    DBTF_DCHECK_EQ(d.shuffle_events, 0);
  } else {
    DBTF_DCHECK_LE(expected_broadcasts, d.broadcast_events);
    DBTF_DCHECK_LE(expected_collects, d.collect_events);
    DBTF_DCHECK_EQ(d.shuffle_events, r.reprovisions);
  }
  return stats;
}

}  // namespace dbtf
