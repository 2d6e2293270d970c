#ifndef DBTF_DBTF_ENGINE_H_
#define DBTF_DBTF_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>

#include "ckpt/checkpoint.h"
#include "common/status.h"
#include "dbtf/config.h"
#include "dist/cluster.h"
#include "tensor/bit_matrix.h"
#include "tensor/unfold.h"

namespace dbtf {

// The broadcast payload type (FactorDelta) lives in dist/messages.h — the
// typed wire schema every driver<->worker byte crosses — and arrives here
// via dist/cluster.h. Worker internals stay invisible: the engine routes
// value messages through Cluster's typed methods and never names a Worker
// member (the analyzer's worker-include rule enforces the boundary).

// UpdateFactorStats, the statistics RunFactorUpdate returns, is defined in
// ckpt/checkpoint.h: a checkpoint carries the in-flight update's stats as is.

/// Which worker-side factor slot each matrix of one update occupies. Slots
/// identify the *matrix* (A = 0, B = 1, C = 2 in the session's convention),
/// not the role: the same matrix keeps its slot whether it is currently the
/// factor under update, M_f, or M_s, which is what lets workers keep a
/// single resident copy per matrix across the three mode updates.
struct FactorRoles {
  int factor_slot = 0;  ///< slot of the factor being updated (never shipped)
  int mf_slot = 2;      ///< slot of M_f (blocks x R operand)
  int ms_slot = 1;      ///< slot of M_s (within x R caching unit)
};

/// Driver-side shadow of the factor content resident on the workers, and
/// the one planner of every broadcast of factor content: factor updates,
/// checkpoint rehydration and the serving plane. Per slot it remembers the
/// last content committed (and its generation); a plan ships nothing for an
/// unchanged slot, the changed columns when the workers hold the delta's
/// base, and the full matrix on first contact or when the delta would be no
/// smaller.
///
/// Generations name content. They come from a process-wide counter private
/// to engine.cc, so a generation match at a worker is proof of
/// byte-identical content even when session-resident workers outlive this
/// state. One state serves one Factorize run (all three modes) or one
/// ServeEngine; `delta_enabled = false` plans a full broadcast for every
/// stale slot (the --no-delta-broadcast ablation).
///
/// Plan/Commit are split so recovery can re-send the planned message: a plan
/// assigns pending generations eagerly, Commit (after the first successful
/// send) finalizes them and snapshots the shadows; the next plan of a slot
/// drops a plan that never committed. Commit is idempotent and re-sends of
/// a committed plan are no-ops at the workers.
class FactorBroadcastState {
 public:
  /// Content per worker slot (A = 0, B = 1, C = 2) for PlanContent and
  /// CommitContent; a null entry leaves that slot out.
  using SlotContent = std::array<const BitMatrix*, 3>;

  explicit FactorBroadcastState(bool delta_enabled = true)
      : delta_enabled_(delta_enabled) {}

  FactorBroadcastState(const FactorBroadcastState&) = delete;
  FactorBroadcastState& operator=(const FactorBroadcastState&) = delete;

  /// Plans the operand payloads of one factor update. The returned message
  /// owns its content (full-matrix payloads are copied), so it can be
  /// re-sent by the recovery path or serialized onto a wire at any time.
  FactorDelta Plan(const FactorRoles& roles, Mode mode, std::int64_t rows,
                   const BitMatrix& mf, const BitMatrix& ms,
                   const DbtfConfig& config);

  /// Records that the planned payloads reached the workers: snapshots the
  /// shipped content and finalizes the pending generations.
  void Commit(const FactorRoles& roles, const BitMatrix& mf,
              const BitMatrix& ms);

  /// Plan/Commit for an apply_only message over the given slots (in index
  /// order): workers store the content and build no factor-update state.
  FactorDelta PlanContent(const SlotContent& content);
  void CommitContent(const SlotContent& content);

  /// Every committed slot in full at its committed generation, apply_only.
  /// Full replacements override any resident generation, so workers behind
  /// the committed content and workers ahead of it both converge on it.
  FactorDelta CatchUpMessage() const;

  /// Committed generation per slot (0: never committed).
  std::array<std::uint64_t, 3> generations() const;

  /// The committed slots, indexed by worker slot (A = 0, B = 1, C = 2) —
  /// exactly what a checkpoint persists.
  const std::array<FactorShadowSnapshot, 3>& shadows() const {
    return shadows_;
  }

  /// Restores the committed slots from a checkpoint and advances the
  /// process-wide generation counter past every restored generation, so
  /// generations handed out after a resume stay globally unique.
  void RestoreShadows(std::array<FactorShadowSnapshot, 3> shadows);

  /// The message that rehydrates a worker to the committed slots: the
  /// catch-up message's payload under the header (mode, rows, roles, cache
  /// parameters) Plan would give this update. A resumed run delivers it in
  /// place of the broadcast the interrupted run had already shipped.
  FactorDelta RestoreMessage(const FactorRoles& roles, Mode mode,
                             std::int64_t rows,
                             const DbtfConfig& config) const;

 private:
  void PlanSlot(int slot_index, const BitMatrix& current, FactorDelta* out);
  void CommitSlot(int slot_index, const BitMatrix& current);

  std::array<FactorShadowSnapshot, 3> shadows_;  ///< last content committed
  /// Generation Plan assigned per slot, not yet committed (0: none).
  std::array<std::uint64_t, 3> pending_generations_{};
  bool delta_enabled_;
};

/// Runs one distributed factor update (Algorithms 4/5) for the mode-`mode`
/// unfolding over the workers attached to `cluster`.
///
/// This is the driver side of the update: it owns `factor` and the decision
/// loop, while all partition and cache-table state lives inside the workers.
/// The exchange per update follows the paper's (Lemma 7), with the
/// broadcast term tightened by deltas:
///
///   1. Broadcast<FactorDelta>: exactly one broadcast per update, charged
///      per machine, carrying only the operand content the workers do not
///      already hold (full matrices on first contact, changed columns
///      afterwards, nothing for an unchanged operand — see
///      FactorBroadcastState). Workers rebuild M_f masks and per-partition
///      cache tables only when the corresponding operand moved.
///   2. Per column c: one Cluster::RunColumn, one exchange per machine. The
///      request is RunUpdateColumn (the current row masks ride the task)
///      plus CollectErrorsRequest; the reply is one machine's per-row error
///      differences (total1 - total0) and, for the final column R - 1 only,
///      its candidate-0 error total (the update's final error is that total
///      plus the improvements taken in column R - 1), charged as one
///      collect event at its exact encoded size. The greedy
///      decision only needs the *reduced* differences, which RunColumn
///      returns once every machine has answered. The driver sets each
///      entry whose difference is negative (ties prefer 0, the sparser
///      factor) and carries the decisions into the next column's message.
///
/// The workers attached to `cluster` must jointly hold every partition of
/// the unfolding (shape `shape`). Because the current value of every entry
/// is always among the candidates, the factor's error is non-increasing
/// across column sweeps.
///
/// Fault tolerance: when `recover` is provided, a retryable routing failure
/// (kUnavailable / kDeadlineExceeded — an exhausted retry budget or a
/// permanent machine loss) invokes it to restore partition coverage
/// (Session wires in ReprovisionLostPartitions), re-broadcasts the factor
/// matrices so adopted partitions get caches, and re-runs the failed step.
/// Retry granularity is the *current column*: its errors are recomputed
/// entirely from the driver's row masks, so a recovered update makes
/// bitwise-identical decisions to a fault-free run. Without `recover`, a
/// routing failure surfaces unchanged.
using RecoverWorkersFn = std::function<Status()>;

/// Invoked after each column's decisions are applied, with the completed
/// column index and the update's statistics so far (the factor matrix
/// already reflects columns <= `column`). A non-OK return aborts the update
/// and surfaces unchanged — the checkpoint layer uses this to halt a run at
/// a column boundary.
using ColumnCompletedFn =
    std::function<Status(std::int64_t column, const UpdateFactorStats& stats)>;

/// Resume point for an update interrupted at a column boundary. The caller
/// (Session's restore path) must have rehydrated the workers to the operand
/// content this update broadcast before the interruption; the update then
/// skips the initial broadcast and its ledger charge — the interrupted run
/// already paid it — and continues at `start_column` with `carried` as the
/// statistics accumulated by the completed columns.
struct FactorUpdateResume {
  std::int64_t start_column = 0;
  UpdateFactorStats carried;
};

/// `roles` maps the three matrices onto worker factor slots (defaults suit
/// a standalone single-factor update). `broadcast_state` carries the shipped
/// content across updates of one run; nullptr uses a fresh state for just
/// this update (every stale operand ships full — the right behavior for
/// one-shot callers whose workers hold nothing). `on_column` is the
/// checkpoint hook; `resume` continues an interrupted update mid-column-loop
/// (see FactorUpdateResume).
Result<UpdateFactorStats> RunFactorUpdate(
    Cluster* cluster, Mode mode, const UnfoldShape& shape, BitMatrix* factor,
    const BitMatrix& mf, const BitMatrix& ms, const DbtfConfig& config,
    const RecoverWorkersFn& recover = nullptr,
    const FactorRoles& roles = FactorRoles{},
    FactorBroadcastState* broadcast_state = nullptr,
    const ColumnCompletedFn& on_column = nullptr,
    const FactorUpdateResume* resume = nullptr);

}  // namespace dbtf

#endif  // DBTF_DBTF_ENGINE_H_
