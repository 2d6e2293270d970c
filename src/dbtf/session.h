#ifndef DBTF_DBTF_SESSION_H_
#define DBTF_DBTF_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "dbtf/config.h"
#include "dbtf/dbtf.h"
#include "dist/cluster.h"
#include "tensor/sparse_tensor.h"
#include "tensor/unfold.h"

namespace dbtf {

class FactorBroadcastState;  // dbtf/engine.h
class Rng;                   // common/random.h
struct CheckpointState;      // ckpt/checkpoint.h
struct RunProgress;          // ckpt/checkpoint.h

/// A tensor resident on the distributed runtime, reusable across
/// factorization runs.
///
/// Create() performs the expensive, rank-independent setup exactly once: it
/// partitions the three unfoldings (Algorithm 3), moves every partition into
/// the per-machine Worker that Cluster::OwnerOf names (the
/// driver keeps no partition data), attaches the workers to the cluster as
/// message endpoints, and charges the one-off shuffle (Lemma 6). Factorize()
/// then runs Algorithm 2 at any rank over the resident partitions — rank
/// selection calls it once per candidate rank without ever re-partitioning
/// the tensor.
///
/// Ledger attribution: each Factorize() reports the bytes it moved plus the
/// session's one-off shuffle, so a session used for a single run reports
/// exactly what the pre-session monolithic driver did. The underlying
/// cluster ledger records the shuffle only once, which is what
/// cluster().comm() shows across a multi-run session.
///
/// The tensor must outlive the session (the initializer samples fibers from
/// it). A session is single-threaded from the caller's perspective: do not
/// run two Factorize() calls concurrently.
class Session {
 public:
  /// Partitions `x`'s unfoldings into `config.num_partitions` slices, places
  /// them on `config.cluster.num_machines` workers, and charges the shuffle.
  /// Only the partitioning-relevant fields of `config` (num_partitions and
  /// cluster) bind the session; rank and iteration fields are free to differ
  /// between later Factorize() calls.
  static Result<std::unique_ptr<Session>> Create(const SparseTensor& x,
                                                 const DbtfConfig& config);

  ~Session();

  /// Runs the DBTF factorization (Algorithm 2) at `config.rank` over the
  /// resident partitions. `config.num_partitions` and
  /// `config.cluster.num_machines` must match the session's.
  Result<DbtfResult> Factorize(const DbtfConfig& config);

  /// The simulated cluster this session runs on (virtual clocks, ledger).
  Cluster& cluster() { return *cluster_; }
  const Cluster& cluster() const { return *cluster_; }

  /// Actual partitions of the mode-`mode` unfolding (may be below the
  /// requested N for very small tensors).
  std::int64_t partitions_used(Mode mode) const {
    return nparts_[static_cast<std::size_t>(mode) - 1];
  }

  /// Workers holding the partitions (one per machine). The workers are
  /// cluster-owned endpoints (dist/provision.h); the session never holds a
  /// Worker pointer itself.
  int num_workers() const { return cluster_->num_attached_workers(); }

 private:
  struct FiberIndex;         // fiber-sampled initialization index (session.cc)
  struct RunState;           // RunProgress + operational state of one run
  struct CheckpointContext;  // checkpoint cadence/crash/halt hook state

  Session() = default;

  /// Runs the remaining mode updates (A, then B, then C) of the current
  /// iteration, continuing at `progress`'s cursor — mode
  /// `progress->mode_index`, column `progress->next_column` — and merging
  /// per-mode statistics into `progress->iter_stats`. A fresh iteration
  /// starts with a zero cursor; `ckpt` fires the checkpoint/crash/halt hook
  /// at every column boundary.
  Status UpdateFactorsAt(RunProgress* progress, const DbtfConfig& config,
                         FactorBroadcastState* bcast, CheckpointContext* ckpt);

  /// Snapshot of everything a resumed run needs (src/ckpt/), with the comm
  /// and recovery ledgers already attributed to the run (base + this
  /// process's delta), so they stay correct across chains of resumes.
  CheckpointState BuildCheckpoint(const CheckpointContext& ctx) const;

  /// Rehydrates a run from `ck`: its RunProgress and ledger bases into
  /// `state`, the RNG engine, the delta-broadcast shadows, the fault
  /// injector's delivery counters and dead set, partition coverage
  /// (uncharged, same deterministic placement as recovery), the workers'
  /// resident factor content, and the virtual clocks. Fails with
  /// kFailedPrecondition when the checkpoint's config/tensor fingerprints do
  /// not match.
  Status RestoreFromCheckpoint(CheckpointState ck, const DbtfConfig& config,
                               RunState* state, FactorBroadcastState* bcast,
                               Rng* rng);

  /// Recovery hook wired into every factor update: rebuilds the partitions
  /// lost with crashed machines from the session's tensor (lineage-style
  /// recomputation) and moves them onto survivors via
  /// ReprovisionLostPartitions. A no-op when coverage is intact.
  Status RecoverLostWorkers();

  /// Shared coverage rebuild of the recovery and restore paths: `charged`
  /// prices the reshipment (ReprovisionLostPartitions), restore does not
  /// (RestorePartitionCoverage) — the interrupted run already paid.
  Status RebuildCoverage(bool charged);

  const SparseTensor* tensor_ = nullptr;
  std::int64_t num_partitions_requested_ = 0;
  int num_machines_ = 0;

  std::unique_ptr<Cluster> cluster_;

  UnfoldShape shapes_[3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  std::int64_t nparts_[3] = {0, 0, 0};

  /// Lazily built fiber index for InitScheme::kFiberSample (rank-independent,
  /// so it is shared across every run of the session).
  std::unique_ptr<FiberIndex> fibers_;

  /// The one-off shuffle, re-attributed to every run's report.
  CommSnapshot shuffle_snapshot_;
  double shuffle_virtual_seconds_ = 0.0;
  double build_seconds_ = 0.0;

  /// Content identity of the tensor (dims + entries), computed once at
  /// Create: a checkpoint may only resume over the same tensor.
  std::uint64_t tensor_fingerprint_ = 0;
};

}  // namespace dbtf

#endif  // DBTF_DBTF_SESSION_H_
