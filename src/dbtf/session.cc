#include "dbtf/session.h"

#include <algorithm>
#include <csignal>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/kernels/kernels.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/timer.h"
#include "dbtf/engine.h"
#include "dbtf/partition.h"
#include "dist/provision.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace {

/// Slot convention of the session: A = 0, B = 1, C = 2 (FactorRoles doc),
/// with the mode-n unfolding approximated as
///   X(1) ~ A o (C kr B)^T,  X(2) ~ B o (C kr A)^T,  X(3) ~ C o (B kr A)^T.
/// Shared by the update loop and the checkpoint-restore worker rehydration,
/// which must name exactly the roles the interrupted update had broadcast.
struct ModeRoles {
  Mode mode;
  int shape_slot;
  FactorRoles roles;
};

constexpr ModeRoles kModeRoles[3] = {
    {Mode::kOne, 0, {0, 2, 1}},
    {Mode::kTwo, 1, {1, 2, 0}},
    {Mode::kThree, 2, {2, 1, 0}},
};

/// Fingerprint of every configuration field that binds the deterministic
/// trajectory of a run: a checkpoint may only resume under a configuration
/// that reproduces the interrupted run's decisions, virtual time, and fault
/// schedule. Operational fields (checkpoint cadence/retention, resume and
/// crash/halt drills, wall-clock budget, thread count) are deliberately
/// excluded — they may differ between the interrupted and the resumed run.
std::uint64_t FingerprintConfig(const DbtfConfig& config) {
  ByteWriter w;
  w.WriteI64(config.rank);
  w.WriteI64(config.max_iterations);
  w.WriteI64(config.num_initial_sets);
  w.WriteI64(config.num_partitions);
  w.WriteI64(config.cache_group_size);
  w.WriteU8(static_cast<std::uint8_t>(config.init_scheme));
  w.WriteDouble(config.init_density);
  w.WriteU64(config.seed);
  w.WriteI64(config.convergence_epsilon);
  w.WriteU8(config.enable_caching ? 1 : 0);
  w.WriteU8(config.enable_delta_broadcast ? 1 : 0);
  w.WriteI64(config.cluster.num_machines);
  w.WriteDouble(config.cluster.network_latency_seconds);
  w.WriteDouble(config.cluster.network_bandwidth_bytes_per_second);
  w.WriteDouble(config.cluster.driver_seconds_per_byte);
  w.WriteString(config.cluster.fault_plan.ToString());
  w.WriteI64(config.cluster.retry.max_attempts);
  w.WriteDouble(config.cluster.retry.backoff_seconds);
  w.WriteDouble(config.cluster.retry.backoff_multiplier);
  w.WriteDouble(config.cluster.retry.message_deadline_seconds);
  // config.cluster.transport is deliberately absent: the transport is an
  // operational choice with no effect on results, so a checkpoint written
  // under --transport=inproc must resume under --transport=socket (and vice
  // versa) without tripping the fingerprint check. config.kernel_backend is
  // absent for the same reason: every backend produces bitwise-identical
  // results (tests/kernels_test.cc proves it), so a checkpoint written under
  // --kernel=portable resumes under --kernel=avx512 and vice versa.
  return Fnv1a64(w.bytes().data(), w.size());
}

}  // namespace

/// Fiber indexes of the tensor, used by the kFiberSample initialization.
struct Session::FiberIndex {
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> mode1;  // (j,k)
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> mode2;  // (i,k)
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> mode3;  // (i,j)

  static std::uint64_t Pack(std::uint64_t a, std::uint64_t b) {
    return (a << 32) | b;
  }

  explicit FiberIndex(const SparseTensor& x) {
    for (const Coord& c : x.entries()) {
      mode1[Pack(c.j, c.k)].push_back(c.i);
      mode2[Pack(c.i, c.k)].push_back(c.j);
      mode3[Pack(c.i, c.j)].push_back(c.k);
    }
  }

  /// Seeds one factor set: component r gets the three fibers through a
  /// random non-zero cell as its initial columns.
  FactorSet Sample(const SparseTensor& x, std::int64_t rank, Rng* rng) const;
};

/// One Factorize run: the checkpointed RunProgress (ckpt/checkpoint.h) plus
/// the operational state a snapshot deliberately leaves out.
struct Session::RunState {
  RunProgress progress;
  bool current_ready = false;  ///< iteration 1: candidate already sampled
  int resumed_from_iteration = 0;

  /// Ledger attribution bases: what the run had already moved or lost
  /// before this process started counting — the session's one-off shuffle
  /// on a fresh run, the checkpoint's run-attributed snapshots on a resumed
  /// one (recursively correct across chains of resumes).
  CommSnapshot base_comm;
  RecoveryStats base_recovery;
};

/// Checkpoint/crash/halt hook state of one run, fired at every column
/// boundary by the engine's ColumnCompletedFn.
struct Session::CheckpointContext {
  Session* session = nullptr;
  const DbtfConfig* config = nullptr;
  const CheckpointStore* store = nullptr;  ///< null: durable snapshots off
  RunState* state = nullptr;
  const FactorBroadcastState* bcast = nullptr;
  const Rng* rng = nullptr;
  std::uint64_t config_fingerprint = 0;
  CommSnapshot ledger_start;
  RecoveryStats recovery_start;

  /// Whether the per-column hook needs to run at all; when false the engine
  /// is invoked without a hook and behaves exactly as before checkpointing
  /// existed.
  bool Active() const {
    return store != nullptr || config->crash_after_columns > 0 ||
           config->halt_after_columns > 0;
  }

  Status OnColumnCompleted();
};

Status Session::CheckpointContext::OnColumnCompleted() {
  if (store != nullptr) {
    const std::int64_t every = config->checkpoint_every_columns > 0
                                   ? config->checkpoint_every_columns
                                   : config->rank;
    RunProgress& p = state->progress;
    if (p.columns_done % every == 0) {
      // The snapshot records its own write, so a resumed run continues the
      // interrupted run's cumulative count.
      ++p.checkpoints_written;
      DBTF_ASSIGN_OR_RETURN(const std::int64_t sequence,
                            store->Write(session->BuildCheckpoint(*this)));
      DBTF_LOG(kDebug, "checkpoint ckpt-%lld written at column %lld",
               static_cast<long long>(sequence),
               static_cast<long long>(p.columns_done));
    }
  }
  // Drill order matters: any due snapshot above is durable (fsynced and
  // published) before the kill, which is exactly what the kill-and-resume
  // smoke test relies on.
  const std::int64_t columns_done = state->progress.columns_done;
  if (config->crash_after_columns > 0 &&
      columns_done >= config->crash_after_columns) {
    (void)std::raise(SIGKILL);
  }
  if (config->halt_after_columns > 0 &&
      columns_done >= config->halt_after_columns) {
    return Status::ResourceExhausted("halted by halt_after_columns");
  }
  return Status::OK();
}

FactorSet Session::FiberIndex::Sample(const SparseTensor& x,
                                      std::int64_t rank, Rng* rng) const {
  FactorSet set;
  set.a = BitMatrix(x.dim_i(), rank);
  set.b = BitMatrix(x.dim_j(), rank);
  set.c = BitMatrix(x.dim_k(), rank);
  const std::vector<Coord>& entries = x.entries();
  if (entries.empty()) return set;
  for (std::int64_t r = 0; r < rank; ++r) {
    const Coord& seed = entries[static_cast<std::size_t>(
        rng->NextBounded(entries.size()))];
    for (const std::uint32_t i : mode1.at(Pack(seed.j, seed.k))) {
      set.a.Set(i, r, true);
    }
    for (const std::uint32_t j : mode2.at(Pack(seed.i, seed.k))) {
      set.b.Set(j, r, true);
    }
    for (const std::uint32_t k : mode3.at(Pack(seed.i, seed.j))) {
      set.c.Set(k, r, true);
    }
  }
  return set;
}

Result<std::unique_ptr<Session>> Session::Create(const SparseTensor& x,
                                                 const DbtfConfig& config) {
  DBTF_RETURN_IF_ERROR(config.Validate());
  if (x.dim_i() < 1 || x.dim_j() < 1 || x.dim_k() < 1) {
    return Status::InvalidArgument("tensor dimensions must be positive");
  }

  Timer build;
  std::unique_ptr<Session> session(new Session());
  session->tensor_ = &x;
  session->num_partitions_requested_ = config.num_partitions;
  session->num_machines_ = config.cluster.num_machines;
  DBTF_ASSIGN_OR_RETURN(session->cluster_, Cluster::Create(config.cluster));
  Cluster* cluster = session->cluster_.get();

  // Content identity for checkpoint resume: the dims plus every (sorted,
  // deduplicated) entry. Computed once — Factorize compares it against the
  // fingerprint stored in a snapshot before restoring anything.
  {
    ByteWriter w;
    w.WriteI64(x.dim_i());
    w.WriteI64(x.dim_j());
    w.WriteI64(x.dim_k());
    for (const Coord& c : x.entries()) {
      w.WriteU32(c.i);
      w.WriteU32(c.j);
      w.WriteU32(c.k);
    }
    session->tensor_fingerprint_ = Fnv1a64(w.bytes().data(), w.size());
  }

  // One cluster-owned worker endpoint per machine; each ends up owning the
  // partitions Cluster::OwnerOf assigns to it.
  DBTF_RETURN_IF_ERROR(ProvisionWorkers(*cluster));

  // One-off partitioning of the three unfoldings (Algorithm 3). A real
  // cluster shuffles every non-zero of each unfolding once (Lemma 6). The
  // driver builds the partitions, moves them onto the owning machines, and
  // keeps no partition data itself.
  for (const Mode mode : {Mode::kOne, Mode::kTwo, Mode::kThree}) {
    DBTF_ASSIGN_OR_RETURN(
        PartitionedUnfolding unfolding,
        PartitionedUnfolding::Build(x, mode, config.num_partitions));
    const std::size_t slot = static_cast<std::size_t>(mode) - 1;
    session->shapes_[slot] = unfolding.shape();
    session->nparts_[slot] = unfolding.num_partitions();
    std::vector<Partition> partitions =
        std::move(unfolding).ReleasePartitions();
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      DBTF_RETURN_IF_ERROR(StorePartition(
          *cluster, mode, static_cast<std::int64_t>(p),
          std::move(partitions[p]), session->shapes_[slot]));
    }
  }
  cluster->ChargeShuffle(3 * x.NumNonZeros() *
                         static_cast<std::int64_t>(3 * sizeof(std::uint32_t)));

  // Remember the shuffle so every run can report it (and its virtual time)
  // even though the cluster ledger records it only once.
  session->shuffle_snapshot_ = cluster->comm().Snapshot();
  session->shuffle_virtual_seconds_ = cluster->VirtualMakespanSeconds();
  session->build_seconds_ = build.ElapsedSeconds();
  return session;
}

Session::~Session() {
  if (cluster_ != nullptr) cluster_->DetachWorkers();
}

Status Session::RecoverLostWorkers() { return RebuildCoverage(true); }

Status Session::RebuildCoverage(bool charged) {
  std::vector<ReprovisionSpec> specs;
  for (const Mode mode : {Mode::kOne, Mode::kTwo, Mode::kThree}) {
    const std::size_t slot = static_cast<std::size_t>(mode) - 1;
    ReprovisionSpec spec;
    spec.mode = mode;
    spec.shape = shapes_[slot];
    spec.num_partitions = nparts_[slot];
    specs.push_back(spec);
  }
  const UnfoldingRebuilder rebuild =
      [this](Mode mode) -> Result<std::vector<Partition>> {
    DBTF_ASSIGN_OR_RETURN(
        PartitionedUnfolding unfolding,
        PartitionedUnfolding::Build(*tensor_, mode,
                                    num_partitions_requested_));
    return std::move(unfolding).ReleasePartitions();
  };
  return charged ? ReprovisionLostPartitions(*cluster_, specs, rebuild)
                 : RestorePartitionCoverage(*cluster_, specs, rebuild);
}

Status Session::UpdateFactorsAt(RunProgress* p, const DbtfConfig& config,
                                FactorBroadcastState* bcast,
                                CheckpointContext* ckpt) {
  const RecoverWorkersFn recover = [this]() { return RecoverLostWorkers(); };
  // Operand selection per mode, matching kModeRoles' slot convention. The
  // factor under update never ships; the two Khatri-Rao operands ship as
  // deltas against the content the workers kept from the previous update.
  struct ModeOperands {
    BitMatrix FactorSet::*factor;
    BitMatrix FactorSet::*mf;
    BitMatrix FactorSet::*ms;
  };
  static constexpr ModeOperands kOperands[3] = {
      {&FactorSet::a, &FactorSet::c, &FactorSet::b},
      {&FactorSet::b, &FactorSet::c, &FactorSet::a},
      {&FactorSet::c, &FactorSet::b, &FactorSet::a},
  };
  const bool hooked = ckpt != nullptr && ckpt->Active();
  for (; p->mode_index < 3; ++p->mode_index) {
    const std::size_t m = static_cast<std::size_t>(p->mode_index);
    FactorSet& f = p->current;
    UpdateFactorStats stats;
    if (p->next_column == config.rank) {
      // The interrupted run snapshotted right after this mode's last
      // column: the factor content and the carried statistics are final —
      // finalize without an engine call (and without any ledger charge).
      stats = p->update_stats;
    } else {
      FactorUpdateResume resume_storage;
      const FactorUpdateResume* resume = nullptr;
      if (p->next_column > 0) {
        resume_storage.start_column = p->next_column;
        resume_storage.carried = p->update_stats;
        resume = &resume_storage;
      }
      ColumnCompletedFn on_column;
      if (hooked) {
        on_column = [p, ckpt](std::int64_t column,
                              const UpdateFactorStats& so_far) -> Status {
          p->update_stats = so_far;
          p->next_column = column + 1;
          ++p->columns_done;
          return ckpt->OnColumnCompleted();
        };
      }
      DBTF_ASSIGN_OR_RETURN(
          stats,
          RunFactorUpdate(cluster_.get(), kModeRoles[m].mode,
                          shapes_[kModeRoles[m].shape_slot],
                          &(f.*kOperands[m].factor), f.*kOperands[m].mf,
                          f.*kOperands[m].ms, config, recover,
                          kModeRoles[m].roles, bcast, on_column, resume));
    }
    p->iter_stats.cells_changed += stats.cells_changed;
    p->iter_stats.cache_entries += stats.cache_entries;
    p->iter_stats.cache_bytes += stats.cache_bytes;
    if (p->mode_index == 2) p->iter_stats.error = stats.final_error;
    p->update_stats = UpdateFactorStats{};
    p->next_column = 0;
  }
  p->mode_index = 0;
  return Status::OK();
}

CheckpointState Session::BuildCheckpoint(const CheckpointContext& ctx) const {
  const RunState& s = *ctx.state;
  CheckpointState ck;
  ck.config_fingerprint = ctx.config_fingerprint;
  ck.tensor_fingerprint = tensor_fingerprint_;
  ck.progress = s.progress;
  ck.rng_state = ctx.rng->State();
  ck.shadows = ctx.bcast->shadows();
  ck.comm =
      cluster_->comm().Snapshot().Since(ctx.ledger_start).Plus(s.base_comm);
  ck.recovery = cluster_->recovery()
                    .Snapshot()
                    .Since(ctx.recovery_start)
                    .Plus(s.base_recovery);
  ck.fault_delivery_counters = cluster_->FaultDeliveryCounters();
  ck.dead_machines = cluster_->DeadMachines();
  ck.machine_seconds.reserve(static_cast<std::size_t>(num_machines_));
  for (int m = 0; m < num_machines_; ++m) {
    ck.machine_seconds.push_back(cluster_->MachineComputeSeconds(m));
  }
  ck.driver_seconds = cluster_->DriverSeconds();
  return ck;
}

Status Session::RestoreFromCheckpoint(CheckpointState ck,
                                      const DbtfConfig& config,
                                      RunState* state,
                                      FactorBroadcastState* bcast, Rng* rng) {
  if (ck.config_fingerprint != FingerprintConfig(config)) {
    return Status::FailedPrecondition(
        "checkpoint was written by a different configuration");
  }
  if (ck.tensor_fingerprint != tensor_fingerprint_) {
    return Status::FailedPrecondition(
        "checkpoint was written over a different tensor");
  }
  // Checkpoints fire only at column boundaries, so a valid cursor has
  // next_column in [1, rank] (== rank: finalize the mode without an engine
  // call, see UpdateFactorsAt).
  const RunProgress& p = ck.progress;
  if (p.iteration < 1 || p.set_index < 0 ||
      p.set_index >= config.num_initial_sets || p.mode_index < 0 ||
      p.mode_index > 2 || p.next_column < 1 || p.next_column > config.rank) {
    return Status::FailedPrecondition("checkpoint cursor is out of range");
  }
  const ModeRoles& cursor = kModeRoles[static_cast<std::size_t>(p.mode_index)];

  state->progress = std::move(ck.progress);
  state->current_ready = true;
  state->resumed_from_iteration = static_cast<int>(state->progress.iteration);
  state->base_comm = ck.comm;
  state->base_recovery = ck.recovery;

  rng->RestoreState(ck.rng_state);

  // Delta-broadcast shadows: every committed slot comes back, including the
  // one the cursor mode does not reference — the next mode's delta plans
  // against that slot's checkpointed generation.
  bcast->RestoreShadows(std::move(ck.shadows));

  // Cluster: replay the fault schedule position, re-mark the dead machines
  // (uncharged — the checkpoint's RecoveryStats already record the losses),
  // restore partition coverage onto the same survivors the interrupted run
  // chose, and rehydrate the workers' resident factor content at the cursor
  // mode's roles.
  DBTF_RETURN_IF_ERROR(
      cluster_->RestoreFaultDeliveryState(ck.fault_delivery_counters));
  for (const int machine : ck.dead_machines) {
    cluster_->RestoreDeadMachine(machine);
  }
  DBTF_RETURN_IF_ERROR(RebuildCoverage(false));
  DBTF_RETURN_IF_ERROR(RestoreWorkerFactors(
      *cluster_,
      bcast->RestoreMessage(cursor.roles, cursor.mode,
                            shapes_[cursor.shape_slot].rows, config)));

  return cluster_->RestoreVirtualClocks(ck.machine_seconds,
                                        ck.driver_seconds);
}

Result<DbtfResult> Session::Factorize(const DbtfConfig& config) {
  DBTF_RETURN_IF_ERROR(config.Validate());
  // Select the Boolean kernel backend before any packed-bit work. Fails the
  // run up front when a specific backend is not compiled in or the CPU
  // lacks it; kAuto always succeeds.
  DBTF_RETURN_IF_ERROR(SetKernelBackend(config.kernel_backend));
  if (config.num_partitions != num_partitions_requested_) {
    return Status::InvalidArgument(
        "session was partitioned for a different num_partitions");
  }
  if (config.cluster.num_machines != num_machines_) {
    return Status::InvalidArgument(
        "session cluster has a different machine count");
  }

  Timer run;
  // A run's budget and clocks cover the whole factorization it reports,
  // including its share of the session build.
  const auto expired = [&]() {
    return config.time_budget_seconds > 0.0 &&
           build_seconds_ + run.ElapsedSeconds() > config.time_budget_seconds;
  };

  // Open the checkpoint store up front so an unusable directory fails the
  // run before any compute.
  std::unique_ptr<CheckpointStore> store;
  if (!config.checkpoint_dir.empty()) {
    DBTF_ASSIGN_OR_RETURN(
        CheckpointStore opened,
        CheckpointStore::Open(config.checkpoint_dir,
                              config.checkpoint_retention));
    store = std::make_unique<CheckpointStore>(std::move(opened));
  }

  Rng rng(config.seed);
  // Delta-broadcast shadows are per run, not per session: a fresh run must
  // report the same ledger a fresh session would (its first update ships
  // full operands), so multi-run reuse stays byte-comparable to one-shot
  // wrappers. Workers may still skip redundant *applies* across runs thanks
  // to the globally unique generations, but the wire ledger is per run.
  FactorBroadcastState bcast(config.enable_delta_broadcast);
  RunState state;

  cluster_->ResetVirtualTime();
  if (config.resume) {
    DBTF_ASSIGN_OR_RETURN(CheckpointState ck, store->LoadNewestValid());
    DBTF_RETURN_IF_ERROR(
        RestoreFromCheckpoint(std::move(ck), config, &state, &bcast, &rng));
    DBTF_LOG(kInfo,
             "resumed from checkpoint: iteration %lld, mode %lld, column %lld",
             static_cast<long long>(state.progress.iteration),
             static_cast<long long>(state.progress.mode_index),
             static_cast<long long>(state.progress.next_column));
  } else {
    for (int m = 0; m < num_machines_; ++m) {
      cluster_->ChargeCompute(m, shuffle_virtual_seconds_);
    }
    state.base_comm = shuffle_snapshot_;
  }
  const CommSnapshot ledger_start = cluster_->comm().Snapshot();
  const RecoveryStats recovery_start = cluster_->recovery().Snapshot();

  CheckpointContext ckpt;
  ckpt.session = this;
  ckpt.config = &config;
  ckpt.store = store.get();
  ckpt.state = &state;
  ckpt.bcast = &bcast;
  ckpt.rng = &rng;
  ckpt.config_fingerprint = FingerprintConfig(config);
  ckpt.ledger_start = ledger_start;
  ckpt.recovery_start = recovery_start;

  DbtfResult result;
  RunProgress& p = state.progress;
  // Folds the finished iteration's statistics into the run accumulators.
  const auto finish_iteration = [&p]() {
    const IterationStats stats = std::exchange(p.iter_stats, IterationStats{});
    p.cells_changed += stats.cells_changed;
    p.cache_entries = std::max(p.cache_entries, stats.cache_entries);
    p.cache_bytes = std::max(p.cache_bytes, stats.cache_bytes);
    return stats.error;
  };

  // Iteration 1: update all L initial sets, keep the best (Alg. 2).
  if (config.init_scheme == InitScheme::kFiberSample &&
      tensor_->NumNonZeros() > 0 && fibers_ == nullptr) {
    fibers_ = std::make_unique<FiberIndex>(*tensor_);
  }
  const bool fiber_init =
      config.init_scheme == InitScheme::kFiberSample && fibers_ != nullptr;
  if (p.iteration == 1) {
    for (; p.set_index < config.num_initial_sets; ++p.set_index) {
      if (p.set_index > 0 && expired()) {
        return Status::DeadlineExceeded("DBTF: initial factor sets");
      }
      if (!state.current_ready) {
        if (fiber_init) {
          p.current = fibers_->Sample(*tensor_, config.rank, &rng);
        } else {
          p.current.a = BitMatrix::Random(tensor_->dim_i(), config.rank,
                                          config.init_density, &rng);
          p.current.b = BitMatrix::Random(tensor_->dim_j(), config.rank,
                                          config.init_density, &rng);
          p.current.c = BitMatrix::Random(tensor_->dim_k(), config.rank,
                                          config.init_density, &rng);
        }
        state.current_ready = true;
      }
      DBTF_RETURN_IF_ERROR(UpdateFactorsAt(&p, config, &bcast, &ckpt));
      const std::int64_t error = finish_iteration();
      if (p.best_error < 0 || error < p.best_error) {
        p.best_error = error;
        p.best = std::move(p.current);
      }
      state.current_ready = false;
    }
    p.iteration_errors.push_back(p.best_error);
    // Iterations >= 2 refine the winning set; `best` is consumed here and
    // left empty, so no later snapshot carries a best set.
    p.current = std::exchange(p.best, FactorSet{});
    state.current_ready = true;
    p.best_error = -1;
    p.iteration = 2;
    p.set_index = 0;
  }

  // Iterations 2..T on the winning set, until convergence.
  for (; p.iteration <= config.max_iterations; ++p.iteration) {
    if (expired()) {
      return Status::DeadlineExceeded("DBTF: iterations");
    }
    DBTF_RETURN_IF_ERROR(UpdateFactorsAt(&p, config, &bcast, &ckpt));
    const std::int64_t error = finish_iteration();
    const std::int64_t previous = p.iteration_errors.back();
    p.iteration_errors.push_back(error);
    if (previous - error <= config.convergence_epsilon) {
      result.converged = true;
      break;
    }
  }

  result.a = std::move(p.current.a);
  result.b = std::move(p.current.b);
  result.c = std::move(p.current.c);
  result.iteration_errors = std::move(p.iteration_errors);
  result.final_error = result.iteration_errors.back();
  result.iterations_run = static_cast<int>(result.iteration_errors.size());
  result.cells_changed = p.cells_changed;
  result.cache_entries = p.cache_entries;
  result.cache_bytes = p.cache_bytes;
  result.checkpoints_written = p.checkpoints_written;
  result.resumed_from_iteration = state.resumed_from_iteration;
  // This run's traffic plus what the run had already moved before this
  // process — the session's one-off shuffle on a fresh run, the checkpoint's
  // run-attributed snapshot on a resumed one. A session used for a single
  // run reports exactly what the monolithic driver did.
  result.comm =
      cluster_->comm().Snapshot().Since(ledger_start).Plus(state.base_comm);
  result.recovery = cluster_->recovery()
                        .Snapshot()
                        .Since(recovery_start)
                        .Plus(state.base_recovery);
  result.wall_seconds = build_seconds_ + run.ElapsedSeconds();
  result.virtual_seconds = cluster_->VirtualMakespanSeconds();
  result.driver_seconds = cluster_->DriverSeconds();
  result.machine_seconds = result.virtual_seconds - result.driver_seconds;
  result.partitions_used = nparts_[0];
  result.kernel_backend = KernelBackendName(ActiveKernelBackend());
  return result;
}

}  // namespace dbtf
