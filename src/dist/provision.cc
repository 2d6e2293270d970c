#include "dist/provision.h"

#include <memory>
#include <utility>

#include "dist/cluster.h"
#include "dist/transport/transport.h"

namespace dbtf {

Status ProvisionWorkers(Cluster& cluster) {
  // The transport seam: everything above this call is transport-agnostic.
  // The transport object itself need not outlive provisioning — endpoints
  // carry whatever shared state (socket directory, worker binary) they need.
  const TransportOptions& options = cluster.config().transport;
  std::shared_ptr<Transport> transport;
  switch (options.kind) {
    case TransportKind::kInProcess:
      transport = CreateInProcessTransport();
      break;
    case TransportKind::kSocket: {
      Result<std::shared_ptr<Transport>> created =
          CreateSocketTransport(options, cluster.num_machines());
      if (!created.ok()) return created.status();
      transport = *std::move(created);
      break;
    }
  }
  if (transport == nullptr) {
    return Status::InvalidArgument("unknown transport kind");
  }
  for (int m = 0; m < cluster.num_machines(); ++m) {
    Result<std::shared_ptr<WorkerEndpoint>> endpoint =
        transport->StartEndpoint(m);
    Status attached = endpoint.ok() ? cluster.AttachEndpoint(m, *endpoint)
                                    : endpoint.status();
    if (!attached.ok()) {
      cluster.DetachWorkers();
      return attached;
    }
  }
  return Status::OK();
}

namespace {

Result<std::shared_ptr<WorkerEndpoint>> ResidentEndpoint(Cluster& cluster,
                                                         std::int64_t index) {
  const int owner = cluster.OwnerOf(index);
  std::shared_ptr<WorkerEndpoint> endpoint = cluster.EndpointOn(owner);
  if (endpoint == nullptr) {
    return Status::FailedPrecondition(
        "no worker endpoint attached to the partition's machine");
  }
  return endpoint;
}

/// Packed bytes of one partition's block rows — what re-shipping it costs on
/// the wire (the same per-block accounting as Worker::LocalPartitionBytes).
std::int64_t PartitionPackedBytes(const Partition& partition) {
  std::int64_t bytes = 0;
  for (const PartitionBlock& block : partition.blocks) {
    bytes += block.rows.rows() * block.rows.words_per_row() *
             static_cast<std::int64_t>(sizeof(BitWord));
  }
  return bytes;
}

/// Ships one partition to `endpoint` as a typed store message.
Status StoreOnEndpoint(WorkerEndpoint& endpoint, Mode mode,
                       std::int64_t index, Partition partition,
                       const UnfoldShape& shape) {
  StorePartitionRequest msg;
  msg.mode = mode;
  msg.index = index;
  msg.shape = shape;
  msg.partition = std::move(partition);
  return endpoint.Store(std::move(msg), nullptr);
}

}  // namespace

Status StorePartition(Cluster& cluster, Mode mode, std::int64_t index,
                      Partition partition, const UnfoldShape& shape) {
  DBTF_ASSIGN_OR_RETURN(std::shared_ptr<WorkerEndpoint> endpoint,
                        ResidentEndpoint(cluster, index));
  return StoreOnEndpoint(*endpoint, mode, index, std::move(partition), shape);
}

namespace {

/// Shared core of ReprovisionLostPartitions (charge = true) and
/// RestorePartitionCoverage (charge = false): identical residency query,
/// rebuilding, and ring-order placement; only the ledger charging differs.
Status RestoreCoverageCore(Cluster& cluster,
                           const std::vector<ReprovisionSpec>& specs,
                           const UnfoldingRebuilder& rebuild, bool charge) {
  const int machines = cluster.num_machines();
  for (const ReprovisionSpec& spec : specs) {
    if (spec.num_partitions <= 0) continue;

    // Residency is queried, not derived from the placement policy: after a
    // previous recovery a partition may live anywhere that survived.
    std::vector<bool> resident(static_cast<std::size_t>(spec.num_partitions),
                               false);
    for (int m = 0; m < machines; ++m) {
      std::shared_ptr<WorkerEndpoint> endpoint = cluster.EndpointOn(m);
      if (endpoint == nullptr) continue;
      Result<std::vector<std::int64_t>> queried =
          endpoint->ListPartitions(spec.mode, nullptr);
      if (!queried.ok()) {
        // kIoError means the worker process died since it was attached
        // (e.g. SIGKILLed while a checkpointed run was down). Treat it like
        // a crashed machine discovered during restore: detach it, count its
        // partitions as lost, and rebuild them onto survivors below. The
        // loss is uncharged here — routed deliveries are where losses are
        // priced, and a restore re-creates state the interrupted run
        // already paid for.
        if (queried.status().code() != StatusCode::kIoError) {
          return queried.status();
        }
        cluster.RestoreDeadMachine(m);
        continue;
      }
      const std::vector<std::int64_t> local = *std::move(queried);
      for (const std::int64_t p : local) {
        if (p >= 0 && p < spec.num_partitions) {
          resident[static_cast<std::size_t>(p)] = true;
        }
      }
    }
    std::vector<std::int64_t> missing;
    for (std::int64_t p = 0; p < spec.num_partitions; ++p) {
      if (!resident[static_cast<std::size_t>(p)]) missing.push_back(p);
    }
    if (missing.empty()) continue;

    // Lineage-style recomputation: rebuild the whole unfolding from the
    // driver-held input, then keep only the lost slices.
    DBTF_ASSIGN_OR_RETURN(std::vector<Partition> partitions,
                          rebuild(spec.mode));
    if (static_cast<std::int64_t>(partitions.size()) != spec.num_partitions) {
      return Status::Internal(
          "unfolding rebuilder produced a different partition count");
    }
    for (const std::int64_t p : missing) {
      // First surviving machine in ring order after the original owner —
      // deterministic, and it spreads adopted partitions across survivors.
      const int owner = cluster.OwnerOf(p);
      const Partition& partition = partitions[static_cast<std::size_t>(p)];
      const std::int64_t bytes = PartitionPackedBytes(partition);
      bool stored = false;
      for (int step = 1; step <= machines && !stored; ++step) {
        const int target_machine = (owner + step) % machines;
        std::shared_ptr<WorkerEndpoint> target =
            cluster.EndpointOn(target_machine);
        if (target == nullptr) continue;
        // The copy keeps the partition available for the next ring step
        // when this target's worker process turns out to be dead too.
        const Status status =
            StoreOnEndpoint(*target, spec.mode, p, partition, spec.shape);
        if (status.ok()) {
          stored = true;
          if (charge) cluster.ChargeReprovision(target_machine, bytes);
        } else if (status.code() == StatusCode::kIoError) {
          cluster.RestoreDeadMachine(target_machine);
        } else {
          return status;
        }
      }
      if (!stored) {
        return Status::FailedPrecondition(
            "no surviving machine to adopt the lost partitions");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status ReprovisionLostPartitions(Cluster& cluster,
                                 const std::vector<ReprovisionSpec>& specs,
                                 const UnfoldingRebuilder& rebuild) {
  return RestoreCoverageCore(cluster, specs, rebuild, /*charge=*/true);
}

Status RestorePartitionCoverage(Cluster& cluster,
                                const std::vector<ReprovisionSpec>& specs,
                                const UnfoldingRebuilder& rebuild) {
  // The interrupted run already charged these re-provisions; the checkpoint
  // carries them in its comm/recovery snapshots.
  return RestoreCoverageCore(cluster, specs, rebuild, /*charge=*/false);
}

Status RestoreWorkerFactors(Cluster& cluster,
                            const WorkerFactorRestore& restore) {
  FactorDelta msg;
  msg.mode = restore.mode;
  msg.rows = restore.rows;
  msg.mf_slot = restore.mf_slot;
  msg.ms_slot = restore.ms_slot;
  msg.cache_group_size = restore.cache_group_size;
  msg.enable_caching = restore.enable_caching;
  for (const FactorSlotRestore& slot : restore.slots) {
    if (slot.content == nullptr) {
      return Status::InvalidArgument(
          "factor slot restore carries no content");
    }
    MatrixDelta d;
    d.slot = slot.slot;
    d.generation = slot.generation;
    d.full = true;
    d.dense = *slot.content;
    d.rows = slot.content->rows();
    d.cols = slot.content->cols();
    msg.updates.push_back(std::move(d));
  }
  // Direct per-endpoint delivery, bypassing Cluster routing on purpose:
  // rehydration re-creates state the interrupted run already shipped and
  // charged, so neither the comm ledger nor the fault injector's delivery
  // counters may advance here.
  for (int m = 0; m < cluster.num_machines(); ++m) {
    std::shared_ptr<WorkerEndpoint> endpoint = cluster.EndpointOn(m);
    if (endpoint == nullptr) continue;
    const Status status = endpoint->Deliver(msg, nullptr);
    if (status.ok()) continue;
    // A dead worker process (kIoError) is detached, same as in the coverage
    // rebuild above; its replacement partitions live on survivors that did
    // receive the factors.
    if (status.code() != StatusCode::kIoError) return status;
    cluster.RestoreDeadMachine(m);
  }
  return Status::OK();
}

}  // namespace dbtf
