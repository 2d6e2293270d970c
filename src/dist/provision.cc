#include "dist/provision.h"

#include <memory>
#include <utility>
#include <vector>

#include "dist/cluster.h"
#include "dist/transport/transport.h"

namespace dbtf {

Status ProvisionWorkers(Cluster& cluster) {
  // The transport seam: everything above this call is transport-agnostic.
  const TransportOptions& options = cluster.config().transport;
  const int machines = cluster.num_machines();
  std::vector<std::shared_ptr<WorkerEndpoint>> endpoints;
  switch (options.kind) {
    case TransportKind::kInProcess:
      endpoints = StartInProcessEndpoints(machines);
      break;
    case TransportKind::kSocket: {
      DBTF_ASSIGN_OR_RETURN(endpoints,
                            StartSocketEndpoints(options, machines));
      break;
    }
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("unknown transport kind");
  }
  for (int m = 0; m < machines; ++m) {
    const Status attached =
        cluster.AttachEndpoint(m, endpoints[static_cast<std::size_t>(m)]);
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

StorePartitionRequest StoreRequest(Mode mode, std::int64_t index,
                                   Partition partition,
                                   const UnfoldShape& shape) {
  StorePartitionRequest msg;
  msg.mode = mode;
  msg.index = index;
  msg.shape = shape;
  msg.partition = std::move(partition);
  return msg;
}

}  // namespace

Status StorePartition(Cluster& cluster, Mode mode, std::int64_t index,
                      Partition partition, const UnfoldShape& shape) {
  DBTF_ASSIGN_OR_RETURN(std::shared_ptr<WorkerEndpoint> endpoint,
                        ResidentEndpoint(cluster, index));
  return endpoint->Store(
      StoreRequest(mode, index, std::move(partition), shape));
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

    // Residency is queried, not derived from Cluster::OwnerOf: after a
    // previous recovery a partition may live anywhere that survived.
    std::vector<bool> resident(static_cast<std::size_t>(spec.num_partitions),
                               false);
    for (int m = 0; m < machines; ++m) {
      std::shared_ptr<WorkerEndpoint> endpoint = cluster.EndpointOn(m);
      if (endpoint == nullptr) continue;
      Result<std::vector<std::int64_t>> queried =
          endpoint->ListPartitions(spec.mode);
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
      const StorePartitionRequest msg = StoreRequest(
          spec.mode, p, std::move(partitions[static_cast<std::size_t>(p)]),
          spec.shape);
      bool stored = false;
      for (int step = 1; step <= machines && !stored; ++step) {
        const int target_machine = (owner + step) % machines;
        std::shared_ptr<WorkerEndpoint> target =
            cluster.EndpointOn(target_machine);
        if (target == nullptr) continue;
        // The copy keeps the partition available for the next ring step
        // when this target's worker process turns out to be dead too.
        const Status status = target->Store(msg);
        if (status.ok()) {
          stored = true;
          if (charge) {
            cluster.ChargeReprovision(target_machine, msg.WireBytes());
          }
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

Status RestoreWorkerFactors(Cluster& cluster, const FactorDelta& msg) {
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
