#ifndef DBTF_DIST_PROVISION_H_
#define DBTF_DIST_PROVISION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "dbtf/partition.h"
#include "dist/messages.h"
#include "tensor/unfold.h"

namespace dbtf {

class Cluster;

/// Provisioning seam of the driver/worker runtime.
///
/// Driver code (session, factor update, engine callers) never names a Worker
/// member: it provisions endpoints and places partition data through these
/// free functions, then communicates exclusively via Cluster routing.
/// The analyzer's worker-include rule enforces the boundary: outside
/// src/dist/ only src/dbtf/engine.cc may include dist/worker.h.

/// Creates one worker endpoint per machine over the transport named in the
/// cluster config (in-process Workers, or one dbtf-worker OS process per
/// machine over local sockets) and attaches each as that machine's message
/// endpoint. On failure every already-attached worker is detached, leaving
/// the cluster idle. Fails if any machine already has an endpoint.
Status ProvisionWorkers(Cluster& cluster);

/// Moves `partition` (index `index` of the mode-`mode` unfolding, shape
/// `shape`) onto machine Cluster::OwnerOf(index), giving
/// the resident worker ownership. The driver keeps no partition data.
/// Fails if that machine has no attached endpoint.
Status StorePartition(Cluster& cluster, Mode mode, std::int64_t index,
                      Partition partition, const UnfoldShape& shape);

// --- Recovery ---------------------------------------------------------------

/// What one mode's partitioned unfolding is supposed to look like — the
/// driver-side metadata needed to detect and rebuild lost partitions.
struct ReprovisionSpec {
  Mode mode;
  UnfoldShape shape{0, 0, 0};
  std::int64_t num_partitions = 0;
};

/// Rebuilds every partition of the given mode's unfolding from driver-held
/// inputs (lineage-style recomputation: the session re-partitions the tensor
/// it was created over). Invoked at most once per mode per recovery, and
/// only when that mode actually lost partitions.
using UnfoldingRebuilder =
    std::function<Result<std::vector<Partition>>(Mode mode)>;

/// Restores full partition coverage after permanent machine loss: for each
/// spec, queries the surviving workers for the partitions still resident,
/// rebuilds the missing ones via `rebuild`, and moves each onto the first
/// surviving machine in ring order after its original owner. The reshipped
/// bytes are charged through Cluster::ChargeReprovision (CommStats shuffle +
/// recovery ledger). A no-op when nothing is missing. Fails with
/// kFailedPrecondition if no machine survives.
///
/// The rebuilt partitions carry no cache tables — the driver must re-send
/// its FactorDelta broadcast before the next dispatch (adopted partitions
/// get tables even when no operand changed), which is exactly what the
/// engine's recovery loop does.
Status ReprovisionLostPartitions(Cluster& cluster,
                                 const std::vector<ReprovisionSpec>& specs,
                                 const UnfoldingRebuilder& rebuild);

// --- Checkpoint restore -----------------------------------------------------
//
// Resuming from a snapshot (src/ckpt/) re-creates the worker-resident state
// the interrupted run had already built and paid for. These helpers do the
// same placement and rebuilding work as the recovery path above but charge
// nothing: the interrupted run's comm/recovery charges travel inside the
// checkpoint as already-attributed snapshots, and charging again would
// double-count them.

/// Restores full partition coverage after the snapshot's dead machines have
/// been re-marked dead (Cluster::RestoreDeadMachine): rebuilds the missing
/// partitions via `rebuild` and adopts each onto the first surviving machine
/// in ring order after its original owner — the same deterministic choice
/// ReprovisionLostPartitions makes, so a resumed run places partitions
/// exactly where the interrupted run had them.
Status RestorePartitionCoverage(Cluster& cluster,
                                const std::vector<ReprovisionSpec>& specs,
                                const UnfoldingRebuilder& rebuild);

/// Delivers `msg` — the rehydration message FactorBroadcastState::
/// RestoreMessage builds — to every attached worker directly: no routing, so
/// no ledger charges and no fault-injector counter advances. Each worker
/// re-learns the shipped factor content at its checkpointed generations and
/// rebuilds mode masks and Khatri-Rao cache tables for the cursor mode,
/// exactly as for a routed broadcast.
Status RestoreWorkerFactors(Cluster& cluster, const FactorDelta& msg);

}  // namespace dbtf

#endif  // DBTF_DIST_PROVISION_H_
