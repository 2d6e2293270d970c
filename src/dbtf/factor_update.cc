#include "dbtf/factor_update.h"

#include <vector>

#include "dist/provision.h"

namespace dbtf {

Result<UpdateFactorStats> UpdateFactor(const PartitionedUnfolding& unfolding,
                                       BitMatrix* factor, const BitMatrix& mf,
                                       const BitMatrix& ms,
                                       const DbtfConfig& config,
                                       Cluster* cluster) {
  if (cluster->num_attached_workers() != 0) {
    return Status::FailedPrecondition(
        "UpdateFactor needs an idle cluster; workers are already attached");
  }

  // Ephemeral cluster-owned workers, each storing a copy of the caller's
  // partitions placed exactly as a session would place them.
  DBTF_RETURN_IF_ERROR(ProvisionWorkers(*cluster));
  const std::vector<Partition>& partitions = unfolding.partitions();
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const Status stored = StorePartition(
        *cluster, unfolding.mode(), static_cast<std::int64_t>(p),
        partitions[p], unfolding.shape());
    if (!stored.ok()) {
      cluster->DetachWorkers();
      return stored;
    }
  }

  Result<UpdateFactorStats> result = RunFactorUpdate(
      cluster, unfolding.mode(), unfolding.shape(), factor, mf, ms, config);
  cluster->DetachWorkers();
  return result;
}

}  // namespace dbtf
