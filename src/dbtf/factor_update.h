#ifndef DBTF_DBTF_FACTOR_UPDATE_H_
#define DBTF_DBTF_FACTOR_UPDATE_H_

#include "common/status.h"
#include "dbtf/config.h"
#include "dbtf/engine.h"
#include "dbtf/partition.h"
#include "dist/cluster.h"
#include "tensor/bit_matrix.h"

namespace dbtf {

/// Updates `factor` (P x R) in place to greedily minimize
/// |X(n) - factor o (M_f kr M_s)^T|, given the partitioned unfolding of
/// X(n) (Algorithm 4 of the paper).
///
/// Legacy standalone entry point over a caller-owned PartitionedUnfolding:
/// it attaches one ephemeral worker per machine to `cluster` (over either
/// transport), stores on each a copy of the partitions the placement policy
/// assigns to it, runs RunFactorUpdate (dbtf/engine.h) over them, and
/// detaches. Semantics — decisions, ledger charges, determinism — are
/// identical to an update inside a Session, which is the preferred path
/// (partitions stay resident across updates there, and are moved rather
/// than copied in).
///
/// `cluster` must have no workers attached; a Session's cluster cannot be
/// used here while the session is alive.
Result<UpdateFactorStats> UpdateFactor(const PartitionedUnfolding& unfolding,
                                       BitMatrix* factor, const BitMatrix& mf,
                                       const BitMatrix& ms,
                                       const DbtfConfig& config,
                                       Cluster* cluster);

}  // namespace dbtf

#endif  // DBTF_DBTF_FACTOR_UPDATE_H_
