#include "dbtf/dbtf.h"

#include <memory>

#include "common/rank.h"
#include "dbtf/session.h"

namespace dbtf {

Status DbtfConfig::Validate() const {
  DBTF_RETURN_IF_ERROR(ValidateRank(rank, "rank"));
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (num_initial_sets < 1) {
    return Status::InvalidArgument("num_initial_sets must be >= 1");
  }
  if (num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (cache_group_size < 1 || cache_group_size > 24) {
    return Status::InvalidArgument("cache_group_size V must be in [1, 24]");
  }
  if (init_density < 0.0 || init_density > 1.0) {
    return Status::InvalidArgument("init_density must be in [0, 1]");
  }
  if (convergence_epsilon < 0) {
    return Status::InvalidArgument("convergence_epsilon must be >= 0");
  }
  if (time_budget_seconds < 0.0) {
    return Status::InvalidArgument("time budget must be >= 0");
  }
  if (checkpoint_every_columns < 0) {
    return Status::InvalidArgument("checkpoint_every_columns must be >= 0");
  }
  if (checkpoint_retention < 1) {
    return Status::InvalidArgument("checkpoint_retention must be >= 1");
  }
  if (resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument("resume requires checkpoint_dir");
  }
  if (crash_after_columns < 0 || halt_after_columns < 0) {
    return Status::InvalidArgument(
        "crash/halt_after_columns must be >= 0");
  }
  return cluster.Validate();
}

Result<DbtfResult> Dbtf::Factorize(const SparseTensor& x,
                                   const DbtfConfig& config) {
  DBTF_ASSIGN_OR_RETURN(const std::unique_ptr<Session> session,
                        Session::Create(x, config));
  return session->Factorize(config);
}

}  // namespace dbtf
