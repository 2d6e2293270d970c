#include "common/rank.h"

#include <string>

namespace dbtf {

Status ValidateRank(std::int64_t rank, std::string_view what) {
  if (rank < 1 || rank > kMaxRank) {
    return Status::InvalidArgument(std::string(what) + " must be in [1, " +
                                   std::to_string(kMaxRank) + "]");
  }
  return Status::OK();
}

}  // namespace dbtf
