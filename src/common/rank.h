#ifndef DBTF_COMMON_RANK_H_
#define DBTF_COMMON_RANK_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace dbtf {

/// Largest factorization rank the library supports. A factor row is one
/// 64-bit concept mask (BitMatrix::RowMask64), so cache keys, explain masks
/// and concept ids all fit a single BitWord.
inline constexpr std::int64_t kMaxRank = 64;

/// OK when `rank` is in [1, kMaxRank]; otherwise kInvalidArgument naming
/// `what` ("<what> must be in [1, 64]").
Status ValidateRank(std::int64_t rank, std::string_view what);

}  // namespace dbtf

#endif  // DBTF_COMMON_RANK_H_
