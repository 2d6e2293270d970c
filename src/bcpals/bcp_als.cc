#include "bcpals/bcp_als.h"

#include <functional>
#include <vector>

#include "common/bitspan.h"
#include "common/kernels/kernels.h"
#include "common/rank.h"
#include "common/timer.h"
#include "tensor/boolean_ops.h"
#include "tensor/unfold.h"

namespace dbtf {

Status BcpAlsConfig::Validate() const {
  DBTF_RETURN_IF_ERROR(ValidateRank(rank, "rank"));
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (convergence_epsilon < 0) {
    return Status::InvalidArgument("convergence_epsilon must be >= 0");
  }
  if (max_memory_bytes < 0) {
    return Status::InvalidArgument("max_memory_bytes must be >= 0");
  }
  if (time_budget_seconds < 0.0) {
    return Status::InvalidArgument("time budget must be >= 0");
  }
  AssoConfig asso_with_rank = asso;
  asso_with_rank.rank = rank;
  return asso_with_rank.Validate();
}

namespace {

/// Greedy column-wise re-solve of `factor` against the dense unfolding:
/// same update rule as DBTF, but every Boolean row summation is recomputed
/// from the materialized Khatri-Rao transpose (no cache tables). Returns the
/// factor's error after the sweep, or -1 when `expired` fires mid-sweep.
std::int64_t NaiveUpdateFactor(const BitMatrix& unfolded, BitMatrix* factor,
                               const BitMatrix& krt,
                               const std::function<bool()>& expired) {
  const std::int64_t rows = factor->rows();
  const std::int64_t rank = factor->cols();
  std::vector<BitWord> summation(
      static_cast<std::size_t>(krt.words_per_row()));
  const MutableBitSpan sum(summation.data(),
                           static_cast<std::size_t>(krt.cols()));
  const BoolKernels& kernels = Kernels();

  const auto row_error = [&](std::int64_t r, std::uint64_t mask) {
    std::fill(summation.begin(), summation.end(), BitWord{0});
    ForEachSetBit(BitSpan(&mask, static_cast<std::size_t>(rank)),
                  [&](std::size_t idx) {
      kernels.or_into(sum, krt.Row(static_cast<std::int64_t>(idx)));
    });
    return kernels.xor_popcount(sum, unfolded.Row(r));
  };

  std::int64_t final_error = 0;
  for (std::int64_t c = 0; c < rank; ++c) {
    const std::uint64_t bit = std::uint64_t{1} << static_cast<unsigned>(c);
    if (expired()) return -1;
    for (std::int64_t r = 0; r < rows; ++r) {
      if ((r & 63) == 0 && expired()) return -1;
      const std::uint64_t mask = factor->RowMask64(r);
      const std::int64_t err0 = row_error(r, mask & ~bit);
      const std::int64_t err1 = row_error(r, mask | bit);
      const bool value = err1 < err0;
      factor->SetRowMask64(r, value ? (mask | bit) : (mask & ~bit));
      if (c == rank - 1) final_error += value ? err1 : err0;
    }
  }
  return final_error;
}

std::int64_t DenseBytes(std::int64_t rows, std::int64_t cols) {
  return rows *
         static_cast<std::int64_t>(WordsForBits(static_cast<std::size_t>(cols))) *
         static_cast<std::int64_t>(sizeof(BitWord));
}

}  // namespace

Result<BcpAlsResult> BcpAls(const SparseTensor& x, const BcpAlsConfig& config) {
  DBTF_RETURN_IF_ERROR(config.Validate());
  if (x.dim_i() < 1 || x.dim_j() < 1 || x.dim_k() < 1) {
    return Status::InvalidArgument("tensor dimensions must be positive");
  }

  Timer wall;
  const auto expired = [&]() {
    return config.time_budget_seconds > 0.0 &&
           wall.ElapsedSeconds() > config.time_budget_seconds;
  };
  const std::int64_t dim_i = x.dim_i();
  const std::int64_t dim_j = x.dim_j();
  const std::int64_t dim_k = x.dim_k();

  // A single machine must hold all three dense unfoldings plus the largest
  // Khatri-Rao product; gate on that total before allocating.
  const std::int64_t unfold_bytes = DenseBytes(dim_i, dim_j * dim_k) +
                                    DenseBytes(dim_j, dim_i * dim_k) +
                                    DenseBytes(dim_k, dim_i * dim_j);
  if (unfold_bytes > config.max_memory_bytes) {
    return Status::ResourceExhausted(
        "BCP_ALS dense unfoldings exceed the memory budget");
  }

  DBTF_ASSIGN_OR_RETURN(const BitMatrix x1,
                        DenseUnfold(x, Mode::kOne, config.max_memory_bytes));
  DBTF_ASSIGN_OR_RETURN(const BitMatrix x2,
                        DenseUnfold(x, Mode::kTwo, config.max_memory_bytes));
  DBTF_ASSIGN_OR_RETURN(const BitMatrix x3,
                        DenseUnfold(x, Mode::kThree, config.max_memory_bytes));

  // ASSO initialization: the usage factor of each unfolding's BMF. Each call
  // receives the budget remaining at that point, so the whole run honours
  // the overall deadline.
  AssoConfig asso = config.asso;
  asso.rank = config.rank;
  asso.max_memory_bytes = config.max_memory_bytes;
  const auto remaining_budget = [&]() {
    if (config.time_budget_seconds <= 0.0) return 0.0;
    const double left = config.time_budget_seconds - wall.ElapsedSeconds();
    // A non-positive remainder still forwards a tiny budget so the callee
    // reports DeadlineExceeded instead of running unlimited.
    return left > 0.0 ? left : 1e-9;
  };
  BcpAlsResult result;
  {
    asso.time_budget_seconds = remaining_budget();
    DBTF_ASSIGN_OR_RETURN(AssoResult init_a, AssoFactorize(x1, asso));
    result.a = std::move(init_a.u);
  }
  {
    asso.time_budget_seconds = remaining_budget();
    DBTF_ASSIGN_OR_RETURN(AssoResult init_b, AssoFactorize(x2, asso));
    result.b = std::move(init_b.u);
  }
  {
    asso.time_budget_seconds = remaining_budget();
    DBTF_ASSIGN_OR_RETURN(AssoResult init_c, AssoFactorize(x3, asso));
    result.c = std::move(init_c.u);
  }

  for (int t = 1; t <= config.max_iterations; ++t) {
    // X(1) ~ A o (C kr B)^T.
    DBTF_ASSIGN_OR_RETURN(const BitMatrix krt1, KhatriRao(result.c, result.b));
    if (NaiveUpdateFactor(x1, &result.a, krt1.Transpose(), expired) < 0) {
      return Status::DeadlineExceeded("BCP_ALS: factor A update");
    }
    // X(2) ~ B o (C kr A)^T.
    DBTF_ASSIGN_OR_RETURN(const BitMatrix krt2, KhatriRao(result.c, result.a));
    if (NaiveUpdateFactor(x2, &result.b, krt2.Transpose(), expired) < 0) {
      return Status::DeadlineExceeded("BCP_ALS: factor B update");
    }
    // X(3) ~ C o (B kr A)^T.
    DBTF_ASSIGN_OR_RETURN(const BitMatrix krt3, KhatriRao(result.b, result.a));
    const std::int64_t error =
        NaiveUpdateFactor(x3, &result.c, krt3.Transpose(), expired);
    if (error < 0) {
      return Status::DeadlineExceeded("BCP_ALS: factor C update");
    }

    result.iterations_run = t;
    if (!result.iteration_errors.empty()) {
      const std::int64_t previous = result.iteration_errors.back();
      result.iteration_errors.push_back(error);
      if (previous - error <= config.convergence_epsilon) {
        result.converged = true;
        break;
      }
    } else {
      result.iteration_errors.push_back(error);
    }
  }

  result.final_error = result.iteration_errors.back();
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace dbtf
