#include "eval/metrics.h"

#include <algorithm>
#include <vector>

#include "common/bitspan.h"
#include "common/kernels/kernels.h"
#include "common/rank.h"
#include "tensor/boolean_ops.h"

namespace dbtf {

Result<double> RelativeError(const SparseTensor& x, const BitMatrix& a,
                             const BitMatrix& b, const BitMatrix& c) {
  if (x.NumNonZeros() == 0) {
    return Status::InvalidArgument("RelativeError requires a non-empty tensor");
  }
  DBTF_ASSIGN_OR_RETURN(const std::int64_t error,
                        ReconstructionError(x, a, b, c));
  return static_cast<double>(error) / static_cast<double>(x.NumNonZeros());
}

double ColumnJaccard(const BitMatrix& m1, std::int64_t col1,
                     const BitMatrix& m2, std::int64_t col2) {
  std::int64_t inter = 0;
  std::int64_t uni = 0;
  const std::int64_t rows = std::min(m1.rows(), m2.rows());
  for (std::int64_t r = 0; r < rows; ++r) {
    const bool v1 = m1.Get(r, col1);
    const bool v2 = m2.Get(r, col2);
    if (v1 && v2) ++inter;
    if (v1 || v2) ++uni;
  }
  // Rows beyond the shared range count toward the union only.
  for (std::int64_t r = rows; r < m1.rows(); ++r) {
    if (m1.Get(r, col1)) ++uni;
  }
  for (std::int64_t r = rows; r < m2.rows(); ++r) {
    if (m2.Get(r, col2)) ++uni;
  }
  return uni == 0 ? 1.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

Result<double> FactorMatchScore(const BitMatrix& truth,
                                const BitMatrix& estimate) {
  if (truth.rows() != estimate.rows()) {
    return Status::InvalidArgument("FactorMatchScore: row counts must match");
  }
  if (truth.cols() == 0) {
    return Status::InvalidArgument("FactorMatchScore: empty ground truth");
  }
  std::vector<bool> used(static_cast<std::size_t>(estimate.cols()), false);
  double total = 0.0;
  // Greedy maximum matching on Jaccard similarity.
  for (std::int64_t round = 0; round < truth.cols(); ++round) {
    double best = -1.0;
    std::int64_t best_t = -1;
    std::int64_t best_e = -1;
    for (std::int64_t t = 0; t < truth.cols(); ++t) {
      for (std::int64_t e = 0; e < estimate.cols(); ++e) {
        if (used[static_cast<std::size_t>(e)]) continue;
        const double sim = ColumnJaccard(truth, t, estimate, e);
        if (sim > best) {
          best = sim;
          best_t = t;
          best_e = e;
        }
      }
    }
    if (best_e < 0) break;  // Fewer estimated columns than ground truth.
    used[static_cast<std::size_t>(best_e)] = true;
    (void)best_t;
    total += best;
  }
  return total / static_cast<double>(truth.cols());
}

Result<double> CoverageOfOnes(const SparseTensor& x, const BitMatrix& a,
                              const BitMatrix& b, const BitMatrix& c) {
  if (x.NumNonZeros() == 0) {
    return Status::InvalidArgument("CoverageOfOnes requires a non-empty tensor");
  }
  if (a.cols() > kMaxRank) {
    return Status::InvalidArgument("CoverageOfOnes: rank must be <= 64");
  }
  const BitMatrix bt = b.Transpose();
  std::vector<BitWord> row(static_cast<std::size_t>(bt.words_per_row()));
  const MutableBitSpan sum(row.data(), static_cast<std::size_t>(bt.cols()));
  const BoolKernels& kernels = Kernels();
  std::int64_t covered = 0;
  std::uint64_t last_key = 0;
  bool have_key = false;
  for (const Coord& cell : x.entries()) {
    std::uint64_t key = a.RowMask64(cell.i) & c.RowMask64(cell.k);
    if (!have_key || key != last_key) {
      std::fill(row.begin(), row.end(), BitWord{0});
      ForEachSetBit(BitSpan(&key, kBitsPerWord), [&](std::size_t r) {
        kernels.or_into(sum, bt.Row(static_cast<std::int64_t>(r)));
      });
      last_key = key;
      have_key = true;
    }
    if (sum.Get(static_cast<std::size_t>(cell.j))) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(x.NumNonZeros());
}

}  // namespace dbtf
