#ifndef DBTF_TESTS_TEST_UTIL_H_
#define DBTF_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "common/bitspan.h"
#include "common/kernels/kernels.h"
#include "common/random.h"
#include "tensor/bit_matrix.h"
#include "tensor/boolean_ops.h"
#include "tensor/sparse_tensor.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace testing {

/// Naive O(m*r*n) Boolean matrix product used as a reference.
inline BitMatrix NaiveBooleanProduct(const BitMatrix& a, const BitMatrix& b) {
  BitMatrix out(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      bool value = false;
      for (std::int64_t k = 0; k < a.cols() && !value; ++k) {
        value = a.Get(i, k) && b.Get(k, j);
      }
      out.Set(i, j, value);
    }
  }
  return out;
}

/// Cell-by-cell Boolean CP reconstruction value.
inline bool NaiveReconCell(const BitMatrix& a, const BitMatrix& b,
                           const BitMatrix& c, std::int64_t i, std::int64_t j,
                           std::int64_t k) {
  for (std::int64_t r = 0; r < a.cols(); ++r) {
    if (a.Get(i, r) && b.Get(j, r) && c.Get(k, r)) return true;
  }
  return false;
}

/// Brute-force |X xor recon| over every cell of the tensor.
inline std::int64_t NaiveReconstructionError(const SparseTensor& x,
                                             const BitMatrix& a,
                                             const BitMatrix& b,
                                             const BitMatrix& c) {
  std::int64_t error = 0;
  for (std::int64_t i = 0; i < x.dim_i(); ++i) {
    for (std::int64_t j = 0; j < x.dim_j(); ++j) {
      for (std::int64_t k = 0; k < x.dim_k(); ++k) {
        const bool recon = NaiveReconCell(a, b, c, i, j, k);
        const bool actual = x.Contains(i, j, k);
        if (recon != actual) ++error;
      }
    }
  }
  return error;
}

/// Small random tensor for property tests (deduplicated and sorted).
inline SparseTensor RandomTensor(std::int64_t dim_i, std::int64_t dim_j,
                                 std::int64_t dim_k, double density,
                                 std::uint64_t seed) {
  SparseTensor t = SparseTensor::Create(dim_i, dim_j, dim_k).value();
  Rng rng(seed);
  for (std::int64_t i = 0; i < dim_i; ++i) {
    for (std::int64_t j = 0; j < dim_j; ++j) {
      for (std::int64_t k = 0; k < dim_k; ++k) {
        if (rng.NextBool(density)) t.AddUnchecked(i, j, k);
      }
    }
  }
  t.SortAndDedup();
  return t;
}

/// Greedy column-wise factor update against the dense unfolding, recomputing
/// every Boolean row summation — the reference for the factor-update tests.
/// Updates `factor` in place and returns the factor's final error.
inline std::int64_t ReferenceUpdateFactor(const BitMatrix& unfolded,
                                          BitMatrix* factor,
                                          const BitMatrix& mf,
                                          const BitMatrix& ms) {
  const BitMatrix krt = KhatriRao(mf, ms).value().Transpose();
  const std::int64_t rank = factor->cols();
  const std::size_t words = static_cast<std::size_t>(krt.words_per_row());
  std::vector<BitWord> sum(words);
  const MutableBitSpan sum_span(sum.data(),
                                static_cast<std::size_t>(krt.cols()));
  const auto row_error = [&](std::int64_t r, std::uint64_t mask) {
    std::fill(sum.begin(), sum.end(), BitWord{0});
    ForEachSetBit(BitSpan(&mask, static_cast<std::size_t>(rank)),
                  [&](std::size_t b) {
      Kernels().or_into(sum_span, krt.Row(static_cast<std::int64_t>(b)));
    });
    return Kernels().xor_popcount(sum_span, unfolded.Row(r));
  };
  std::int64_t final_error = 0;
  for (std::int64_t c = 0; c < rank; ++c) {
    const std::uint64_t bit = std::uint64_t{1} << static_cast<unsigned>(c);
    for (std::int64_t r = 0; r < factor->rows(); ++r) {
      const std::uint64_t mask = factor->RowMask64(r);
      const std::int64_t e0 = row_error(r, mask & ~bit);
      const std::int64_t e1 = row_error(r, mask | bit);
      const bool value = e1 < e0;
      factor->SetRowMask64(r, value ? (mask | bit) : (mask & ~bit));
      if (c == rank - 1) final_error += value ? e1 : e0;
    }
  }
  return final_error;
}

}  // namespace testing
}  // namespace dbtf

#endif  // DBTF_TESTS_TEST_UTIL_H_
