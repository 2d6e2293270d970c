#include "tensor/boolean_ops.h"

#include <unordered_map>
#include <vector>

#include "common/bitspan.h"
#include "common/kernels/kernels.h"
#include "common/rank.h"

namespace dbtf {

Result<BitMatrix> BooleanProduct(const BitMatrix& a, const BitMatrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("BooleanProduct: inner dimension mismatch");
  }
  BitMatrix out(a.rows(), b.cols());
  const BoolKernels& kernels = Kernels();
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    const MutableBitSpan dst = out.MutableRow(i);
    for (std::int64_t k = 0; k < a.cols(); ++k) {
      if (a.Get(i, k)) kernels.or_into(dst, b.Row(k));
    }
  }
  return out;
}

Result<BitMatrix> BooleanSum(const BitMatrix& a, const BitMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument("BooleanSum: shape mismatch");
  }
  BitMatrix out = a;
  const BoolKernels& kernels = Kernels();
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    kernels.or_into(out.MutableRow(i), b.Row(i));
  }
  return out;
}

Result<BitMatrix> KhatriRao(const BitMatrix& a, const BitMatrix& b) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument("KhatriRao: column counts must match");
  }
  const std::int64_t rank = a.cols();
  BitMatrix out(a.rows() * b.rows(), rank);
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.rows(); ++j) {
      const std::int64_t row = i * b.rows() + j;
      for (std::int64_t r = 0; r < rank; ++r) {
        if (a.Get(i, r) && b.Get(j, r)) out.Set(row, r, true);
      }
    }
  }
  return out;
}

Result<BitMatrix> Kronecker(const BitMatrix& a, const BitMatrix& b) {
  BitMatrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::int64_t i1 = 0; i1 < a.rows(); ++i1) {
    for (std::int64_t j1 = 0; j1 < a.cols(); ++j1) {
      if (!a.Get(i1, j1)) continue;
      for (std::int64_t i2 = 0; i2 < b.rows(); ++i2) {
        for (std::int64_t j2 = 0; j2 < b.cols(); ++j2) {
          if (b.Get(i2, j2)) {
            out.Set(i1 * b.rows() + i2, j1 * b.cols() + j2, true);
          }
        }
      }
    }
  }
  return out;
}

Result<BitMatrix> PointwiseVectorMatrix(std::uint64_t row_mask,
                                        std::int64_t rank,
                                        const BitMatrix& b) {
  if (b.cols() != rank) {
    return Status::InvalidArgument(
        "PointwiseVectorMatrix: rank does not match matrix columns");
  }
  if (rank > kMaxRank) {
    return Status::InvalidArgument("PointwiseVectorMatrix: rank must be <= 64");
  }
  BitMatrix out(b.rows(), rank);
  for (std::int64_t j = 0; j < b.rows(); ++j) {
    out.SetRowMask64(j, b.RowMask64(j) & row_mask);
  }
  return out;
}

Result<SparseTensor> ReconstructTensor(const BitMatrix& a, const BitMatrix& b,
                                       const BitMatrix& c) {
  if (a.cols() != b.cols() || b.cols() != c.cols()) {
    return Status::InvalidArgument(
        "ReconstructTensor: factor ranks must match");
  }
  DBTF_ASSIGN_OR_RETURN(SparseTensor out,
                        SparseTensor::Create(a.rows(), b.rows(), c.rows()));
  const std::int64_t rank = a.cols();
  // Collect the non-zero indices of each factor column once, then emit the
  // rank-1 outer products.
  for (std::int64_t r = 0; r < rank; ++r) {
    std::vector<std::uint32_t> is;
    std::vector<std::uint32_t> js;
    std::vector<std::uint32_t> ks;
    for (std::int64_t i = 0; i < a.rows(); ++i) {
      if (a.Get(i, r)) is.push_back(static_cast<std::uint32_t>(i));
    }
    for (std::int64_t j = 0; j < b.rows(); ++j) {
      if (b.Get(j, r)) js.push_back(static_cast<std::uint32_t>(j));
    }
    for (std::int64_t k = 0; k < c.rows(); ++k) {
      if (c.Get(k, r)) ks.push_back(static_cast<std::uint32_t>(k));
    }
    for (const std::uint32_t i : is) {
      for (const std::uint32_t j : js) {
        for (const std::uint32_t k : ks) {
          out.AddUnchecked(i, j, k);
        }
      }
    }
  }
  out.SortAndDedup();
  return out;
}

Result<std::int64_t> ReconstructionError(const SparseTensor& x,
                                         const BitMatrix& a,
                                         const BitMatrix& b,
                                         const BitMatrix& c) {
  if (a.cols() != b.cols() || b.cols() != c.cols()) {
    return Status::InvalidArgument(
        "ReconstructionError: factor ranks must match");
  }
  if (a.cols() > kMaxRank) {
    return Status::InvalidArgument("ReconstructionError: rank must be <= 64");
  }
  if (a.rows() != x.dim_i() || b.rows() != x.dim_j() || c.rows() != x.dim_k()) {
    return Status::InvalidArgument(
        "ReconstructionError: factor shapes do not match the tensor");
  }

  // Memoized Boolean summation of the columns of B selected by each key.
  // key -> (packed J-bit row, its popcount).
  struct Memo {
    std::vector<BitWord> row;
    std::int64_t nnz;
  };
  const std::size_t bits_j = static_cast<std::size_t>(b.rows());
  const std::size_t words = WordsForBits(bits_j);
  // Columns of B as packed J-bit rows (B transposed), the cache unit.
  const BitMatrix bt = b.Transpose();
  const BoolKernels& kernels = Kernels();
  std::unordered_map<std::uint64_t, Memo> memo;
  memo.reserve(1024);
  const auto lookup = [&](std::uint64_t key) -> const Memo& {
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    Memo m;
    m.row.assign(words, 0);
    const MutableBitSpan sum(m.row.data(), bits_j);
    ForEachSetBit(BitSpan(&key, kBitsPerWord), [&](std::size_t r) {
      kernels.or_into(sum, bt.Row(static_cast<std::int64_t>(r)));
    });
    m.nnz = kernels.popcount(sum);
    return memo.emplace(key, std::move(m)).first->second;
  };

  // |recon| = sum over (i, k) of popcount of the memoized row.
  std::int64_t recon_nnz = 0;
  std::vector<std::uint64_t> a_masks(static_cast<std::size_t>(a.rows()));
  std::vector<std::uint64_t> c_masks(static_cast<std::size_t>(c.rows()));
  for (std::int64_t i = 0; i < a.rows(); ++i) a_masks[i] = a.RowMask64(i);
  for (std::int64_t k = 0; k < c.rows(); ++k) c_masks[k] = c.RowMask64(k);
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t k = 0; k < c.rows(); ++k) {
      const std::uint64_t key = a_masks[i] & c_masks[k];
      if (key == 0) continue;
      recon_nnz += lookup(key).nnz;
    }
  }

  // |recon AND X| = number of tensor non-zeros covered by the reconstruction.
  std::int64_t overlap = 0;
  for (const Coord& cell : x.entries()) {
    const std::uint64_t key = a_masks[cell.i] & c_masks[cell.k];
    if (key == 0) continue;
    const Memo& m = lookup(key);
    if (BitSpan(m.row.data(), bits_j).Get(cell.j)) ++overlap;
  }

  return recon_nnz + x.NumNonZeros() - 2 * overlap;
}

}  // namespace dbtf
