#include "modelselect/rank_selection.h"

#include <cmath>
#include <memory>

#include "common/rank.h"
#include "dbtf/session.h"
#include "tensor/boolean_ops.h"

namespace dbtf {
namespace {

/// log2 of (n choose k) via lgamma — the length of an enumerative code for
/// a k-subset of n positions.
double Log2Choose(double n, double k) {
  if (k <= 0.0 || k >= n || n <= 0.0) return 0.0;
  constexpr double kLog2E = 1.4426950408889634;
  return (std::lgamma(n + 1) - std::lgamma(k + 1) - std::lgamma(n - k + 1)) *
         kLog2E;
}

/// Universal code length for a non-negative integer (Elias-style upper
/// bound): enough bits to transmit the 1-counts themselves.
double IntegerBits(double n) { return 2.0 * std::log2(n + 2.0) + 1.0; }

double MatrixBits(const BitMatrix& m) {
  const double cells = static_cast<double>(m.rows() * m.cols());
  const double ones = static_cast<double>(m.NumNonZeros());
  return IntegerBits(ones) + Log2Choose(cells, ones);
}

}  // namespace

Result<DescriptionLength> ComputeDescriptionLength(const SparseTensor& x,
                                                   const BitMatrix& a,
                                                   const BitMatrix& b,
                                                   const BitMatrix& c) {
  DBTF_ASSIGN_OR_RETURN(const std::int64_t error,
                        ReconstructionError(x, a, b, c));
  DescriptionLength dl;
  // Model: the rank itself plus the three factor matrices.
  dl.model_bits = IntegerBits(static_cast<double>(a.cols())) + MatrixBits(a) +
                  MatrixBits(b) + MatrixBits(c);
  // Residual: which of the I*J*K cells the reconstruction got wrong.
  const double cells = static_cast<double>(x.dim_i()) *
                       static_cast<double>(x.dim_j()) *
                       static_cast<double>(x.dim_k());
  dl.error_bits = IntegerBits(static_cast<double>(error)) +
                  Log2Choose(cells, static_cast<double>(error));
  return dl;
}

Result<RankSelection> EstimateBooleanRank(const SparseTensor& x,
                                          std::int64_t max_rank,
                                          const DbtfConfig& base_config) {
  DBTF_RETURN_IF_ERROR(ValidateRank(max_rank, "max_rank"));

  // Candidate ranks: every rank up to 8, then geometric steps.
  std::vector<std::int64_t> candidates;
  for (std::int64_t r = 1; r <= max_rank && r <= 8; ++r) {
    candidates.push_back(r);
  }
  for (std::int64_t r = 10; r <= max_rank;
       r = static_cast<std::int64_t>(static_cast<double>(r) * 1.5) + 1) {
    candidates.push_back(r);
  }

  // Partition and place the tensor once; every candidate rank runs on the
  // same resident session (re-partitioning is rank-independent work).
  DBTF_ASSIGN_OR_RETURN(const std::unique_ptr<Session> session,
                        Session::Create(x, base_config));

  RankSelection selection;
  double best_bits = 0.0;
  int worse_streak = 0;
  for (const std::int64_t rank : candidates) {
    DbtfConfig config = base_config;
    config.rank = rank;
    DBTF_ASSIGN_OR_RETURN(const DbtfResult result,
                          session->Factorize(config));
    DBTF_ASSIGN_OR_RETURN(
        const DescriptionLength dl,
        ComputeDescriptionLength(x, result.a, result.b, result.c));
    selection.ranks.push_back(rank);
    selection.total_bits.push_back(dl.total_bits());
    selection.errors.push_back(result.final_error);
    if (selection.best_rank == 0 || dl.total_bits() < best_bits) {
      best_bits = dl.total_bits();
      selection.best_rank = rank;
      worse_streak = 0;
    } else if (++worse_streak >= 2) {
      break;  // The score curve has turned; larger ranks only add model cost.
    }
  }
  return selection;
}

}  // namespace dbtf
