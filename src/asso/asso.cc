#include "asso/asso.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/bitspan.h"
#include "common/kernels/kernels.h"
#include "common/random.h"
#include "common/rank.h"
#include "common/timer.h"

namespace dbtf {

Status AssoConfig::Validate() const {
  DBTF_RETURN_IF_ERROR(ValidateRank(rank, "ASSO rank"));
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("ASSO threshold must be in (0, 1]");
  }
  if (weight_plus <= 0.0 || weight_minus < 0.0) {
    return Status::InvalidArgument("ASSO cover weights out of range");
  }
  if (max_candidates < 0) {
    return Status::InvalidArgument("max_candidates must be >= 0");
  }
  if (max_memory_bytes < 0) {
    return Status::InvalidArgument("max_memory_bytes must be >= 0");
  }
  if (time_budget_seconds < 0.0) {
    return Status::InvalidArgument("time budget must be >= 0");
  }
  return Status::OK();
}

Result<AssoResult> AssoFactorize(const BitMatrix& x, const AssoConfig& config) {
  DBTF_RETURN_IF_ERROR(config.Validate());
  Timer wall;
  const auto expired = [&]() {
    return config.time_budget_seconds > 0.0 &&
           wall.ElapsedSeconds() > config.time_budget_seconds;
  };
  const std::int64_t m = x.rows();
  const std::int64_t n = x.cols();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument("ASSO input must be non-empty");
  }

  // Columns of X packed as rows (m-bit), for fast pairwise intersections.
  const BitMatrix xt = x.Transpose();
  const BoolKernels& kernels = Kernels();
  std::vector<std::int64_t> col_nnz(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    col_nnz[static_cast<std::size_t>(j)] = xt.RowNnz(j);
  }

  // Candidate seed columns: all, or a uniform sample.
  std::vector<std::int64_t> seeds(static_cast<std::size_t>(n));
  std::iota(seeds.begin(), seeds.end(), 0);
  if (config.max_candidates > 0 && n > config.max_candidates) {
    Rng rng(config.seed);
    for (std::int64_t s = 0; s < config.max_candidates; ++s) {
      const std::int64_t pick =
          s + static_cast<std::int64_t>(
                  rng.NextBounded(static_cast<std::uint64_t>(n - s)));
      std::swap(seeds[static_cast<std::size_t>(s)],
                seeds[static_cast<std::size_t>(pick)]);
    }
    seeds.resize(static_cast<std::size_t>(config.max_candidates));
  }

  // Memory gate for the association (candidate) matrix.
  const std::int64_t candidate_bytes =
      static_cast<std::int64_t>(seeds.size()) *
      static_cast<std::int64_t>(WordsForBits(static_cast<std::size_t>(n))) *
      static_cast<std::int64_t>(sizeof(BitWord));
  if (candidate_bytes > config.max_memory_bytes) {
    return Status::ResourceExhausted(
        "ASSO association matrix exceeds the memory budget");
  }

  // Candidate basis vectors: thresholded association rows.
  BitMatrix candidates(static_cast<std::int64_t>(seeds.size()), n);
  std::int64_t num_candidates = 0;
  for (const std::int64_t seed_col : seeds) {
    if (expired()) {
      return Status::DeadlineExceeded("ASSO: association matrix");
    }
    const std::int64_t base = col_nnz[static_cast<std::size_t>(seed_col)];
    if (base == 0) continue;
    const BitSpan seed_col_bits = xt.Row(seed_col);
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t inter =
          kernels.and_popcount(seed_col_bits, xt.Row(j));
      if (static_cast<double>(inter) >=
          config.threshold * static_cast<double>(base)) {
        candidates.Set(num_candidates, j, true);
      }
    }
    ++num_candidates;
  }
  if (num_candidates == 0) {
    // All-zero input: the zero factorization is exact.
    AssoResult zero{BitMatrix(m, config.rank), BitMatrix(n, config.rank), 0};
    return zero;
  }

  // Greedy cover: R rounds, each committing the candidate with the best
  // weighted gain over the current cover.
  BitMatrix covered(m, n);  // current reconstruction U o S^T
  BitMatrix u(m, config.rank);
  BitMatrix s(n, config.rank);
  std::vector<BitWord> newly(static_cast<std::size_t>(x.words_per_row()));
  const MutableBitSpan fresh(newly.data(), static_cast<std::size_t>(n));

  for (std::int64_t r = 0; r < config.rank; ++r) {
    double best_gain = 0.0;
    std::int64_t best_candidate = -1;
    std::vector<char> best_usage;
    std::vector<char> usage(static_cast<std::size_t>(m));

    for (std::int64_t cand = 0; cand < num_candidates; ++cand) {
      if ((cand & 15) == 0 && expired()) {
        return Status::DeadlineExceeded("ASSO: greedy cover");
      }
      const BitSpan basis = candidates.Row(cand);
      double gain = 0.0;
      for (std::int64_t i = 0; i < m; ++i) {
        // fresh = entries this basis would newly cover in row i.
        kernels.andnot_out(fresh, basis, covered.Row(i));
        const BitSpan xi = x.Row(i);
        const std::int64_t plus = kernels.and_popcount(fresh, xi);
        const std::int64_t minus = kernels.andnot_popcount(fresh, xi);
        const double row_gain = config.weight_plus * static_cast<double>(plus) -
                                config.weight_minus * static_cast<double>(minus);
        usage[static_cast<std::size_t>(i)] = row_gain > 0.0 ? 1 : 0;
        if (row_gain > 0.0) gain += row_gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_candidate = cand;
        best_usage = usage;
      }
    }

    if (best_candidate < 0) break;  // No candidate improves the cover.

    // Commit basis vector r.
    const BitSpan basis = candidates.Row(best_candidate);
    ForEachSetBit(basis, [&](std::size_t j) {
      s.Set(static_cast<std::int64_t>(j), r, true);
    });
    for (std::int64_t i = 0; i < m; ++i) {
      if (best_usage[static_cast<std::size_t>(i)] != 0) {
        u.Set(i, r, true);
        kernels.or_into(covered.MutableRow(i), basis);
      }
    }
  }

  AssoResult result{std::move(u), std::move(s), covered.HammingDistance(x)};
  return result;
}

}  // namespace dbtf
