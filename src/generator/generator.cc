#include "generator/generator.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/rank.h"
#include "tensor/boolean_ops.h"

namespace dbtf {
namespace {

/// Packs a coordinate into a single word for dedup sets. Valid while each
/// dimension is < 2^21 (guarded by the callers' size checks).
std::uint64_t PackCoord(std::uint64_t i, std::uint64_t j, std::uint64_t k) {
  return (i << 42) | (j << 21) | k;
}

constexpr std::int64_t kMaxPackableDim = std::int64_t{1} << 21;

}  // namespace

Result<SparseTensor> UniformRandomTensor(std::int64_t dim_i,
                                         std::int64_t dim_j,
                                         std::int64_t dim_k, double density,
                                         std::uint64_t seed) {
  if (density < 0.0 || density > 1.0) {
    return Status::InvalidArgument("density must be in [0, 1]");
  }
  if (dim_i >= kMaxPackableDim || dim_j >= kMaxPackableDim ||
      dim_k >= kMaxPackableDim) {
    return Status::InvalidArgument("dimension too large for generator");
  }
  DBTF_ASSIGN_OR_RETURN(SparseTensor tensor,
                        SparseTensor::Create(dim_i, dim_j, dim_k));
  const double cells = static_cast<double>(dim_i) *
                       static_cast<double>(dim_j) *
                       static_cast<double>(dim_k);
  const auto target = static_cast<std::int64_t>(cells * density + 0.5);
  if (target == 0) return tensor;

  Rng rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(target) * 2);
  tensor.Reserve(target);
  while (static_cast<std::int64_t>(seen.size()) < target) {
    const std::uint64_t i = rng.NextBounded(static_cast<std::uint64_t>(dim_i));
    const std::uint64_t j = rng.NextBounded(static_cast<std::uint64_t>(dim_j));
    const std::uint64_t k = rng.NextBounded(static_cast<std::uint64_t>(dim_k));
    if (seen.insert(PackCoord(i, j, k)).second) {
      tensor.AddUnchecked(static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j),
                          static_cast<std::uint32_t>(k));
    }
  }
  tensor.SortAndDedup();
  return tensor;
}

Result<PlantedTensor> GeneratePlanted(const PlantedSpec& spec) {
  DBTF_RETURN_IF_ERROR(ValidateRank(spec.rank, "planted rank"));
  if (spec.dim_i <= 0 || spec.dim_j <= 0 || spec.dim_k <= 0) {
    return Status::InvalidArgument("planted dimensions must be positive");
  }
  if (spec.dim_i >= kMaxPackableDim || spec.dim_j >= kMaxPackableDim ||
      spec.dim_k >= kMaxPackableDim) {
    return Status::InvalidArgument("dimension too large for generator");
  }
  if (spec.additive_noise < 0.0 || spec.destructive_noise < 0.0 ||
      spec.destructive_noise > 1.0) {
    return Status::InvalidArgument("noise levels out of range");
  }

  Rng rng(spec.seed);
  const auto random_factor = [&](std::int64_t rows) {
    BitMatrix m = BitMatrix::Random(rows, spec.rank, spec.factor_density, &rng);
    // Resample empty columns so every rank-1 component is non-trivial.
    for (std::int64_t r = 0; r < spec.rank; ++r) {
      bool empty = true;
      for (std::int64_t row = 0; row < rows && empty; ++row) {
        if (m.Get(row, r)) empty = false;
      }
      if (empty) {
        m.Set(static_cast<std::int64_t>(
                  rng.NextBounded(static_cast<std::uint64_t>(rows))),
              r, true);
      }
    }
    return m;
  };

  PlantedTensor out;
  out.a = random_factor(spec.dim_i);
  out.b = random_factor(spec.dim_j);
  out.c = random_factor(spec.dim_k);

  // Noise-free tensor: OR of the rank-1 outer products.
  DBTF_ASSIGN_OR_RETURN(out.noise_free,
                        ReconstructTensor(out.a, out.b, out.c));

  // Apply noise on a copy.
  std::vector<Coord> ones = out.noise_free.entries();
  const auto base_nnz = static_cast<std::int64_t>(ones.size());

  // Destructive noise: delete a fraction of the 1s (Fisher-Yates prefix).
  const auto num_delete = static_cast<std::int64_t>(
      static_cast<double>(base_nnz) * spec.destructive_noise + 0.5);
  for (std::int64_t d = 0; d < num_delete; ++d) {
    const std::uint64_t pick =
        d + rng.NextBounded(static_cast<std::uint64_t>(base_nnz - d));
    std::swap(ones[static_cast<std::size_t>(d)],
              ones[static_cast<std::size_t>(pick)]);
  }
  ones.erase(ones.begin(), ones.begin() + num_delete);

  // Additive noise: insert new 1s at uniformly random zero cells.
  std::unordered_set<std::uint64_t> occupied;
  occupied.reserve(ones.size() * 2);
  for (const Coord& c : ones) occupied.insert(PackCoord(c.i, c.j, c.k));
  // Additions are measured against the 1s of the noise-free tensor.
  const auto num_add = static_cast<std::int64_t>(
      static_cast<double>(base_nnz) * spec.additive_noise + 0.5);
  const double total_cells = static_cast<double>(spec.dim_i) *
                             static_cast<double>(spec.dim_j) *
                             static_cast<double>(spec.dim_k);
  std::int64_t added = 0;
  // Guard against degenerate requests that exceed the number of zero cells.
  const auto max_addable = static_cast<std::int64_t>(
      total_cells - static_cast<double>(ones.size()));
  const std::int64_t to_add = std::min(num_add, max_addable);
  while (added < to_add) {
    const std::uint64_t i =
        rng.NextBounded(static_cast<std::uint64_t>(spec.dim_i));
    const std::uint64_t j =
        rng.NextBounded(static_cast<std::uint64_t>(spec.dim_j));
    const std::uint64_t k =
        rng.NextBounded(static_cast<std::uint64_t>(spec.dim_k));
    if (occupied.insert(PackCoord(i, j, k)).second) {
      ones.push_back(Coord{static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(j),
                           static_cast<std::uint32_t>(k)});
      ++added;
    }
  }

  DBTF_ASSIGN_OR_RETURN(
      out.tensor, SparseTensor::Create(spec.dim_i, spec.dim_j, spec.dim_k));
  out.tensor.Reserve(static_cast<std::int64_t>(ones.size()));
  for (const Coord& c : ones) out.tensor.AddUnchecked(c.i, c.j, c.k);
  out.tensor.SortAndDedup();
  return out;
}

}  // namespace dbtf
