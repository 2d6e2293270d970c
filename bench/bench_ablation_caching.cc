// Ablation: the caching of Boolean row summations (Section III-C). Runs the
// identical factorization with and without the precomputed cache tables; the
// results are bit-identical, so the entire difference is time. Expected:
// caching pays off increasingly with rank (more rows to re-sum per lookup).

#include <cstdio>
#include <string>

#include "common/timer.h"
#include "dbtf/dbtf.h"
#include "generator/generator.h"
#include "harness/harness.h"

namespace dbtf {
namespace bench {
namespace {

int Main() {
  const BenchOptions options = BenchOptions::FromEnv();
  PrintBanner("bench_ablation_caching",
              "Ablation: cached vs recomputed Boolean row summations "
              "(Section III-C)",
              options);

  // Planted structure keeps the factors non-trivial; on pure noise the
  // factorization collapses to zero and every lookup takes the O(1)
  // empty-key fast path, which would make the comparison vacuous.
  PlantedSpec spec;
  const std::int64_t dim = std::int64_t{1} << (8 + options.scale);
  spec.dim_i = dim;
  spec.dim_j = dim;
  spec.dim_k = dim;
  spec.rank = 16;
  spec.factor_density = 0.08;
  spec.additive_noise = 0.05;
  spec.seed = 21;
  auto planted = GeneratePlanted(spec);
  if (!planted.ok()) return 1;
  const SparseTensor& tensor = planted->tensor;
  std::printf("planted tensor: %lld^3, nnz=%lld\n",
              static_cast<long long>(dim),
              static_cast<long long>(tensor.NumNonZeros()));

  TablePrinter table(
      {"rank", "cached", "uncached", "speedup", "results identical"});
  for (const std::int64_t rank : {4, 10, 20, 40}) {
    DbtfConfig config;
    config.rank = rank;
    config.num_initial_sets = 2;
    config.max_iterations = options.max_iterations;
    config.num_partitions = options.machines;
    config.cluster.num_machines = options.machines;

    Timer t_cached;
    config.enable_caching = true;
    auto cached = Dbtf::Factorize(tensor, config);
    const double cached_seconds = t_cached.ElapsedSeconds();

    Timer t_uncached;
    config.enable_caching = false;
    auto uncached = Dbtf::Factorize(tensor, config);
    const double uncached_seconds = t_uncached.ElapsedSeconds();

    if (!cached.ok() || !uncached.ok()) return 1;
    const bool identical = cached->a == uncached->a &&
                           cached->b == uncached->b &&
                           cached->c == uncached->c;
    char c1[32], c2[32], ratio[32];
    std::snprintf(c1, sizeof(c1), "%.3fs", cached_seconds);
    std::snprintf(c2, sizeof(c2), "%.3fs", uncached_seconds);
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  uncached_seconds / cached_seconds);
    table.AddRow({std::to_string(rank), c1, c2, ratio,
                  identical ? "yes" : "NO (bug!)"});
  }
  table.Print();
  std::printf(
      "reproduction finding: with bit-packed rows and hardware popcount,\n"
      "recomputing a Boolean row summation costs a handful of word ORs, so\n"
      "the cache's large win in the paper's JVM/Spark setting does not\n"
      "transfer to this substrate — results are bit-identical either way,\n"
      "and the cached/uncached times differ by up to ~30%% either way.\n"
      "See EXPERIMENTS.md for the analysis.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dbtf

int main() { return dbtf::bench::Main(); }
