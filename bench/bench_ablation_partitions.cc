// Ablation: partition count N (Section III-D). More partitions raise the
// level of parallelism (lower per-machine compute on the virtual clock). In
// the paper every partition's errors cross the network per column; here
// each machine sums its partitions' error differences into one reply, so
// the collect traffic depends on the machine count, not on N. Results are
// bit-identical for every N.

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
  PrintBanner("bench_ablation_partitions",
              "Ablation: partition count N (Section III-D)", options);

  PlantedSpec spec;
  const std::int64_t dim = std::int64_t{1} << (8 + options.scale);
  spec.dim_i = dim;
  spec.dim_j = dim;
  spec.dim_k = dim;
  spec.rank = 10;
  spec.factor_density = 0.06;
  spec.additive_noise = 0.05;
  spec.seed = 23;
  auto planted = GeneratePlanted(spec);
  if (!planted.ok()) return 1;
  const SparseTensor& tensor = planted->tensor;

  TablePrinter table({"N requested", "N used", "wall", "virtual (16 mach)",
                      "collect bytes", "final error"});
  for (const std::int64_t n : {1, 2, 4, 8, 16, 32, 64}) {
    DbtfConfig config;
    config.rank = 10;
    config.num_partitions = n;
    config.max_iterations = options.max_iterations;
    config.cluster.num_machines = 16;
    Timer timer;
    auto result = Dbtf::Factorize(tensor, config);
    const double wall = timer.ElapsedSeconds();
    if (!result.ok()) return 1;
    char wall_str[32], virt_str[32];
    std::snprintf(wall_str, sizeof(wall_str), "%.3fs", wall);
    std::snprintf(virt_str, sizeof(virt_str), "%.3fs",
                  result->virtual_seconds);
    table.AddRow({std::to_string(n), std::to_string(result->partitions_used),
                  wall_str, virt_str,
                  std::to_string(result->comm.collect_bytes),
                  std::to_string(result->final_error)});
  }
  table.Print();
  std::printf(
      "expected: identical error for all N; virtual time falls until N "
      "reaches the machine count; collect bytes stay flat in N.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dbtf

int main() { return dbtf::bench::Main(); }
