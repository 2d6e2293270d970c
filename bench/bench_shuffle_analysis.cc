// Instruments the communication ledger against the paper's shuffle analysis:
//   Lemma 6: partitioning an input tensor shuffles O(|X|) data, once.
//   Lemma 7: after partitioning, T iterations move O(T*R*M*I) data (factor
//            broadcasts plus one compact error-difference reply per machine
//            per column; the paper's N*I collect term shrinks to M*I
//            because each machine sums its partitions before replying).
// The bench runs DBTF at increasing sizes and prints measured bytes next to
// the analytical bounds.

#include <cstdio>
#include <string>

#include "common/serde.h"
#include "dbtf/dbtf.h"
#include "generator/generator.h"
#include "harness/harness.h"

namespace dbtf {
namespace bench {
namespace {

int Main() {
  const BenchOptions options = BenchOptions::FromEnv();
  PrintBanner("bench_shuffle_analysis",
              "Lemmas 6-7: measured vs analytical shuffled data", options);

  TablePrinter table({"I=J=K", "nnz", "shuffle B", "O(|X|) bound B",
                      "broadcast B", "collect B", "O(TRMI) bound B"});
  for (const std::int64_t exp : {5, 6, 7}) {
    const std::int64_t dim = std::int64_t{1} << (exp + options.scale);
    auto tensor = UniformRandomTensor(dim, dim, dim, 0.02, exp);
    if (!tensor.ok()) return 1;

    DbtfConfig config;
    config.rank = 10;
    config.max_iterations = options.max_iterations;
    config.num_partitions = options.machines;
    config.cluster.num_machines = options.machines;
    auto result = Dbtf::Factorize(*tensor, config);
    if (!result.ok()) return 1;

    // Analytical bounds with explicit constants matching the implementation:
    // shuffle ships each non-zero of 3 unfoldings as 3 uint32s.
    const std::int64_t shuffle_bound = 3 * tensor->NumNonZeros() * 12;
    // Per factor update: broadcast 3 packed factors to M machines; per
    // column, each of the M machines replies with one zigzag varint per
    // row (an error difference, |diff| <= dim^2 cells of the row) plus at
    // most 5 varints of counts and scalars. 3 updates per iteration.
    const std::int64_t iterations = result->iterations_run +
                                    (config.num_initial_sets - 1);
    const std::int64_t factor_bytes =
        (dim * 8) * 3;  // 3 factors, rank<=64 -> 1 word/row
    const std::int64_t reply_bytes =
        dim * VarintBytes(ZigZagEncode(dim * dim)) + 5 * kMaxVarintBytes;
    const std::int64_t bound_iter =
        iterations * 3 * config.cluster.num_machines *
        (factor_bytes + config.rank * reply_bytes);

    table.AddRow({"2^" + std::to_string(exp),
                  std::to_string(tensor->NumNonZeros()),
                  std::to_string(result->comm.shuffle_bytes),
                  std::to_string(shuffle_bound),
                  std::to_string(result->comm.broadcast_bytes),
                  std::to_string(result->comm.collect_bytes),
                  std::to_string(bound_iter)});
  }
  table.Print();
  std::printf(
      "expected: measured shuffle equals its bound exactly; broadcast + "
      "collect stay at or below the O(T R M I) bound.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dbtf

int main() { return dbtf::bench::Main(); }
