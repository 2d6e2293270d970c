#include "cli/cli.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bcpals/bcp_als.h"
#include "common/env.h"
#include "common/kernels/kernels.h"
#include "common/random.h"
#include "common/timer.h"
#include "dbtf/dbtf.h"
#include "dist/provision.h"
#include "dist/transport/transport.h"
#include "eval/metrics.h"
#include "generator/generator.h"
#include "generator/workload.h"
#include "modelselect/rank_selection.h"
#include "serve/serve_engine.h"
#include "serve/workload.h"
#include "tensor/boolean_ops.h"
#include "tensor/io.h"
#include "tucker/tucker.h"
#include "walknmerge/walk_n_merge.h"

namespace dbtf {
namespace cli {
namespace {

/// Finds the Table III stand-in spec matching a dataset name (lowercased,
/// e.g. "facebook", "ddos-s", "nell-l").
Result<DatasetSpec> FindDataset(const std::string& name) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    std::string lowered = spec.name;
    for (char& c : lowered) c = static_cast<char>(std::tolower(c));
    // Accept both the full name and the suffix after "caida-".
    if (lowered == name || lowered == "caida-" + name ||
        (lowered.size() > 6 && lowered.substr(6) == name)) {
      return spec;
    }
  }
  return Status::NotFound("unknown dataset '" + name +
                          "'; expected facebook, dblp, ddos-s, ddos-l, "
                          "nell-s, or nell-l");
}

Status WriteFactors(const std::string& prefix, const BitMatrix& a,
                    const BitMatrix& b, const BitMatrix& c) {
  DBTF_RETURN_IF_ERROR(WriteMatrixText(a, prefix + ".A.txt"));
  DBTF_RETURN_IF_ERROR(WriteMatrixText(b, prefix + ".B.txt"));
  DBTF_RETURN_IF_ERROR(WriteMatrixText(c, prefix + ".C.txt"));
  return Status::OK();
}

void PrintFactorizationSummary(const char* algorithm, std::int64_t nnz,
                               std::int64_t error, int iterations,
                               double seconds) {
  std::printf("algorithm      : %s\n", algorithm);
  std::printf("final error    : %lld\n", static_cast<long long>(error));
  if (nnz > 0) {
    std::printf("relative error : %.4f\n",
                static_cast<double>(error) / static_cast<double>(nnz));
  }
  std::printf("iterations     : %d\n", iterations);
  std::printf("wall time      : %.3fs\n", seconds);
}

}  // namespace

Status RunGenerate(FlagParser* flags) {
  const std::string kind = flags->GetString("kind", "uniform");
  const std::string output = flags->GetString("output", "");
  if (output.empty()) {
    return Status::InvalidArgument("generate requires --output=<path>");
  }
  DBTF_ASSIGN_OR_RETURN(const std::int64_t seed, flags->GetInt64("seed", 0));

  if (kind == "uniform" || kind == "planted") {
    DBTF_ASSIGN_OR_RETURN(const std::int64_t dim_i,
                          flags->GetInt64("dim-i", 128));
    DBTF_ASSIGN_OR_RETURN(const std::int64_t dim_j,
                          flags->GetInt64("dim-j", dim_i));
    DBTF_ASSIGN_OR_RETURN(const std::int64_t dim_k,
                          flags->GetInt64("dim-k", dim_i));
    if (kind == "uniform") {
      DBTF_ASSIGN_OR_RETURN(const double density,
                            flags->GetDouble("density", 0.01));
      DBTF_RETURN_IF_ERROR(flags->Finish());
      DBTF_ASSIGN_OR_RETURN(
          const SparseTensor tensor,
          UniformRandomTensor(dim_i, dim_j, dim_k, density,
                              static_cast<std::uint64_t>(seed)));
      DBTF_RETURN_IF_ERROR(WriteTensorText(tensor, output));
      std::printf("wrote %lld non-zeros to %s\n",
                  static_cast<long long>(tensor.NumNonZeros()),
                  output.c_str());
      return Status::OK();
    }
    PlantedSpec spec;
    spec.dim_i = dim_i;
    spec.dim_j = dim_j;
    spec.dim_k = dim_k;
    spec.seed = static_cast<std::uint64_t>(seed);
    DBTF_ASSIGN_OR_RETURN(spec.rank, flags->GetInt64("rank", 10));
    DBTF_ASSIGN_OR_RETURN(spec.factor_density,
                          flags->GetDouble("factor-density", 0.1));
    DBTF_ASSIGN_OR_RETURN(spec.additive_noise,
                          flags->GetDouble("additive-noise", 0.0));
    DBTF_ASSIGN_OR_RETURN(spec.destructive_noise,
                          flags->GetDouble("destructive-noise", 0.0));
    const std::string truth_prefix = flags->GetString("truth-prefix", "");
    DBTF_RETURN_IF_ERROR(flags->Finish());
    DBTF_ASSIGN_OR_RETURN(const PlantedTensor planted, GeneratePlanted(spec));
    DBTF_RETURN_IF_ERROR(WriteTensorText(planted.tensor, output));
    if (!truth_prefix.empty()) {
      DBTF_RETURN_IF_ERROR(
          WriteFactors(truth_prefix, planted.a, planted.b, planted.c));
    }
    std::printf("wrote %lld non-zeros to %s (planted rank %lld)\n",
                static_cast<long long>(planted.tensor.NumNonZeros()),
                output.c_str(), static_cast<long long>(spec.rank));
    return Status::OK();
  }

  // Table III stand-ins.
  DBTF_ASSIGN_OR_RETURN(const double shrink, flags->GetDouble("shrink", 128));
  DBTF_RETURN_IF_ERROR(flags->Finish());
  DBTF_ASSIGN_OR_RETURN(const DatasetSpec nominal, FindDataset(kind));
  const DatasetSpec spec = ScaleDataset(nominal, shrink);
  DBTF_ASSIGN_OR_RETURN(const SparseTensor tensor,
                        GenerateWorkload(spec, static_cast<std::uint64_t>(seed)));
  DBTF_RETURN_IF_ERROR(WriteTensorText(tensor, output));
  std::printf("wrote %s stand-in (%lldx%lldx%lld, %lld non-zeros) to %s\n",
              nominal.name.c_str(), static_cast<long long>(spec.dim_i),
              static_cast<long long>(spec.dim_j),
              static_cast<long long>(spec.dim_k),
              static_cast<long long>(tensor.NumNonZeros()), output.c_str());
  return Status::OK();
}

Status RunFactorize(FlagParser* flags) {
  const std::string input = flags->GetString("input", "");
  if (input.empty()) {
    return Status::InvalidArgument("factorize requires --input=<path>");
  }
  const std::string algorithm = flags->GetString("algorithm", "dbtf");
  const std::string output_prefix = flags->GetString("output-prefix", "");
  DBTF_ASSIGN_OR_RETURN(const std::int64_t rank, flags->GetInt64("rank", 10));
  DBTF_ASSIGN_OR_RETURN(const std::int64_t max_iterations,
                        flags->GetInt64("max-iterations", 10));
  DBTF_ASSIGN_OR_RETURN(const std::int64_t seed, flags->GetInt64("seed", 0));
  DBTF_ASSIGN_OR_RETURN(const double budget,
                        flags->GetDouble("time-budget-seconds", 0.0));

  DBTF_ASSIGN_OR_RETURN(const SparseTensor tensor, ReadTensorText(input));

  if (algorithm == "dbtf") {
    DbtfConfig config;
    config.rank = rank;
    config.max_iterations = static_cast<int>(max_iterations);
    config.seed = static_cast<std::uint64_t>(seed);
    config.time_budget_seconds = budget;
    DBTF_ASSIGN_OR_RETURN(config.num_initial_sets,
                          flags->GetInt64("initial-sets", 4));
    DBTF_ASSIGN_OR_RETURN(config.num_partitions,
                          flags->GetInt64("partitions", 16));
    DBTF_ASSIGN_OR_RETURN(const std::int64_t machines,
                          flags->GetInt64("machines", 16));
    config.cluster.num_machines = static_cast<int>(machines);
    DBTF_ASSIGN_OR_RETURN(const std::int64_t v,
                          flags->GetInt64("cache-group-size", 15));
    config.cache_group_size = static_cast<int>(v);
    DBTF_ASSIGN_OR_RETURN(const bool no_delta,
                          flags->GetBool("no-delta-broadcast", false));
    config.enable_delta_broadcast = !no_delta;
    // Transport seam: in-process workers (default) or one dbtf-worker OS
    // process per machine over local sockets. Validation happens inside
    // Cluster::Create via ClusterConfig::Validate.
    // Boolean kernel backend: auto (default) resolves to the widest SIMD
    // level the build and CPU support; results are bitwise identical across
    // backends, so this is purely a throughput knob. Precedence: --kernel,
    // then DBTF_KERNEL (how forked dbtf-worker processes inherit the
    // driver's choice), then auto.
    const std::string kernel =
        flags->GetString("kernel", GetEnvString("DBTF_KERNEL", "auto"));
    DBTF_ASSIGN_OR_RETURN(config.kernel_backend, ParseKernelBackend(kernel));
    const std::string transport = flags->GetString("transport", "inproc");
    DBTF_ASSIGN_OR_RETURN(config.cluster.transport.kind,
                          ParseTransportKind(transport));
    config.cluster.transport.socket_dir = flags->GetString("socket-dir", "");
    config.cluster.transport.worker_binary =
        flags->GetString("worker-binary", "");
    // Fault injection: an explicit plan wins over a seeded random one; the
    // seeded form injects a few transient faults plus one machine crash,
    // reproducibly for a given seed.
    const std::string fault_plan = flags->GetString("fault-plan", "");
    DBTF_ASSIGN_OR_RETURN(const std::int64_t fault_seed,
                          flags->GetInt64("fault-seed", 0));
    DBTF_ASSIGN_OR_RETURN(const std::int64_t max_retries,
                          flags->GetInt64("max-retries", 3));
    config.cluster.retry.max_attempts = static_cast<int>(max_retries);
    // Checkpoint/restore (src/ckpt/): durable snapshots + bitwise resume.
    config.checkpoint_dir = flags->GetString("checkpoint-dir", "");
    DBTF_ASSIGN_OR_RETURN(config.checkpoint_every_columns,
                          flags->GetInt64("checkpoint-every-columns", 0));
    DBTF_ASSIGN_OR_RETURN(const std::int64_t retention,
                          flags->GetInt64("checkpoint-retention", 3));
    config.checkpoint_retention = static_cast<int>(retention);
    DBTF_ASSIGN_OR_RETURN(config.resume, flags->GetBool("resume", false));
    DBTF_ASSIGN_OR_RETURN(config.crash_after_columns,
                          flags->GetInt64("crash-after-columns", 0));
    DBTF_ASSIGN_OR_RETURN(config.halt_after_columns,
                          flags->GetInt64("halt-after-columns", 0));
    if (!fault_plan.empty()) {
      DBTF_ASSIGN_OR_RETURN(config.cluster.fault_plan,
                            FaultPlan::Parse(fault_plan));
    } else if (fault_seed != 0) {
      config.cluster.fault_plan =
          FaultPlan::Random(static_cast<std::uint64_t>(fault_seed),
                            config.cluster.num_machines,
                            /*num_transient=*/4, /*num_crashes=*/1);
    }
    DBTF_RETURN_IF_ERROR(flags->Finish());
    DBTF_ASSIGN_OR_RETURN(const DbtfResult result,
                          Dbtf::Factorize(tensor, config));
    PrintFactorizationSummary("dbtf", tensor.NumNonZeros(),
                              result.final_error, result.iterations_run,
                              result.wall_seconds);
    std::printf("virtual time   : %.3fs on %d machines\n",
                result.virtual_seconds, config.cluster.num_machines);
    std::printf("transport      : %s\n",
                TransportKindName(config.cluster.transport.kind));
    std::printf("kernels        : %s\n", result.kernel_backend.c_str());
    std::printf("network        : %s\n", result.comm.ToString().c_str());
    std::printf("cache tables   : %lld entries, %lld bytes (peak)\n",
                static_cast<long long>(result.cache_entries),
                static_cast<long long>(result.cache_bytes));
    std::printf("cells changed  : %lld\n",
                static_cast<long long>(result.cells_changed));
    if (!config.cluster.fault_plan.empty()) {
      std::printf("fault plan     : %s\n",
                  config.cluster.fault_plan.ToString().c_str());
      std::printf("recovery       : %s\n", result.recovery.ToString().c_str());
    }
    if (!config.checkpoint_dir.empty()) {
      std::printf("checkpoints    : %lld written to %s\n",
                  static_cast<long long>(result.checkpoints_written),
                  config.checkpoint_dir.c_str());
      if (result.resumed_from_iteration > 0) {
        std::printf("resumed from   : iteration %d\n",
                    result.resumed_from_iteration);
      }
    }
    if (!output_prefix.empty()) {
      DBTF_RETURN_IF_ERROR(
          WriteFactors(output_prefix, result.a, result.b, result.c));
    }
    return Status::OK();
  }
  if (algorithm == "bcp-als") {
    BcpAlsConfig config;
    config.rank = rank;
    config.max_iterations = static_cast<int>(max_iterations);
    config.asso.seed = static_cast<std::uint64_t>(seed);
    config.time_budget_seconds = budget;
    DBTF_ASSIGN_OR_RETURN(config.asso.max_candidates,
                          flags->GetInt64("asso-candidates", 512));
    DBTF_RETURN_IF_ERROR(flags->Finish());
    DBTF_ASSIGN_OR_RETURN(const BcpAlsResult result, BcpAls(tensor, config));
    PrintFactorizationSummary("bcp-als", tensor.NumNonZeros(),
                              result.final_error, result.iterations_run,
                              result.wall_seconds);
    if (!output_prefix.empty()) {
      DBTF_RETURN_IF_ERROR(
          WriteFactors(output_prefix, result.a, result.b, result.c));
    }
    return Status::OK();
  }
  if (algorithm == "walk-n-merge") {
    WalkNMergeConfig config;
    config.rank = rank;
    config.seed = static_cast<std::uint64_t>(seed);
    config.time_budget_seconds = budget;
    DBTF_ASSIGN_OR_RETURN(config.density_threshold,
                          flags->GetDouble("density-threshold", 0.8));
    DBTF_RETURN_IF_ERROR(flags->Finish());
    DBTF_ASSIGN_OR_RETURN(const WalkNMergeResult result,
                          WalkNMerge(tensor, config));
    PrintFactorizationSummary("walk-n-merge", tensor.NumNonZeros(),
                              result.final_error, 1, result.wall_seconds);
    std::printf("blocks found   : %lld\n",
                static_cast<long long>(result.num_blocks));
    if (!output_prefix.empty()) {
      DBTF_RETURN_IF_ERROR(
          WriteFactors(output_prefix, result.a, result.b, result.c));
    }
    return Status::OK();
  }
  if (algorithm == "tucker") {
    TuckerConfig config;
    const std::int64_t per_mode = std::min<std::int64_t>(rank, 8);
    config.core_p = per_mode;
    config.core_q = per_mode;
    config.core_r = per_mode;
    config.max_iterations = static_cast<int>(max_iterations);
    config.seed = static_cast<std::uint64_t>(seed);
    DBTF_ASSIGN_OR_RETURN(const std::int64_t restarts,
                          flags->GetInt64("restarts", 4));
    config.num_restarts = static_cast<int>(restarts);
    DBTF_RETURN_IF_ERROR(flags->Finish());
    Timer wall;
    DBTF_ASSIGN_OR_RETURN(const TuckerResult result,
                          BooleanTucker(tensor, config));
    PrintFactorizationSummary("tucker", tensor.NumNonZeros(),
                              result.final_error, result.iterations_run,
                              wall.ElapsedSeconds());
    std::printf("core           : %lldx%lldx%lld with %lld couplings\n",
                static_cast<long long>(config.core_p),
                static_cast<long long>(config.core_q),
                static_cast<long long>(config.core_r),
                static_cast<long long>(result.core.NumNonZeros()));
    if (!output_prefix.empty()) {
      DBTF_RETURN_IF_ERROR(
          WriteFactors(output_prefix, result.a, result.b, result.c));
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown --algorithm '" + algorithm +
      "'; expected dbtf, bcp-als, walk-n-merge, or tucker");
}

Status RunSelectRank(FlagParser* flags) {
  const std::string input = flags->GetString("input", "");
  if (input.empty()) {
    return Status::InvalidArgument("select-rank requires --input=<path>");
  }
  DBTF_ASSIGN_OR_RETURN(const std::int64_t max_rank,
                        flags->GetInt64("max-rank", 16));
  DBTF_ASSIGN_OR_RETURN(const std::int64_t max_iterations,
                        flags->GetInt64("max-iterations", 8));
  DBTF_ASSIGN_OR_RETURN(const std::int64_t initial_sets,
                        flags->GetInt64("initial-sets", 4));
  DBTF_ASSIGN_OR_RETURN(const std::int64_t seed, flags->GetInt64("seed", 0));
  DBTF_RETURN_IF_ERROR(flags->Finish());
  DBTF_ASSIGN_OR_RETURN(const SparseTensor tensor, ReadTensorText(input));

  DbtfConfig config;
  config.max_iterations = static_cast<int>(max_iterations);
  config.num_initial_sets = static_cast<int>(initial_sets);
  config.seed = static_cast<std::uint64_t>(seed);
  DBTF_ASSIGN_OR_RETURN(const RankSelection selection,
                        EstimateBooleanRank(tensor, max_rank, config));
  std::printf("rank   MDL bits     error\n");
  for (std::size_t t = 0; t < selection.ranks.size(); ++t) {
    std::printf("%4lld   %10.0f   %lld%s\n",
                static_cast<long long>(selection.ranks[t]),
                selection.total_bits[t],
                static_cast<long long>(selection.errors[t]),
                selection.ranks[t] == selection.best_rank ? "   <= best" : "");
  }
  std::printf("selected rank : %lld\n",
              static_cast<long long>(selection.best_rank));
  return Status::OK();
}

Status RunEval(FlagParser* flags) {
  const std::string input = flags->GetString("input", "");
  const std::string prefix = flags->GetString("factors-prefix", "");
  if (input.empty() || prefix.empty()) {
    return Status::InvalidArgument(
        "eval requires --input=<tensor> and --factors-prefix=<prefix>");
  }
  DBTF_RETURN_IF_ERROR(flags->Finish());
  DBTF_ASSIGN_OR_RETURN(const SparseTensor tensor, ReadTensorText(input));
  DBTF_ASSIGN_OR_RETURN(const BitMatrix a, ReadMatrixText(prefix + ".A.txt"));
  DBTF_ASSIGN_OR_RETURN(const BitMatrix b, ReadMatrixText(prefix + ".B.txt"));
  DBTF_ASSIGN_OR_RETURN(const BitMatrix c, ReadMatrixText(prefix + ".C.txt"));
  DBTF_ASSIGN_OR_RETURN(const std::int64_t error,
                        ReconstructionError(tensor, a, b, c));
  std::printf("error          : %lld\n", static_cast<long long>(error));
  if (tensor.NumNonZeros() > 0) {
    std::printf("relative error : %.4f\n",
                static_cast<double>(error) /
                    static_cast<double>(tensor.NumNonZeros()));
    DBTF_ASSIGN_OR_RETURN(const double coverage,
                          CoverageOfOnes(tensor, a, b, c));
    std::printf("coverage of 1s : %.4f\n", coverage);
  }
  return Status::OK();
}

Status RunInfo(FlagParser* flags) {
  const std::string input = flags->GetString("input", "");
  if (input.empty()) {
    return Status::InvalidArgument("info requires --input=<path>");
  }
  DBTF_RETURN_IF_ERROR(flags->Finish());
  DBTF_ASSIGN_OR_RETURN(const SparseTensor tensor, ReadTensorText(input));
  std::printf("dimensions : %lld x %lld x %lld\n",
              static_cast<long long>(tensor.dim_i()),
              static_cast<long long>(tensor.dim_j()),
              static_cast<long long>(tensor.dim_k()));
  std::printf("non-zeros  : %lld\n",
              static_cast<long long>(tensor.NumNonZeros()));
  std::printf("density    : %.6g\n", tensor.Density());
  return Status::OK();
}

/// Exact percentile of recorded latencies (the CLI keeps every sample; the
/// constant-memory histogram in bench/harness/ is for the bench's scale).
double PercentileUs(std::vector<double>* seconds, double p) {
  if (seconds->empty()) return 0.0;
  std::sort(seconds->begin(), seconds->end());
  std::size_t index = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(seconds->size())));
  if (index < 1) index = 1;
  return (*seconds)[index - 1] * 1e6;
}

Status RunServe(FlagParser* flags) {
  WorkloadOptions options;
  DBTF_ASSIGN_OR_RETURN(options.dims[0], flags->GetInt64("dim-i", 256));
  DBTF_ASSIGN_OR_RETURN(options.dims[1],
                        flags->GetInt64("dim-j", options.dims[0]));
  DBTF_ASSIGN_OR_RETURN(options.dims[2],
                        flags->GetInt64("dim-k", options.dims[0]));
  DBTF_ASSIGN_OR_RETURN(options.rank, flags->GetInt64("rank", 16));
  DBTF_ASSIGN_OR_RETURN(options.top_r, flags->GetInt64("top-r", 5));
  DBTF_ASSIGN_OR_RETURN(options.mix.membership,
                        flags->GetDouble("membership-ratio",
                                         options.mix.membership));
  DBTF_ASSIGN_OR_RETURN(options.mix.fiber,
                        flags->GetDouble("fiber-ratio", options.mix.fiber));
  DBTF_ASSIGN_OR_RETURN(options.mix.top,
                        flags->GetDouble("top-ratio", options.mix.top));
  DBTF_ASSIGN_OR_RETURN(options.mix.update,
                        flags->GetDouble("update-ratio", options.mix.update));
  DBTF_ASSIGN_OR_RETURN(const std::int64_t seed, flags->GetInt64("seed", 42));
  options.seed = static_cast<std::uint64_t>(seed);
  DBTF_ASSIGN_OR_RETURN(options.skew,
                        ParseSkewKind(flags->GetString("skew", "weblog")));
  DBTF_RETURN_IF_ERROR(options.Validate());
  DBTF_ASSIGN_OR_RETURN(const std::int64_t ops, flags->GetInt64("ops", 2000));
  if (ops <= 0) {
    return Status::InvalidArgument("--ops must be positive");
  }
  DBTF_ASSIGN_OR_RETURN(const std::int64_t machines,
                        flags->GetInt64("machines", 4));

  ClusterConfig config;
  config.num_machines = static_cast<int>(machines);
  const std::string transport = flags->GetString("transport", "inproc");
  DBTF_ASSIGN_OR_RETURN(config.transport.kind, ParseTransportKind(transport));
  config.transport.socket_dir = flags->GetString("socket-dir", "");
  config.transport.worker_binary = flags->GetString("worker-binary", "");
  const std::string fault_plan = flags->GetString("fault-plan", "");
  if (!fault_plan.empty()) {
    DBTF_ASSIGN_OR_RETURN(config.fault_plan, FaultPlan::Parse(fault_plan));
  }
  const std::string kernel =
      flags->GetString("kernel", GetEnvString("DBTF_KERNEL", "auto"));
  DBTF_ASSIGN_OR_RETURN(const KernelBackend backend,
                        ParseKernelBackend(kernel));
  DBTF_RETURN_IF_ERROR(SetKernelBackend(backend));
  DBTF_RETURN_IF_ERROR(flags->Finish());

  // Plant a factor set to serve. The serving layer is the product here; the
  // factors just need deterministic content at the requested shape.
  Rng rng(options.seed ^ 0x5e7ce11aULL);
  std::array<BitMatrix, 3> factors;
  for (int slot = 0; slot < 3; ++slot) {
    DBTF_ASSIGN_OR_RETURN(factors[static_cast<std::size_t>(slot)],
                          BitMatrix::Create(options.dims[slot], options.rank));
    const std::uint64_t mask = options.rank >= 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << options.rank) - 1;
    for (std::int64_t r = 0; r < options.dims[slot]; ++r) {
      factors[static_cast<std::size_t>(slot)].SetRowMask64(
          r, rng.NextUint64() & rng.NextUint64() & rng.NextUint64() & mask);
    }
  }

  DBTF_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                        Cluster::Create(config));
  DBTF_RETURN_IF_ERROR(ProvisionWorkers(*cluster));
  DBTF_ASSIGN_OR_RETURN(
      std::unique_ptr<ServeEngine> engine,
      ServeEngine::Create(cluster.get(), std::move(factors[0]),
                          std::move(factors[1]), std::move(factors[2])));
  DBTF_RETURN_IF_ERROR(engine->Load());

  WorkloadGenerator gen(options);
  std::array<std::vector<double>, 4> latencies;
  Timer wall;
  for (std::int64_t n = 0; n < ops; ++n) {
    const ServeOp op = gen.Next();
    QueryResponse response;
    Timer one;
    DBTF_RETURN_IF_ERROR(RunOp(engine.get(), op, &response));
    latencies[static_cast<std::size_t>(op.kind)].push_back(
        one.ElapsedSeconds());
  }
  const double wall_seconds = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const std::vector<double>& kind : latencies) {
    all.insert(all.end(), kind.begin(), kind.end());
  }
  const std::array<std::uint64_t, 3> generations = engine->generations();
  std::printf("serve          : %lld ops, %.0f qps, p99 %.1fus, "
              "generations (%llu, %llu, %llu)\n",
              static_cast<long long>(ops),
              wall_seconds > 0.0 ? static_cast<double>(ops) / wall_seconds
                                 : 0.0,
              PercentileUs(&all, 99.0),
              static_cast<unsigned long long>(generations[0]),
              static_cast<unsigned long long>(generations[1]),
              static_cast<unsigned long long>(generations[2]));
  std::printf("mix            : membership %.2f fiber %.2f top %.2f "
              "update %.2f (%s skew, seed %llu)\n",
              options.mix.membership, options.mix.fiber, options.mix.top,
              options.mix.update, SkewKindName(options.skew),
              static_cast<unsigned long long>(options.seed));
  const char* kind_names[4] = {"membership", "fiber", "top", "update"};
  for (std::size_t kind = 0; kind < 4; ++kind) {
    if (latencies[kind].empty()) continue;
    std::printf("%-10s p99 : %.1fus (%lld ops, p50 %.1fus)\n",
                kind_names[kind], PercentileUs(&latencies[kind], 99.0),
                static_cast<long long>(latencies[kind].size()),
                PercentileUs(&latencies[kind], 50.0));
  }
  std::printf("transport      : %s on %d machines\n",
              TransportKindName(config.transport.kind), config.num_machines);
  std::printf("network        : %s\n", cluster->comm().Snapshot().ToString().c_str());
  const ServeStats& stats = engine->stats();
  if (stats.failovers > 0 || stats.rebroadcasts > 0) {
    std::printf("recovery       : %lld failovers, %lld rebroadcasts\n",
                static_cast<long long>(stats.failovers),
                static_cast<long long>(stats.rebroadcasts));
  }
  if (config.transport.kind == TransportKind::kSocket) {
    cluster->DetachWorkers();
  }
  return Status::OK();
}

std::string UsageText() {
  return
      "usage: dbtf <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate   --kind=uniform|planted|facebook|dblp|ddos-s|ddos-l|"
      "nell-s|nell-l\n"
      "             --output=PATH [--dim-i N --dim-j N --dim-k N]\n"
      "             [--density D | --rank R --factor-density D\n"
      "              --additive-noise D --destructive-noise D\n"
      "              --truth-prefix PFX | --shrink S] [--seed N]\n"
      "  factorize  --input=PATH\n"
      "             [--algorithm=dbtf|bcp-als|walk-n-merge|tucker]\n"
      "             [--rank R --max-iterations T --seed N\n"
      "              --output-prefix PFX --time-budget-seconds S]\n"
      "             dbtf: [--initial-sets L --partitions N --machines M\n"
      "                    --cache-group-size V --max-retries K\n"
      "                    --kernel=auto|portable|avx2|avx512 (Boolean\n"
      "                    kernel backend; auto picks the widest SIMD level\n"
      "                    the CPU supports, results are bitwise identical;\n"
      "                    default from $DBTF_KERNEL when set)\n"
      "                    --transport=inproc|socket (socket runs one\n"
      "                    dbtf-worker process per machine; factors and\n"
      "                    ledgers are bitwise identical across transports)\n"
      "                    --socket-dir DIR --worker-binary PATH\n"
      "                    --no-delta-broadcast (ship full operand matrices\n"
      "                    every update instead of changed columns)\n"
      "                    --fault-seed S | --fault-plan PLAN\n"
      "                    --checkpoint-dir DIR (durable snapshots; resume\n"
      "                    with --resume) --checkpoint-every-columns N\n"
      "                    --checkpoint-retention K --resume\n"
      "                    --crash-after-columns N (SIGKILL drill)\n"
      "                    --halt-after-columns N (clean abort drill)]\n"
      "                   PLAN: comma-separated machine:message:kind@delivery\n"
      "                   entries, e.g. 1:dispatch:transient@2,2:broadcast:crash@1\n"
      "             bcp-als: [--asso-candidates C]\n"
      "             walk-n-merge: [--density-threshold T]\n"
      "             tucker: [--restarts K]\n"
      "  eval       --input=PATH --factors-prefix=PFX\n"
      "  info       --input=PATH\n"
      "  select-rank --input=PATH [--max-rank R --max-iterations T\n"
      "              --initial-sets L --seed N]\n"
      "  serve      drive a YCSB-style query workload against planted\n"
      "             factors resident on the cluster's workers\n"
      "             [--dim-i N --dim-j N --dim-k N --rank R --top-r R\n"
      "              --ops N --seed N\n"
      "              --skew=uniform|normal|lognormal|weblog\n"
      "              --membership-ratio D --fiber-ratio D --top-ratio D\n"
      "              --update-ratio D (relative weights of the op mix)\n"
      "              --machines M --transport=inproc|socket\n"
      "              --socket-dir DIR --worker-binary PATH\n"
      "              --fault-plan PLAN\n"
      "              --kernel=auto|portable|avx2|avx512]\n";
}

int RunCli(int argc, const char* const* argv) {
  FlagParser flags(argc, argv);
  const std::vector<std::string>& positional = flags.positional();
  if (positional.empty() || positional[0] == "help") {
    (void)std::fputs(UsageText().c_str(), positional.empty() ? stderr : stdout);
    return positional.empty() ? 2 : 0;
  }
  const std::string& command = positional[0];
  Status status;
  if (command == "generate") {
    status = RunGenerate(&flags);
  } else if (command == "factorize") {
    status = RunFactorize(&flags);
  } else if (command == "eval") {
    status = RunEval(&flags);
  } else if (command == "info") {
    status = RunInfo(&flags);
  } else if (command == "select-rank") {
    status = RunSelectRank(&flags);
  } else if (command == "serve") {
    status = RunServe(&flags);
  } else {
    (void)std::fprintf(stderr, "unknown command '%s'\n\n%s", command.c_str(),
                       UsageText().c_str());
    return 2;
  }
  if (!status.ok()) {
    (void)std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace cli
}  // namespace dbtf
