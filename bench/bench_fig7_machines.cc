// Reproduces Figure 7: machine scalability. The paper reports T4/TM for
// M = 4..16 machines on I=J=K=2^12, density 0.01, R=10, reaching a 2.2x
// speedup at 16 machines. The host here is a single node, so speedups are
// reported on the simulated cluster's virtual makespan (per-machine compute
// time measured for real, plus the modeled driver/network time) — the same
// quantity a wall clock would show on a real cluster. See DESIGN.md.
//
// Each machine count runs twice — delta broadcasts on (default) and off —
// so the broadcast-byte reduction and its makespan effect are visible side
// by side. With --json <path>, the full per-run breakdown (virtual time
// split into machine/driver shares, ledger bytes and events) is written as
// a machine-readable report; CI uploads it as the BENCH_runtime artifact.
//
// --transport=socket reruns the same sweep with one OS process per machine
// (the socket transport), so the report pairs the MODELED makespan
// (virtual_seconds: max per-machine compute plus the network model) with a
// MEASURED multi-process makespan (wall_seconds: real processes, real
// frame I/O). The factors and ledgers are bitwise identical across
// transports, so any modeled-vs-measured gap is transport overhead, not a
// different computation. CI commits this report as BENCH_transport.json.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "dbtf/dbtf.h"
#include "dist/transport/transport.h"
#include "generator/generator.h"
#include "harness/harness.h"

namespace dbtf {
namespace bench {
namespace {

struct RunRecord {
  int machines = 0;
  bool delta_broadcast = true;
  DbtfResult result;
};

/// Hand-rolled JSON writer: the report is a flat list of numeric records, so
/// a printf per field keeps the benchmark dependency-free.
bool WriteJson(const std::string& path, TransportKind kind,
               const BenchOptions& options,
               const std::vector<RunRecord>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"fig7_machines\",\n"
               "  \"transport\": \"%s\",\n"
               "  \"scale\": %lld,\n  \"max_iterations\": %d,\n"
               "  \"runs\": [\n",
               TransportKindName(kind),
               static_cast<long long>(options.scale), options.max_iterations);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& run = runs[i];
    const DbtfResult& r = run.result;
    std::fprintf(
        f,
        "    {\"machines\": %d, \"delta_broadcast\": %s,\n"
        "     \"modeled_seconds\": %.9f, \"measured_seconds\": %.9f,\n"
        "     \"virtual_seconds\": %.9f, \"machine_seconds\": %.9f,\n"
        "     \"driver_seconds\": %.9f, \"wall_seconds\": %.9f,\n"
        "     \"broadcast_bytes\": %lld, \"broadcast_events\": %lld,\n"
        "     \"collect_bytes\": %lld, \"collect_events\": %lld,\n"
        "     \"shuffle_bytes\": %lld, \"final_error\": %lld}%s\n",
        run.machines, run.delta_broadcast ? "true" : "false",
        r.virtual_seconds, r.wall_seconds,
        r.virtual_seconds, r.machine_seconds, r.driver_seconds,
        r.wall_seconds, static_cast<long long>(r.comm.broadcast_bytes),
        static_cast<long long>(r.comm.broadcast_events),
        static_cast<long long>(r.comm.collect_bytes),
        static_cast<long long>(r.comm.collect_events),
        static_cast<long long>(r.comm.shuffle_bytes),
        static_cast<long long>(r.final_error),
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu runs)\n", path.c_str(), runs.size());
  return true;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string json_path = flags.GetString("json", "");
  const std::string transport_name = flags.GetString("transport", "inproc");
  if (const Status st = flags.Finish(); !st.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: bench_fig7_machines [--json PATH] "
                 "[--transport=inproc|socket]\n",
                 st.ToString().c_str());
    return 2;
  }
  const auto transport = ParseTransportKind(transport_name);
  if (!transport.ok()) {
    std::fprintf(stderr, "%s\n", transport.status().ToString().c_str());
    return 2;
  }

  const BenchOptions options = BenchOptions::FromEnv();
  PrintBanner("bench_fig7_machines",
              "Figure 7: T4/TM machine scalability (density=0.01, R=10)",
              options);

  // A planted tensor keeps the factors non-trivial so every machine has
  // real per-partition compute; uniform noise would collapse to the zero
  // factorization whose column updates are all O(1) fast-path lookups.
  PlantedSpec spec;
  const std::int64_t dim = std::int64_t{1} << (9 + options.scale);
  spec.dim_i = dim;
  spec.dim_j = dim;
  spec.dim_k = dim;
  spec.rank = 10;
  spec.factor_density = 0.2;
  spec.additive_noise = 0.05;
  spec.seed = 12;
  auto planted = GeneratePlanted(spec);
  if (!planted.ok()) return 1;
  const SparseTensor& tensor = planted->tensor;
  std::printf("tensor: %lld^3, nnz=%lld (planted rank 10), transport=%s\n",
              static_cast<long long>(dim),
              static_cast<long long>(tensor.NumNonZeros()),
              TransportKindName(*transport));

  TablePrinter table({"machines", "delta", "virtual time", "T4/TM",
                      "bcast MB", "wall time"});
  std::vector<RunRecord> runs;
  double t4 = -1.0;
  for (const int machines : {4, 8, 16}) {
    for (const bool delta : {true, false}) {
      DbtfConfig config;
      config.rank = 10;
      config.max_iterations = options.max_iterations;
      // The partitioning is fixed; only the machine count varies (as on a
      // real cluster, where N is chosen once per dataset).
      config.num_partitions = 32;
      config.cluster.num_machines = machines;
      config.cluster.transport.kind = *transport;
      config.enable_delta_broadcast = delta;
      auto result = Dbtf::Factorize(tensor, config);
      if (!result.ok()) {
        std::printf("DBTF failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      if (machines == 4 && delta) t4 = result->virtual_seconds;
      char virt[32];
      char ratio[32];
      char bcast[32];
      char wall[32];
      std::snprintf(virt, sizeof(virt), "%.3fs", result->virtual_seconds);
      std::snprintf(ratio, sizeof(ratio), "%.2fx",
                    t4 / result->virtual_seconds);
      std::snprintf(bcast, sizeof(bcast), "%.2f",
                    static_cast<double>(result->comm.broadcast_bytes) / 1e6);
      std::snprintf(wall, sizeof(wall), "%.3fs", result->wall_seconds);
      table.AddRow({std::to_string(machines), delta ? "on" : "off", virt,
                    ratio, bcast, wall});
      RunRecord record;
      record.machines = machines;
      record.delta_broadcast = delta;
      record.result = std::move(*result);
      runs.push_back(std::move(record));
    }
  }
  table.Print();
  std::printf(
      "paper shape: near-linear scaling; 2.2x speedup going from 4 to 16 "
      "machines.\n");
  if (!json_path.empty() && !WriteJson(json_path, *transport, options, runs)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dbtf

int main(int argc, char** argv) { return dbtf::bench::Main(argc, argv); }
