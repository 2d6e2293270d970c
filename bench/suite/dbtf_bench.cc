// The repository benchmark: runs one workload and reports its metrics.
//
//   dbtf_bench --workload=NAME --seed=S [--seconds=T] [--trace=FILE]
//              [--smoke] [--socket-dir=DIR]
//
// Without --trace the run measures the end-to-end metrics; with it, the
// per-layer metrics, and FILE receives the spans as Chrome trace-event
// JSON. Every metric is printed as "workload metric value unit", then the
// last line is one JSON object: {"correct", "attempted", "failed",
// "metrics", "digests"}. The exit code is 1 when a correctness check
// failed and 2 on a usage error. bench/suite/run.py builds this binary and
// is the benchmark's entry point; see bench/suite/README.md.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "suite.h"

namespace dbtf {
namespace bench {
namespace {

constexpr const char* kUsage =
    "usage: dbtf_bench --workload=factorize-inproc|factorize-socket|"
    "serve-read|serve-mixed\n"
    "                  [--seed=S] [--seconds=T] [--trace=FILE] [--smoke]\n"
    "                  [--socket-dir=DIR]\n";

/// Spans exported to the trace file (about 15 MB); a serve run records one
/// per query, more than a viewer loads comfortably.
constexpr std::size_t kMaxTraceEvents = 100000;

Status RunWorkload(const std::string& workload, const RunOptions& options,
                   RunReport* report) {
  if (workload == "factorize-inproc") {
    return RunFactorizeWorkload(TransportKind::kInProcess, options, report);
  }
  if (workload == "factorize-socket") {
    return RunFactorizeWorkload(TransportKind::kSocket, options, report);
  }
  if (workload == "serve-read") return RunServeWorkload(false, options, report);
  if (workload == "serve-mixed") return RunServeWorkload(true, options, report);
  return Status::InvalidArgument("unknown workload '" + workload + "'");
}

void PrintReport(const std::string& workload, const RunReport& report) {
  for (const auto& [name, value] : report.info) {
    std::fprintf(stderr, "# %s %s %.17g\n", workload.c_str(), name.c_str(),
                 value);
  }
  const auto used = report.info.find("tail_percentile");
  const auto supported = report.info.find("tail_supported_percentile");
  if (used != report.info.end() && supported != report.info.end() &&
      supported->second < used->second) {
    std::fprintf(stderr,
                 "warning: too few samples for a p%g tail (fewer than 10 "
                 "beyond it)\n",
                 used->second);
  }
  for (const auto& [failure, times] : report.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s (%lld times)\n", failure.c_str(),
                 static_cast<long long>(times));
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s %s %.17g %s\n", workload.c_str(), name.c_str(),
                metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.check_failures.empty() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  const char* sep = "";
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}, \"digests\": {");
  sep = "";
  for (const auto& [seed, digest] : report.digests) {
    std::printf("%s\"%llu\": \"%016llx\"", sep,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(digest));
    sep = ", ";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const std::string trace_path = flags.GetString("trace", "");
  RunOptions options;
  options.socket_dir = flags.GetString("socket-dir", "");
  const Status flag_status = [&]() -> Status {
    std::int64_t seed = 0;
    DBTF_ASSIGN_OR_RETURN(seed, flags.GetInt64("seed", 1));
    options.seed = static_cast<std::uint64_t>(seed);
    DBTF_ASSIGN_OR_RETURN(options.seconds,
                          flags.GetDouble("seconds", options.seconds));
    DBTF_ASSIGN_OR_RETURN(options.smoke, flags.GetBool("smoke", false));
    if (options.seconds <= 0.0) {
      return Status::InvalidArgument("--seconds must be positive");
    }
    return flags.Finish();
  }();
  if (!flag_status.ok() || workload.empty()) {
    std::fprintf(stderr, "%s\n%s", flag_status.ToString().c_str(), kUsage);
    return 2;
  }
  options.worker_binary = WorkerBinaryFromBuildTree();

  TraceRecorder recorder;
  if (!trace_path.empty()) options.trace = &recorder;
  RunReport report;
  const Status status = RunWorkload(workload, options, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", workload.c_str(),
                 status.ToString().c_str());
    return status.code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  if (options.trace != nullptr) {
    const Status written =
        recorder.WriteChromeTrace(trace_path, kMaxTraceEvents);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  PrintReport(workload, report);
  return report.check_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace dbtf

int main(int argc, char** argv) { return dbtf::bench::Main(argc, argv); }
