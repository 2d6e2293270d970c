#ifndef DBTF_BENCH_SUITE_SUITE_H_
#define DBTF_BENCH_SUITE_SUITE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/transport/transport.h"
#include "tensor/bit_matrix.h"
#include "trace.h"

namespace dbtf {
namespace bench {

/// The cluster every workload runs on: 4 simulated machines, which the
/// socket transport backs with 4 dbtf-worker processes.
constexpr int kMachines = 4;

/// How one workload run is driven.
struct RunOptions {
  std::uint64_t seed = 1;  ///< every input is derived from it
  double seconds = 25.0;   ///< length of the timed phase, all repeats together
  bool smoke = false;      ///< 128^3 inputs, one repeat: checks, no timings
  /// Non-null for the traced run: spans and counters for the per-layer
  /// metrics. The untraced run measures the end-to-end metrics.
  TraceRecorder* trace = nullptr;
  /// Socket-transport settings (empty: the transport's defaults).
  std::string socket_dir;
  std::string worker_binary;
};

/// What one workload run reports.
struct RunReport {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  std::int64_t attempted = 0;  ///< timed operations issued
  std::int64_t failed = 0;     ///< of which returned an error
  /// Failed correctness checks and how often each failed; empty when the
  /// outputs are correct.
  std::map<std::string, std::int64_t> check_failures;
  std::map<std::string, Metric> metrics;
  /// Context printed beside the metrics (sample counts, percentiles used).
  std::map<std::string, double> info;
  /// Factor digest per factorization seed, for cross-transport comparison.
  std::map<std::uint64_t, std::uint64_t> digests;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) ++check_failures[what];
  }
};

/// factorize-inproc / factorize-socket.
Status RunFactorizeWorkload(TransportKind transport, const RunOptions& options,
                            RunReport* report);

/// serve-read / serve-mixed.
Status RunServeWorkload(bool mixed, const RunOptions& options,
                        RunReport* report);

/// Scales timings to an uncontended core. The benchmark host is a virtual
/// machine whose cores are shared with other tenants: code that keeps a
/// core's execution units busy, as the Boolean kernels do, runs up to 40%
/// slower while a neighbour does the same, and that changes from one minute
/// to the next. HostSpeed times a fixed loop of that kind (popcounts over
/// an L1-resident buffer, about 0.25 ms) on the calling thread. A timing
/// multiplied by Scale() taken just before it reads as on a quiet core.
class HostSpeed {
 public:
  HostSpeed();
  /// Runs the loop once; returns its time on a quiet core divided by its
  /// time now.
  double Scale();

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t sink_ = 0;  ///< keeps the loop's result live
};

/// Binds this process, and the processes it starts later, to the CPU it
/// runs on.
Status PinToCurrentCpu();

/// Independent stream `salt` of the run's inputs.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);

/// Transport options for the run's cluster.
TransportOptions BenchTransport(TransportKind kind, const RunOptions& options);

/// The dbtf-worker daemon of the build tree this executable belongs to:
/// benchmark executables land in <build>/bench/ and the daemon in
/// <build>/tools/, so the transport's default (a sibling of the running
/// executable) would miss it. Empty when $DBTF_WORKER_BIN is set, which the
/// transport then honours.
std::string WorkerBinaryFromBuildTree();

/// FNV-1a over the packed words of `matrices`.
std::uint64_t DigestFactors(const std::vector<const BitMatrix*>& matrices);

/// Peak resident set (VmHWM) of this process, in MiB. Unlike getrusage's
/// ru_maxrss it covers only this program's own address space, not what the
/// process that forked it held before the exec.
double PeakRssMiB();

/// The largest peak resident set among the cluster's worker processes, in
/// MiB; 0 over the in-process transport. Call before the workers exit.
double WorkerPeakRssMiB(const Cluster& cluster);

/// Median of the samples of counter `name`; 0 when it was never recorded.
double CounterMedian(const TraceRecorder& trace, const std::string& name);

/// Measures the xor_popcount and or_into kernels over rows of `width_bits`
/// bits and reports their throughput as kernels.*_gibps.
void ReportKernels(std::int64_t width_bits, TraceRecorder* trace,
                   RunReport* report);

}  // namespace bench
}  // namespace dbtf

#endif  // DBTF_BENCH_SUITE_SUITE_H_
