#include "suite.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <limits>
#include <memory>
#include <vector>

#include "common/bitops.h"
#include "common/env.h"
#include "common/kernels/kernels.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/timer.h"
#include "stats.h"

namespace dbtf {
namespace bench {

namespace {

constexpr std::size_t kProbeWords = 4096;  // 32 KiB
constexpr int kProbePasses = 32;
/// The loop's time on an idle core of the 4-vCPU Xeon host the benchmark
/// was sized on, in a quiet minute.
constexpr double kQuietProbeMs = 0.25;

}  // namespace

HostSpeed::HostSpeed() : words_(kProbeWords) {
  Rng rng(0x73706565ULL);
  for (std::uint64_t& w : words_) w = rng.NextUint64();
}

double HostSpeed::Scale() {
  const Timer timer;
  // Four independent sums keep the execution units busy, unlike one
  // dependent chain, which a neighbour on the same core barely slows.
  std::uint64_t acc[4] = {0, 0, 0, 0};
  for (int pass = 0; pass < kProbePasses; ++pass) {
    const std::uint64_t salt = static_cast<std::uint64_t>(pass);
    for (std::size_t i = 0; i + 8 <= words_.size(); i += 8) {
      for (std::size_t k = 0; k < 4; ++k) {
        acc[k] += static_cast<std::uint64_t>(
            std::popcount(words_[i + k] ^ words_[i + k + 4] ^ salt));
      }
    }
  }
  sink_ += acc[0] + acc[1] + acc[2] + acc[3];
  return kQuietProbeMs / (timer.ElapsedSeconds() * 1e3);
}

Status PinToCurrentCpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return Status::Internal("sched_getcpu failed");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    return Status::Internal("sched_setaffinity failed");
  }
  return Status::OK();
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  return SplitMix64(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).Next();
}

TransportOptions BenchTransport(TransportKind kind,
                                const RunOptions& options) {
  TransportOptions transport;
  transport.kind = kind;
  if (kind == TransportKind::kSocket) {
    transport.socket_dir = options.socket_dir;
    transport.worker_binary = options.worker_binary;
  }
  return transport;
}

std::string WorkerBinaryFromBuildTree() {
  if (!GetEnvString("DBTF_WORKER_BIN", "").empty()) return "";
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return "";
  const std::string self(exe, static_cast<std::size_t>(n));
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "";
  return self.substr(0, slash) + "/../tools/dbtf-worker";
}

std::uint64_t DigestFactors(const std::vector<const BitMatrix*>& matrices) {
  std::vector<std::uint64_t> parts;
  for (const BitMatrix* m : matrices) {
    const BitSpan words = m->Words();
    parts.push_back(static_cast<std::uint64_t>(m->rows()));
    parts.push_back(static_cast<std::uint64_t>(m->cols()));
    parts.push_back(
        Fnv1a64(words.data(), words.words() * sizeof(BitWord)));
  }
  return Fnv1a64(parts.data(), parts.size() * sizeof(std::uint64_t));
}

namespace {

/// VmHWM of /proc/<pid>/status in MiB; 0 when the process is gone.
double VmHwmMiB(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

}  // namespace

double PeakRssMiB() { return VmHwmMiB("self"); }

double WorkerPeakRssMiB(const Cluster& cluster) {
  double peak = 0.0;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    const std::shared_ptr<WorkerEndpoint> endpoint = cluster.EndpointOn(m);
    if (endpoint == nullptr) continue;
    const Result<int> pid = endpoint->ProcessId();
    if (pid.ok()) peak = std::max(peak, VmHwmMiB(std::to_string(*pid)));
  }
  return peak;
}

double CounterMedian(const TraceRecorder& trace, const std::string& name) {
  const auto it = trace.counters().find(name);
  return it == trace.counters().end() ? 0.0 : Median(it->second);
}

void ReportKernels(std::int64_t width_bits, TraceRecorder* trace,
                   RunReport* report) {
  // 4096 rows stay cache-resident (256 KiB at 512 bits), so this measures
  // the kernels, not memory bandwidth.
  constexpr std::size_t kRows = 4096;
  constexpr int kSamples = 5;
  constexpr double kSampleSeconds = 0.02;
  const std::size_t bits = static_cast<std::size_t>(width_bits);
  const std::size_t words = WordsForBits(bits);
  std::vector<BitWord> rows(kRows * words);
  Rng rng(0x6b65726eULL);
  for (BitWord& w : rows) w = rng.NextUint64();
  const auto row = [&](std::size_t r) {
    return MutableBitSpan(rows.data() + r * words, bits);
  };
  const double pass_gib = static_cast<double>((kRows - 1) * 2 * words *
                                              sizeof(BitWord)) /
                          (1024.0 * 1024.0 * 1024.0);
  // The active table's entries are function pointers, so no call is elided.
  const BoolKernels& k = Kernels();
  for (int s = 0; s < kSamples; ++s) {
    int passes = 0;
    const Timer xor_timer;
    do {
      for (std::size_t r = 0; r + 1 < kRows; ++r) {
        (void)k.xor_popcount(row(r), row(r + 1));
      }
      ++passes;
    } while (xor_timer.ElapsedSeconds() < kSampleSeconds);
    trace->Count("kernels.xor_popcount_gibps",
                 passes * pass_gib / xor_timer.ElapsedSeconds());

    passes = 0;
    const Timer or_timer;
    do {
      for (std::size_t r = 0; r + 1 < kRows; ++r) k.or_into(row(r), row(r + 1));
      ++passes;
    } while (or_timer.ElapsedSeconds() < kSampleSeconds);
    trace->Count("kernels.or_into_gibps",
                 passes * pass_gib / or_timer.ElapsedSeconds());
  }
  for (const char* name :
       {"kernels.xor_popcount_gibps", "kernels.or_into_gibps"}) {
    report->Set(name, CounterMedian(*trace, name), "GiB/s");
  }
}

}  // namespace bench
}  // namespace dbtf
