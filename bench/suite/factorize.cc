// factorize-inproc and factorize-socket: repeated warm Session::Factorize
// calls over one planted tensor, with session setup timed on its own.

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/timer.h"
#include "dbtf/cache_table.h"
#include "dbtf/config.h"
#include "dbtf/dbtf.h"
#include "dbtf/engine.h"
#include "dbtf/partition.h"
#include "dbtf/session.h"
#include "common/random.h"
#include "dist/messages.h"
#include "dist/transport/wire.h"
#include "stats.h"
#include "suite.h"
#include "tensor/boolean_ops.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace bench {
namespace {

/// The tensor is kDim^3, about 142 000 non-zeros. All four machines run on
/// one CPU, so they share its caches: 160^3 holds a quarter of the
/// non-zeros of 256^3, where each machine's share alone filled a core's
/// L2. On one CPU, the socket tail spread by 16% over runs at 256^3
/// against 5% at 160^3, and a session made too few socket calls for a p90
/// with ten samples beyond it.
constexpr std::int64_t kDim = 160;
constexpr std::int64_t kRank = 10;
constexpr double kFactorDensity = 0.15;
constexpr double kAdditiveNoise = 0.05;
constexpr std::int64_t kPartitions = 32;
/// Every call runs exactly two iterations — the initial set, then one
/// refinement — so each timed call does the same work whatever its seed;
/// seeds converging after 2, 3 or 4 iterations would make the latency
/// median jump between modes.
constexpr int kIterations = 2;
/// Factorization seeds cycle through a fixed set, so every seed runs in
/// every session and its factors can be compared across sessions.
constexpr std::size_t kSeedCycle = 8;
/// Set-up is timed once per session, and each session's calls are one
/// segment of the timed phase. Every metric is the median over sessions,
/// so one disturbed stretch of the run moves none of them.
constexpr std::size_t kSessions = 5;
/// A session of a 25 s run made at least 120 socket calls and 220
/// in-process ones, so at least 12 samples lie beyond its p90.
constexpr double kTailPercentile = 90.0;

/// What every factorization of one seed must reproduce.
struct Expected {
  std::uint64_t digest = 0;
  std::int64_t final_error = 0;
};

double Micros(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// A dim x kRank factor whose every column holds exactly `ones` rows.
BitMatrix ExactFactor(std::int64_t dim, std::int64_t ones, Rng* rng) {
  BitMatrix m(dim, kRank);
  std::vector<std::int64_t> rows(static_cast<std::size_t>(dim));
  for (std::int64_t r = 0; r < dim; ++r) rows[static_cast<std::size_t>(r)] = r;
  for (std::int64_t c = 0; c < kRank; ++c) {
    for (std::int64_t n = 0; n < ones; ++n) {  // partial Fisher-Yates
      const std::size_t pick = static_cast<std::size_t>(
          n + static_cast<std::int64_t>(rng->NextBounded(
                  static_cast<std::uint64_t>(dim - n))));
      std::swap(rows[static_cast<std::size_t>(n)], rows[pick]);
      m.Set(rows[static_cast<std::size_t>(n)], c, true);
    }
  }
  return m;
}

/// The planted dim^3 tensor: the OR of kRank rank-1 blocks plus
/// kAdditiveNoise x nnz uniformly random cells. Every factor column holds
/// exactly kFactorDensity x dim ones, which keeps nnz — and with it set-up
/// time and memory — within a fraction of a percent from seed to seed;
/// GeneratePlanted draws each factor entry independently, which moves nnz
/// by several percent.
Result<SparseTensor> PlantedTensor(std::int64_t dim, std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t ones =
      static_cast<std::int64_t>(kFactorDensity * static_cast<double>(dim));
  const BitMatrix a = ExactFactor(dim, ones, &rng);
  const BitMatrix b = ExactFactor(dim, ones, &rng);
  const BitMatrix c = ExactFactor(dim, ones, &rng);
  DBTF_ASSIGN_OR_RETURN(SparseTensor x, ReconstructTensor(a, b, c));
  const std::int64_t noise = static_cast<std::int64_t>(
      kAdditiveNoise * static_cast<double>(x.NumNonZeros()));
  const auto coordinate = [&]() {
    return static_cast<std::uint32_t>(
        rng.NextBounded(static_cast<std::uint64_t>(dim)));
  };
  for (std::int64_t n = 0; n < noise; ++n) {
    const std::uint32_t i = coordinate();
    const std::uint32_t j = coordinate();
    x.AddUnchecked(i, j, coordinate());
  }
  x.SortAndDedup();
  return x;
}

/// Checks one result against the seed's first result and against bounds
/// that hold for any correct factorization.
void CheckResult(const DbtfResult& r, std::uint64_t seed, std::int64_t nnz,
                 std::map<std::uint64_t, Expected>* expected,
                 RunReport* report) {
  const std::uint64_t digest = DigestFactors({&r.a, &r.b, &r.c});
  const auto [it, first] =
      expected->emplace(seed, Expected{digest, r.final_error});
  report->digests[seed] = it->second.digest;
  if (!first) {
    report->Check(it->second.digest == digest &&
                      it->second.final_error == r.final_error,
                  "factorization seed " + std::to_string(seed) +
                      " gave different factors in a later call");
  }
  // The all-zero factorization has error nnz, and each iteration only
  // keeps a column when it lowers the error.
  report->Check(r.final_error <= nnz, "final error exceeds the tensor's nnz");
  report->Check(std::is_sorted(r.iteration_errors.rbegin(),
                               r.iteration_errors.rend()),
                "iteration errors increased");
  report->Check(r.recovery.failed_deliveries == 0 &&
                    r.recovery.machines_lost == 0 &&
                    r.recovery.reprovisions == 0,
                "a fault-free run went through recovery");
}

/// Traced only: the setup layers — partitioning, and on sockets the
/// encoding of every partition the driver ships.
Status ProbeSetup(const SparseTensor& x, bool socket, TraceRecorder* trace) {
  for (const Mode mode : {Mode::kOne, Mode::kTwo, Mode::kThree}) {
    const std::int64_t start = TraceRecorder::NowNs();
    DBTF_ASSIGN_OR_RETURN(PartitionedUnfolding unfolding,
                          PartitionedUnfolding::Build(x, mode, kPartitions));
    trace->Add("dbtf.partition_build", start, TraceRecorder::NowNs(), 0);
    if (!socket) continue;
    const UnfoldShape shape = unfolding.shape();
    std::vector<Partition> parts = std::move(unfolding).ReleasePartitions();
    std::vector<StorePartitionRequest> requests(parts.size());
    for (std::size_t p = 0; p < parts.size(); ++p) {
      requests[p].mode = mode;
      requests[p].index = static_cast<std::int64_t>(p);
      requests[p].shape = shape;
      requests[p].partition = std::move(parts[p]);
    }
    ScopedSpan span(trace, "transport.store_partition_encode");
    for (const StorePartitionRequest& request : requests) {
      ByteWriter w;
      EncodeStorePartitionRequest(request, &w);
    }
  }
  return Status::OK();
}

/// Traced only: after a Factorize call, replays one mode-1 factor update
/// from that call's factors layer by layer — broadcast plan and send, the
/// update with one span per column, every column again through the routing
/// layer alone (and, on sockets, the wire codecs), and a rebuilt cache
/// table. Calls into the layers cannot be elided: they are opaque to this
/// file, through other translation units or function pointers.
Status ProbeUpdate(Session* session, const SparseTensor& x,
                   const DbtfResult& r, const DbtfConfig& config, bool socket,
                   std::uint64_t request, TraceRecorder* trace) {
  Cluster& cluster = session->cluster();
  const UnfoldShape shape =
      ShapeForMode(x.dim_i(), x.dim_j(), x.dim_k(), Mode::kOne);
  const FactorRoles roles;  // mode 1: A under update, M_f = C, M_s = B
  FactorBroadcastState bstate(config.enable_delta_broadcast);

  std::int64_t t = TraceRecorder::NowNs();
  const FactorDelta plan =
      bstate.Plan(roles, Mode::kOne, shape.rows, r.c, r.b, config);
  trace->Add("dbtf.broadcast_plan", t, TraceRecorder::NowNs(), request);
  {
    FactorDelta sent = plan;
    ScopedSpan span(trace, "dist.broadcast", request);
    DBTF_RETURN_IF_ERROR(cluster.BroadcastFactors(std::move(sent)));
  }
  bstate.Commit(roles, r.c, r.b);
  if (socket) {
    ByteWriter w;
    t = TraceRecorder::NowNs();
    EncodeFactorDelta(plan, &w);
    trace->Add("transport.encode_factor_delta", t, TraceRecorder::NowNs(),
               request);
    t = TraceRecorder::NowNs();
    (void)Crc32(w.bytes().data(), w.size());
    const std::int64_t crc_ns = TraceRecorder::NowNs() - t;
    trace->Count("transport.frame_crc_us_per_mib",
                 Micros(crc_ns) /
                     (static_cast<double>(w.size()) / (1024.0 * 1024.0)));
  }

  // The update itself; the workers already hold this plan's operands, so
  // its own broadcast is an empty delta and column 0 starts at once.
  BitMatrix a = r.a;
  std::vector<std::int64_t> column_ns;
  {
    ScopedSpan span(trace, "dbtf.factor_update", request);
    std::int64_t column_start = TraceRecorder::NowNs();
    const ColumnCompletedFn on_column =
        [&](std::int64_t, const UpdateFactorStats&) -> Status {
      const std::int64_t now = TraceRecorder::NowNs();
      trace->Add("dbtf.column", column_start, now, request);
      column_ns.push_back(now - column_start);
      column_start = now;
      return Status::OK();
    };
    DBTF_RETURN_IF_ERROR(RunFactorUpdate(&cluster, Mode::kOne, shape, &a, r.c,
                                         r.b, config, nullptr, roles, &bstate,
                                         on_column)
                             .status());
  }

  // Every column again, through the routing layer alone. What a column
  // span adds on top of its replay is the driver's decision loop; column 0
  // also carries the update's broadcast, so it is left out of that
  // difference.
  RunUpdateColumn run;
  run.mode = Mode::kOne;
  run.rows = shape.rows;
  for (std::int64_t i = 0; i < shape.rows; ++i) {
    run.row_masks.push_back(a.RowMask64(i));
  }
  CollectErrorsRequest collect;
  collect.mode = Mode::kOne;
  collect.rows = shape.rows;
  CollectErrorsResponse response;
  for (std::int64_t c = 0; c < config.rank; ++c) {
    run.column = c;
    RunUpdateColumn routed = run;
    std::vector<double> cpu_before;
    for (int m = 0; m < cluster.num_machines(); ++m) {
      cpu_before.push_back(cluster.MachineComputeSeconds(m));
    }
    t = TraceRecorder::NowNs();
    DBTF_RETURN_IF_ERROR(
        cluster.RunColumn(std::move(routed), collect, &response));
    const std::int64_t run_column_ns = TraceRecorder::NowNs() - t;
    trace->Add("dist.run_column", t, t + run_column_ns, request);
    double cpu_max = 0.0;
    for (int m = 0; m < cluster.num_machines(); ++m) {
      cpu_max = std::max(cpu_max, cluster.MachineComputeSeconds(m) -
                                      cpu_before[static_cast<std::size_t>(m)]);
    }
    trace->Count("dist.column_wait_us",
                 Micros(run_column_ns) - cpu_max * 1e6);
    if (c > 0 && static_cast<std::size_t>(c) < column_ns.size()) {
      trace->Count("dbtf.decide_us",
                   Micros(column_ns[static_cast<std::size_t>(c)] -
                          run_column_ns));
    }
  }
  if (socket) {
    ByteWriter w;
    t = TraceRecorder::NowNs();
    EncodeRunUpdateColumn(run, &w);
    trace->Add("transport.encode_run_update_column", t, TraceRecorder::NowNs(),
               request);
    ByteWriter encoded;
    EncodeCollectErrorsResponse(response, &encoded);
    ByteReader reader(encoded.bytes());
    t = TraceRecorder::NowNs();
    const Result<CollectErrorsResponse> decoded =
        DecodeCollectErrorsResponse(&reader);
    trace->Add("transport.decode_collect_response", t, TraceRecorder::NowNs(),
               request);
    DBTF_RETURN_IF_ERROR(decoded.status());
  }

  // One partition's cache table for this update's M_s^T, built and then
  // probed with the update's keys (a row of A AND a row of M_f).
  const BitMatrix ms_t = r.b.Transpose();
  std::vector<std::uint64_t> keys;
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t q = 0; q < r.c.rows(); ++q) {
      const std::uint64_t key = a.RowMask64(i) & r.c.RowMask64(q);
      if (key != 0) keys.push_back(key);
    }
  }
  if (keys.empty()) return Status::OK();
  std::vector<BitWord> scratch(static_cast<std::size_t>(ms_t.words_per_row()));
  const MutableBitSpan scratch_span(scratch.data(),
                                    scratch.size() * kBitsPerWord);
  t = TraceRecorder::NowNs();
  DBTF_ASSIGN_OR_RETURN(
      const CacheTable table,
      CacheTable::Build(ms_t, config.cache_group_size, config.enable_caching));
  for (const std::uint64_t key : keys) {
    (void)table.Lookup(key, 0, ms_t.words_per_row(), scratch_span);
  }
  trace->Add("dbtf.cache_build", t, TraceRecorder::NowNs(), request);
  t = TraceRecorder::NowNs();
  for (const std::uint64_t key : keys) {
    (void)table.Lookup(key, 0, ms_t.words_per_row(), scratch_span);
  }
  const std::int64_t lookup_ns = TraceRecorder::NowNs() - t;
  trace->Add("dbtf.cache_lookup", t, t + lookup_ns, request);
  trace->Count("dbtf.cache_lookup_ns", static_cast<double>(lookup_ns) /
                                           static_cast<double>(keys.size()));
  trace->Count("dbtf.cache_fill_ratio",
               static_cast<double>(table.entries_built()) /
                   static_cast<double>(table.total_entries()));
  return Status::OK();
}

/// Traced only: per-call counters from the result and the virtual clocks.
void CountResult(const DbtfResult& r, const Cluster& cluster,
                 double shuffle_seconds, TraceRecorder* trace) {
  trace->Count("dbtf.virtual_makespan_s", r.virtual_seconds);
  trace->Count("dbtf.cells_changed", static_cast<double>(r.cells_changed));
  trace->Count("dbtf.iterations", r.iterations_run);
  trace->Count("dbtf.cache_bytes", static_cast<double>(r.cache_bytes));
  trace->Count("dist.collect_bytes", static_cast<double>(r.comm.collect_bytes));
  trace->Count("dist.collect_events",
               static_cast<double>(r.comm.collect_events));
  trace->Count("dist.broadcast_bytes",
               static_cast<double>(r.comm.broadcast_bytes));
  trace->Count("dist.shuffle_bytes", static_cast<double>(r.comm.shuffle_bytes));
  // Each run starts its machine clocks at the session's modeled shuffle
  // time; the rest is the workers' handler CPU.
  double sum = 0.0;
  double max = 0.0;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    const double cpu = cluster.MachineComputeSeconds(m) - shuffle_seconds;
    sum += cpu;
    max = std::max(max, cpu);
  }
  trace->Count("dist.worker_cpu_s", sum);
  trace->Count("dist.worker_cpu_max_s", max);
  if (sum > 0.0) {
    trace->Count("dist.worker_imbalance", max * cluster.num_machines() / sum);
  }
}

/// The per-layer metrics of a traced run.
void ReportTraced(const TraceRecorder& trace, bool socket,
                  double overhead_ratio, RunReport* report) {
  const auto span_us = [&](const char* name) {
    return Median(trace.Micros(name));
  };
  const auto counter = [&](const char* name) {
    return CounterMedian(trace, name);
  };
  report->Set("trace.overhead_ratio", overhead_ratio, "ratio");

  // A factor update's self time is what its column spans leave uncovered.
  const std::vector<double> update_us = trace.Micros("dbtf.factor_update");
  const std::vector<double> update_self_us =
      trace.Micros("dbtf.factor_update", /*self=*/true);
  double coverage = 1.0;
  for (std::size_t i = 0; i < update_us.size(); ++i) {
    coverage = std::min(coverage, 1.0 - update_self_us[i] / update_us[i]);
  }
  report->Check(!update_us.empty(), "no factor update was probed");
  report->Check(coverage >= 0.9,
                "column spans cover under 90% of a factor update");
  report->Set("trace.update_coverage_ratio", coverage, "ratio");
  report->Set("dbtf.factor_update_ms", Median(update_us) / 1e3, "ms");
  report->Set("dbtf.factor_update_self_us", Median(update_self_us), "us");
  const double column_us = span_us("dbtf.column");
  const double run_column_us = span_us("dist.run_column");
  report->Set("dbtf.column_us", column_us, "us");
  report->Set("dbtf.decide_us", counter("dbtf.decide_us"), "us");
  report->Set("dbtf.broadcast_plan_us", span_us("dbtf.broadcast_plan"), "us");
  report->Set("dbtf.cache_build_us", span_us("dbtf.cache_build"), "us");
  report->Set("dbtf.cache_lookup_ns", counter("dbtf.cache_lookup_ns"), "ns");
  report->Set("dbtf.cache_fill_ratio", counter("dbtf.cache_fill_ratio"),
              "ratio");
  report->Set("dbtf.cache_bytes", counter("dbtf.cache_bytes"), "bytes");
  report->Set("dbtf.cells_changed", counter("dbtf.cells_changed"), "count");
  report->Set("dbtf.iterations", counter("dbtf.iterations"), "count");
  report->Set("dbtf.virtual_makespan_s", counter("dbtf.virtual_makespan_s"),
              "s");
  double partition_us = 0.0;
  for (const double us : trace.Micros("dbtf.partition_build")) {
    partition_us += us;
  }
  report->Set("dbtf.partition_build_s", partition_us / 1e6, "s");

  report->Set("dist.run_column_us", run_column_us, "us");
  report->Set("dist.column_wait_us", counter("dist.column_wait_us"), "us");
  report->Set("dist.collect_bytes", counter("dist.collect_bytes"), "bytes");
  report->Set("dist.collect_events", counter("dist.collect_events"), "count");
  report->Set("dist.broadcast_bytes", counter("dist.broadcast_bytes"),
              "bytes");
  report->Set("dist.broadcast_us", span_us("dist.broadcast"), "us");
  report->Set("dist.worker_cpu_s", counter("dist.worker_cpu_s"), "s");
  report->Set("dist.worker_cpu_max_s", counter("dist.worker_cpu_max_s"), "s");
  report->Set("dist.worker_imbalance", counter("dist.worker_imbalance"),
              "ratio");
  report->Set("dist.shuffle_bytes", counter("dist.shuffle_bytes"), "bytes");

  if (!socket) return;  // the in-process transport encodes nothing
  report->Set("transport.encode_run_update_column_us",
              span_us("transport.encode_run_update_column"), "us");
  report->Set("transport.decode_collect_response_us",
              span_us("transport.decode_collect_response"), "us");
  report->Set("transport.encode_factor_delta_us",
              span_us("transport.encode_factor_delta"), "us");
  report->Set("transport.frame_crc_us_per_mib",
              counter("transport.frame_crc_us_per_mib"), "us/MiB");
  double store_us = 0.0;
  for (const double us : trace.Micros("transport.store_partition_encode")) {
    store_us += us;
  }
  report->Set("transport.store_partition_encode_ms", store_us / 1e3, "ms");
}

}  // namespace

Status RunFactorizeWorkload(TransportKind transport, const RunOptions& options,
                            RunReport* report) {
  const bool socket = transport == TransportKind::kSocket;
  TraceRecorder* trace = options.trace;
  // The driver, its one pool thread and the worker processes share one CPU,
  // as in the serve workloads. Spread over the host's CPUs, a call waited
  // on whichever CPU a neighbour tenant was loading at the time, and on the
  // hypervisor waking halted CPUs at every hand-off: the tail moved by half
  // between sets of runs of the same code. On one CPU a call costs the sum
  // of the machines' work plus the routing around it, which is what a
  // change to the code moves; the modeled parallel makespan is reported as
  // dbtf.virtual_makespan_s.
  DBTF_RETURN_IF_ERROR(PinToCurrentCpu());
  const std::int64_t dim = options.smoke ? 128 : kDim;
  DBTF_ASSIGN_OR_RETURN(const SparseTensor x,
                        PlantedTensor(dim, DeriveSeed(options.seed, 1)));
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = 0; k < kSeedCycle; ++k) {
    seeds.push_back(DeriveSeed(options.seed, 100 + k));
  }

  DbtfConfig config;
  config.rank = kRank;
  config.max_iterations = kIterations;
  config.num_partitions = kPartitions;
  config.cluster.num_machines = kMachines;
  config.cluster.num_threads = 1;
  config.cluster.transport = BenchTransport(transport, options);

  if (trace != nullptr) DBTF_RETURN_IF_ERROR(ProbeSetup(x, socket, trace));

  report->info["tensor_nnz"] = static_cast<double>(x.NumNonZeros());
  const std::size_t sessions = options.smoke ? 1 : kSessions;
  const double phase_seconds = options.seconds / static_cast<double>(sessions);
  std::map<std::uint64_t, Expected> expected;
  // Every timing is scaled to a quiet core by the probe taken just before
  // it.
  HostSpeed speed;
  std::vector<double> setup_seconds;
  std::vector<double> latency;         // untraced calls
  std::vector<double> traced_latency;  // traced calls (overhead ratio)
  std::vector<double> scales;
  // Per session, over its untraced calls.
  std::vector<double> session_p50;
  std::vector<double> session_tail;
  std::vector<double> session_throughput;
  std::size_t min_session_calls = 0;
  double driver_rss_mb = 0.0;
  double worker_rss_mb = 0.0;
  std::uint64_t call_id = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    // Set-up: everything a user pays before the first warm call — session
    // create (partition, place, shuffle, worker spawn) and the first
    // Factorize (lazy fiber index, first-contact broadcast).
    const double setup_scale = speed.Scale();
    const Timer setup;
    const std::int64_t create_start = TraceRecorder::NowNs();
    DBTF_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                          Session::Create(x, config));
    // Create leaves the clocks at the modeled shuffle time, which every
    // run charges to each machine before its first update.
    const double shuffle_seconds = session->cluster().VirtualMakespanSeconds();
    const std::int64_t warm_start = TraceRecorder::NowNs();
    config.seed = seeds[0];
    DBTF_ASSIGN_OR_RETURN(const DbtfResult warm, session->Factorize(config));
    setup_seconds.push_back(setup.ElapsedSeconds() * setup_scale);
    // The memory a user needs: the peak through the first set-up. Later
    // sessions reuse freed heap in an order that depends on which pool
    // thread allocated what, which moves the process's peak by up to 20%.
    if (s == 0) driver_rss_mb = PeakRssMiB();
    if (trace != nullptr) {
      trace->Add("setup.session_create", create_start, warm_start, 0);
      trace->Add("setup.first_factorize", warm_start, TraceRecorder::NowNs(),
                 0);
    }
    CheckResult(warm, seeds[0], x.NumNonZeros(), &expected, report);

    const std::size_t first_call = latency.size();
    const Timer phase;
    for (std::size_t k = 1; k == 1 || phase.ElapsedSeconds() < phase_seconds;
         ++k) {
      config.seed = seeds[k % kSeedCycle];
      // Traced runs trace every other pass over the seed cycle, so traced
      // and untraced calls factorize the same seeds.
      const bool traced = trace != nullptr && (k / kSeedCycle) % 2 == 1;
      ++call_id;
      ++report->attempted;
      const double scale = speed.Scale();
      const std::int64_t start = TraceRecorder::NowNs();
      Result<DbtfResult> result = session->Factorize(config);
      const std::int64_t end = TraceRecorder::NowNs();
      if (!result.ok()) {
        ++report->failed;
        continue;
      }
      CheckResult(*result, config.seed, x.NumNonZeros(), &expected, report);
      const double seconds = static_cast<double>(end - start) / 1e9;
      (traced ? traced_latency : latency).push_back(seconds * scale);
      scales.push_back(scale);
      if (traced) {
        trace->Add("factorize", start, end, call_id);
        CountResult(*result, session->cluster(), shuffle_seconds, trace);
        DBTF_RETURN_IF_ERROR(ProbeUpdate(session.get(), x, *result, config,
                                         socket, call_id, trace));
      }
    }
    const std::vector<double> calls(
        latency.begin() + static_cast<std::ptrdiff_t>(first_call),
        latency.end());
    double total = 0.0;
    for (const double l : calls) total += l;
    session_p50.push_back(Percentile(calls, 50));
    session_tail.push_back(Percentile(calls, kTailPercentile));
    session_throughput.push_back(static_cast<double>(calls.size()) / total);
    min_session_calls = s == 0 ? calls.size()
                               : std::min(min_session_calls, calls.size());
    worker_rss_mb =
        std::max(worker_rss_mb, WorkerPeakRssMiB(session->cluster()));
  }

  if (socket) {
    // The transports must agree bitwise: one reference factorization in
    // process, outside every timed phase.
    DbtfConfig reference = config;
    reference.cluster.transport = TransportOptions{};
    reference.seed = seeds[0];
    DBTF_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                          Session::Create(x, reference));
    DBTF_ASSIGN_OR_RETURN(const DbtfResult r, session->Factorize(reference));
    report->Check(DigestFactors({&r.a, &r.b, &r.c}) ==
                          expected[seeds[0]].digest &&
                      r.final_error == expected[seeds[0]].final_error,
                  "socket and in-process transports gave different factors");
  }

  if (trace == nullptr) {
    report->Set("setup_s", Median(setup_seconds), "s");
    report->Set("driver_rss_mb", driver_rss_mb, "MiB");
    report->Set("latency_p50_ms", Median(session_p50) * 1e3, "ms");
    report->Set("latency_tail_ms", Median(session_tail) * 1e3, "ms");
    report->Set("throughput_per_s", Median(session_throughput), "1/s");
    report->info["latency_samples"] = static_cast<double>(latency.size());
    report->info["min_calls_per_session"] =
        static_cast<double>(min_session_calls);
    report->info["host_speed_scale"] = Median(scales);
    report->info["tail_percentile"] = kTailPercentile;
    report->info["tail_supported_percentile"] =
        HighestSupportedPercentile(min_session_calls);
    return Status::OK();
  }
  ReportTraced(*trace, socket, Median(traced_latency) / Median(latency),
               report);
  if (socket) report->Set("dist.worker_rss_mb", worker_rss_mb, "MiB");
  ReportKernels(dim, trace, report);
  return Status::OK();
}

}  // namespace bench
}  // namespace dbtf
