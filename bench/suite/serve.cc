// serve-read and serve-mixed: one closed-loop client issuing a YCSB-style
// operation stream against a ServeEngine whose factors live on socket
// workers.

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "common/timer.h"
#include "dist/cluster.h"
#include "dist/provision.h"
#include "dist/transport/wire.h"
#include "serve/serve_engine.h"
#include "serve/workload.h"
#include "stats.h"
#include "suite.h"

namespace dbtf {
namespace bench {
namespace {

constexpr std::int64_t kRank = 16;
constexpr double kFactorDensity = 0.12;
/// Every engine first replays this prefix of the stream untimed (its
/// warm-up) and must answer it exactly as the in-process reference did.
constexpr std::int64_t kReplayOps = 5000;
/// Set-up is timed once per engine; its metric is the median.
constexpr std::size_t kEngines = 5;
/// Each engine's timed phase is split in two segments; statistics are
/// medians over all segments, so one disturbed stretch moves no metric.
/// In a traced run the second segment of each engine is the traced one.
constexpr std::size_t kSegmentsPerEngine = 2;
/// Operations between two host-speed probes (tens of milliseconds); each
/// operation is scaled by the probe taken before it.
constexpr std::int64_t kProbeEvery = 2000;
/// Segments hold tens of thousands of reads, so p99 has hundreds beyond.
constexpr double kTailPercentile = 99.0;
/// Traced segments replay every this-many-th membership read through the
/// routing layer and the query codecs.
constexpr std::int64_t kReplayEvery = 100;

struct Engine {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ServeEngine> engine;  // declared last: released first
};

/// Cluster::Create + ProvisionWorkers + ServeEngine::Create + Load: what a
/// user pays before the first query.
Result<Engine> StartEngine(TransportKind transport, const RunOptions& options,
                           const std::array<BitMatrix, 3>& factors) {
  ClusterConfig config;
  config.num_machines = kMachines;
  config.transport = BenchTransport(transport, options);
  Engine e;
  DBTF_ASSIGN_OR_RETURN(e.cluster, Cluster::Create(config));
  DBTF_RETURN_IF_ERROR(ProvisionWorkers(*e.cluster));
  DBTF_ASSIGN_OR_RETURN(e.engine,
                        ServeEngine::Create(e.cluster.get(), factors[0],
                                            factors[1], factors[2]));
  DBTF_RETURN_IF_ERROR(e.engine->Load());
  return e;
}

/// Concepts covering cell (i, j, k) in the engine's authoritative factors.
std::uint64_t ExplainMask(const ServeEngine& engine, std::int64_t i,
                          std::int64_t j, std::int64_t k) {
  return engine.factor(0).RowMask64(i) & engine.factor(1).RowMask64(j) &
         engine.factor(2).RowMask64(k);
}

/// Checks one answered read: it saw the committed generations and, for a
/// membership read, the engine's own factors.
void CheckRead(const ServeEngine& engine, const ServeOp& op,
               const QueryResponse& response, RunReport* report) {
  const std::array<std::uint64_t, 3> committed = engine.generations();
  report->Check(response.generations == std::vector<std::uint64_t>(
                                            committed.begin(), committed.end()),
                "a read observed a generation triple that was never "
                "committed");
  if (op.kind == ServeOpKind::kMembership) {
    const std::uint64_t mask = ExplainMask(engine, op.i, op.j, op.k);
    report->Check(response.member == (mask != 0) &&
                      response.explain_mask == mask,
                  "a membership answer disagrees with the factors");
  }
}

/// Runs the next `ops` operations and digests every read's answer, with
/// generations normalised: they come from a process-wide counter, so they
/// differ between engines that hold identical content.
Result<std::uint64_t> ReplayDigest(ServeEngine* engine,
                                   WorkloadGenerator* generator,
                                   std::int64_t ops, RunReport* report) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::int64_t n = 0; n < ops; ++n) {
    const ServeOp op = generator->Next();
    QueryResponse response;
    DBTF_RETURN_IF_ERROR(RunOp(engine, op, &response));
    if (op.kind == ServeOpKind::kUpdate) continue;
    CheckRead(*engine, op, response, report);
    response.generations = {0, 1, 2};
    ByteWriter w;
    w.WriteU64(digest);
    EncodeQueryResponse(response, &w);
    digest = Fnv1a64(w.bytes().data(), w.size());
  }
  return digest;
}

/// Traced only: one membership read again, straight through the routing
/// layer, then through the request and response codecs.
Status ReplayRead(Engine* e, const ServeOp& op, std::int64_t replay,
                  TraceRecorder* trace) {
  QueryRequest request;
  request.kind = QueryKind::kMembership;
  request.id = static_cast<std::uint64_t>(replay);
  request.i = op.i;
  request.j = op.j;
  request.k = op.k;
  QueryRequest routed = request;
  QueryResponse response;
  const int machine = static_cast<int>(replay % e->cluster->num_machines());
  std::int64_t t = TraceRecorder::NowNs();
  DBTF_RETURN_IF_ERROR(
      e->cluster->QueryWorker(machine, std::move(routed), &response));
  trace->Add("dist.query_worker", t, TraceRecorder::NowNs(),
             static_cast<std::uint64_t>(replay));

  t = TraceRecorder::NowNs();
  ByteWriter request_bytes;
  EncodeQueryRequest(request, &request_bytes);
  ByteReader request_reader(request_bytes.bytes());
  const Result<QueryRequest> request_back = DecodeQueryRequest(&request_reader);
  ByteWriter response_bytes;
  EncodeQueryResponse(response, &response_bytes);
  ByteReader response_reader(response_bytes.bytes());
  const Result<QueryResponse> response_back =
      DecodeQueryResponse(&response_reader);
  trace->Count("transport.query_codec_ns",
               static_cast<double>(TraceRecorder::NowNs() - t));
  DBTF_RETURN_IF_ERROR(request_back.status());
  return response_back.status();
}

const char* SpanName(ServeOpKind kind) {
  switch (kind) {
    case ServeOpKind::kMembership:
      return "serve.membership";
    case ServeOpKind::kFiber:
      return "serve.fiber";
    case ServeOpKind::kTopConcepts:
      return "serve.top";
    case ServeOpKind::kUpdate:
      return "serve.update";
  }
  return "serve.unknown";
}

/// Timings of one segment of a timed phase.
struct Segment {
  bool traced = false;
  double seconds = 0.0;     ///< scaled to a quiet core, as every time here
  std::int64_t ops = 0;    ///< operations answered
  std::int64_t reads = 0;  ///< of which reads
  double p50 = 0.0;        ///< read latency, seconds
  double tail = 0.0;       ///< read latency at kTailPercentile, seconds
};

}  // namespace

Status RunServeWorkload(bool mixed, const RunOptions& options,
                        RunReport* report) {
  TraceRecorder* trace = options.trace;
  // One closed-loop client keeps one operation in flight, so the driver
  // and the worker processes it starts share one CPU. Across CPUs, each hop
  // of an operation waits for the hypervisor to wake a halted virtual CPU:
  // that took over half of each read, and it moved with the host's load.
  DBTF_RETURN_IF_ERROR(PinToCurrentCpu());
  const std::int64_t dim = options.smoke ? 128 : 512;
  WorkloadOptions workload;
  workload.mix = mixed ? WorkloadMix{0.55, 0.10, 0.05, 0.30}
                       : WorkloadMix{0.80, 0.15, 0.05, 0.0};
  workload.skew = SkewKind::kWeblog;
  workload.seed = DeriveSeed(options.seed, 2);
  workload.dims[0] = workload.dims[1] = workload.dims[2] = dim;
  workload.rank = kRank;
  workload.top_r = 8;
  DBTF_RETURN_IF_ERROR(workload.Validate());
  Rng rng(DeriveSeed(options.seed, 3));
  std::array<BitMatrix, 3> factors;
  for (BitMatrix& f : factors) {
    f = BitMatrix::Random(dim, kRank, kFactorDensity, &rng);
  }

  std::uint64_t reference = 0;
  {
    DBTF_ASSIGN_OR_RETURN(
        Engine e, StartEngine(TransportKind::kInProcess, options, factors));
    WorkloadGenerator generator(workload);
    DBTF_ASSIGN_OR_RETURN(reference, ReplayDigest(e.engine.get(), &generator,
                                                  kReplayOps, report));
  }

  const std::size_t engines = options.smoke ? 1 : kEngines;
  const double segment_seconds =
      options.seconds / static_cast<double>(engines * kSegmentsPerEngine);
  HostSpeed speed;
  std::vector<double> setup_seconds;
  std::vector<Segment> segments;
  // Scaled seconds per answered read of the current segment. Reused, so
  // the samples add one segment's worth to the driver's peak memory.
  std::vector<double> reads;
  double driver_rss_mb = 0.0;
  double worker_rss_mb = 0.0;
  std::int64_t op_index = 0;
  std::int64_t membership_reads = 0;
  std::int64_t rebroadcasts = 0;
  // Ledger and worker-CPU deltas over the untraced segments.
  std::int64_t plain_ops = 0;
  double worker_cpu_seconds = 0.0;
  std::int64_t query_bytes = 0;
  std::int64_t query_events = 0;
  std::vector<double> scales;
  for (std::size_t n = 0; n < engines; ++n) {
    const double setup_scale = speed.Scale();
    const Timer setup;
    DBTF_ASSIGN_OR_RETURN(Engine e,
                          StartEngine(TransportKind::kSocket, options, factors));
    setup_seconds.push_back(setup.ElapsedSeconds() * setup_scale);
    ServeEngine& engine = *e.engine;
    WorkloadGenerator generator(workload);
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t digest,
                          ReplayDigest(&engine, &generator, kReplayOps, report));
    report->Check(digest == reference,
                  "socket and in-process engines answered the replayed "
                  "prefix differently");
    // As for factorize: the peak through the first set-up and warm-up.
    if (n == 0) driver_rss_mb = PeakRssMiB();

    for (std::size_t s = 0; s < kSegmentsPerEngine; ++s) {
      Segment seg;
      seg.traced = trace != nullptr && s % 2 == 1;
      double cpu_before = 0.0;
      for (int m = 0; m < kMachines; ++m) {
        cpu_before += e.cluster->MachineComputeSeconds(m);
      }
      const CommSnapshot comm_before = e.cluster->comm().Snapshot();
      const Timer clock;
      double scale = 1.0;
      double window_start = 0.0;
      for (std::int64_t i = 0;; ++i) {
        if (i % kProbeEvery == 0) {
          const double now = clock.ElapsedSeconds();
          seg.seconds += (now - window_start) * scale;
          if (now >= segment_seconds) break;
          scale = speed.Scale();
          scales.push_back(scale);
          window_start = clock.ElapsedSeconds();
        }
        const ServeOp op = generator.Next();
        QueryResponse response;
        ++op_index;
        ++report->attempted;
        const std::int64_t start = TraceRecorder::NowNs();
        const Status status = RunOp(&engine, op, &response);
        const std::int64_t end = TraceRecorder::NowNs();
        if (!status.ok()) {
          ++report->failed;
          continue;
        }
        ++seg.ops;
        if (seg.traced) {
          trace->Add(SpanName(op.kind), start, end,
                     static_cast<std::uint64_t>(op_index));
        }
        if (op.kind == ServeOpKind::kUpdate) continue;
        reads.push_back(static_cast<double>(end - start) / 1e9 * scale);
        CheckRead(engine, op, response, report);
        if (seg.traced && op.kind == ServeOpKind::kMembership &&
            ++membership_reads % kReplayEvery == 0) {
          DBTF_RETURN_IF_ERROR(ReplayRead(&e, op, membership_reads, trace));
        }
      }
      seg.reads = static_cast<std::int64_t>(reads.size());
      seg.p50 = Percentile(reads, 50);
      seg.tail = Percentile(reads, kTailPercentile);
      reads.clear();
      if (!seg.traced) {
        plain_ops += seg.ops;
        for (int m = 0; m < kMachines; ++m) {
          worker_cpu_seconds += e.cluster->MachineComputeSeconds(m);
        }
        worker_cpu_seconds -= cpu_before;
        const CommSnapshot d = e.cluster->comm().Snapshot().Since(comm_before);
        query_bytes += d.query_bytes;
        query_events += d.query_events;
      }
      segments.push_back(std::move(seg));
    }
    report->Check(engine.stats().failovers == 0, "a query failed over");
    const RecoveryStats recovery = e.cluster->recovery().Snapshot();
    report->Check(recovery.failed_deliveries == 0 &&
                      recovery.machines_lost == 0 && recovery.retries == 0,
                  "a fault-free run went through recovery");
    // Load ships the factors as one rebroadcast; count only the catch-ups.
    rebroadcasts += engine.stats().rebroadcasts - 1;
    worker_rss_mb = std::max(worker_rss_mb, WorkerPeakRssMiB(*e.cluster));
  }

  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<double> qps;
  std::vector<double> traced_p50;
  std::int64_t min_reads = -1;
  for (const Segment& seg : segments) {
    if (seg.traced) {
      traced_p50.push_back(seg.p50);
      continue;
    }
    p50.push_back(seg.p50);
    tail.push_back(seg.tail);
    qps.push_back(static_cast<double>(seg.ops) / seg.seconds);
    if (min_reads < 0 || seg.reads < min_reads) min_reads = seg.reads;
  }
  if (trace == nullptr) {
    report->Set("setup_s", Median(setup_seconds), "s");
    report->Set("driver_rss_mb", driver_rss_mb, "MiB");
    report->Set("latency_p50_ms", Median(p50) * 1e3, "ms");
    report->Set("latency_tail_ms", Median(tail) * 1e3, "ms");
    report->Set("throughput_per_s", Median(qps), "1/s");
    report->info["segments"] = static_cast<double>(segments.size());
    report->info["host_speed_scale"] = Median(scales);
    report->info["min_reads_per_segment"] = static_cast<double>(min_reads);
    report->info["tail_percentile"] = kTailPercentile;
    report->info["tail_supported_percentile"] =
        HighestSupportedPercentile(static_cast<std::size_t>(min_reads));
    return Status::OK();
  }

  report->Set("trace.overhead_ratio", Median(traced_p50) / Median(p50),
              "ratio");
  for (const char* kind : {"membership", "fiber", "top", "update"}) {
    const std::vector<double> us = trace->Micros(std::string("serve.") + kind);
    report->Set(std::string("serve.") + kind + "_p50_us", Percentile(us, 50),
                "us");
    report->Set(std::string("serve.") + kind + "_p99_us", Percentile(us, 99),
                "us");
  }
  const double query_worker_us = Median(trace->Micros("dist.query_worker"));
  report->Set("dist.query_worker_us", query_worker_us, "us");
  report->Set("serve.route_us",
              Median(trace->Micros("serve.membership")) - query_worker_us,
              "us");
  report->Set("serve.rebroadcasts", static_cast<double>(rebroadcasts),
              "count");
  report->Set("dist.worker_rss_mb", worker_rss_mb, "MiB");
  report->Set("dist.query_bytes_per_op",
              query_events > 0 ? static_cast<double>(query_bytes) /
                                     static_cast<double>(query_events)
                               : 0.0,
              "bytes");
  report->Set("dist.worker_cpu_us_per_op",
              plain_ops > 0 ? worker_cpu_seconds * 1e6 /
                                  static_cast<double>(plain_ops)
                            : 0.0,
              "us");
  report->Set("transport.query_codec_ns",
              CounterMedian(*trace, "transport.query_codec_ns"), "ns");
  ReportKernels(dim, trace, report);
  return Status::OK();
}

}  // namespace bench
}  // namespace dbtf
