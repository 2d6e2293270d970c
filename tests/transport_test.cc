#include "dist/transport/transport.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dbtf/config.h"
#include "dbtf/dbtf.h"
#include "dbtf/partition.h"
#include "dbtf/session.h"
#include "dist/cluster.h"
#include "dist/provision.h"
#include "dist/transport/socket.h"
#include "dist/transport/wire.h"
#include "generator/generator.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace {

// --- Options and parsing ----------------------------------------------------

TEST(TransportKind, ParseAcceptsTheTwoNames) {
  auto inproc = ParseTransportKind("inproc");
  ASSERT_TRUE(inproc.ok());
  EXPECT_EQ(*inproc, TransportKind::kInProcess);
  auto socket = ParseTransportKind("socket");
  ASSERT_TRUE(socket.ok());
  EXPECT_EQ(*socket, TransportKind::kSocket);
}

TEST(TransportKind, ParseRejectsUnknownNames) {
  EXPECT_EQ(ParseTransportKind("tcp").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTransportKind("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTransportKind("Socket").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TransportKind, NamesRoundTrip) {
  EXPECT_EQ(*ParseTransportKind(TransportKindName(TransportKind::kInProcess)),
            TransportKind::kInProcess);
  EXPECT_EQ(*ParseTransportKind(TransportKindName(TransportKind::kSocket)),
            TransportKind::kSocket);
}

TEST(TransportOptions, ValidateAcceptsDefaults) {
  TransportOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.kind = TransportKind::kSocket;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(TransportOptions, ValidateRejectsOverlongSocketDir) {
  TransportOptions options;
  options.kind = TransportKind::kSocket;
  options.socket_dir = std::string(200, 'd');  // sun_path is ~108 bytes
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

/// The transport options validate through ClusterConfig::Validate, so a bad
/// deployment is rejected at cluster creation, not at first delivery.
TEST(TransportOptions, ClusterConfigValidatesTransport) {
  ClusterConfig config;
  config.num_machines = 2;
  config.num_threads = 1;
  config.transport.kind = TransportKind::kSocket;
  config.transport.socket_dir = std::string(200, 'd');
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_FALSE(Cluster::Create(config).ok());
  config.transport.socket_dir.clear();
  EXPECT_TRUE(config.Validate().ok());
}

// --- Frame reader -------------------------------------------------------------
//
// FrameReader is the one reader of the socket transport (driver endpoint and
// worker loop alike). These cases feed it over a real socketpair.

/// A connected stream socketpair: the test writes `writer`, the reader
/// under test reads `reader`.
class SocketPair {
 public:
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reader = fds[0];
    writer = fds[1];
  }
  ~SocketPair() {
    CloseWriter();
    if (reader >= 0) ::close(reader);
  }
  void Write(const std::vector<std::uint8_t>& bytes) {
    ASSERT_TRUE(WriteAllBytes(writer, bytes.data(), bytes.size()).ok());
  }
  void CloseWriter() {
    if (writer >= 0) ::close(writer);
    writer = -1;
  }

  int reader = -1;
  int writer = -1;
};

std::vector<std::uint8_t> FrameOf(WireKind kind, std::size_t payload_bytes,
                                  std::uint8_t fill) {
  ByteWriter payload;
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    payload.WriteU8(static_cast<std::uint8_t>(fill + i));
  }
  return EncodeFrame(kind, payload);
}

std::vector<std::uint8_t> Concat(std::vector<std::uint8_t> a,
                                 const std::vector<std::uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Expects `read` to hold exactly the frame `bytes` encodes.
void ExpectFrame(const Result<FramedRead>& read,
                 const std::vector<std::uint8_t>& bytes) {
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_FALSE(read->eof);
  const Result<WireFrame> want = DecodeFrame(bytes);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(read->frame.kind, want->kind);
  EXPECT_EQ(read->frame.payload, want->payload);
}

void ExpectCleanEof(const Result<FramedRead>& read) {
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->eof);
}

/// A reader over `fd` that counts its reads and caps each at `max_read`
/// bytes.
FrameReader CountingReader(int fd, int* reads, std::size_t max_read,
                           std::size_t buffer_bytes = kFrameReaderBufferBytes) {
  return FrameReader(
      [fd, reads, max_read](std::uint8_t* data,
                            std::size_t size) -> Result<std::size_t> {
        ++*reads;
        const ssize_t n = ::recv(fd, data, std::min(size, max_read), 0);
        if (n < 0) return Status::IoError("recv failed");
        return static_cast<std::size_t>(n);
      },
      buffer_bytes);
}

TEST(FrameReader, AFrameThatArrivedWholeCostsOneRead) {
  SocketPair pair;
  const std::vector<std::uint8_t> frame = FrameOf(WireKind::kReply, 300, 1);
  pair.Write(frame);
  int reads = 0;
  FrameReader reader = CountingReader(pair.reader, &reads, SIZE_MAX);
  ExpectFrame(reader.Next(), frame);
  EXPECT_EQ(reads, 1);
}

TEST(FrameReader, TwoFramesSentInOneWrite) {
  SocketPair pair;
  const std::vector<std::uint8_t> first = FrameOf(WireKind::kQuery, 40, 7);
  const std::vector<std::uint8_t> second = FrameOf(WireKind::kReply, 0, 0);
  pair.Write(Concat(first, second));
  pair.CloseWriter();
  int reads = 0;
  FrameReader reader = CountingReader(pair.reader, &reads, SIZE_MAX);
  ExpectFrame(reader.Next(), first);
  ExpectFrame(reader.Next(), second);
  EXPECT_EQ(reads, 1) << "the second frame was already buffered";
  ExpectCleanEof(reader.Next());
}

TEST(FrameReader, AFrameDribbledOneByteAtATime) {
  SocketPair pair;
  const std::vector<std::uint8_t> frame = FrameOf(WireKind::kRunColumn, 25, 3);
  pair.Write(Concat(frame, frame));
  pair.CloseWriter();
  int reads = 0;
  FrameReader reader = CountingReader(pair.reader, &reads, 1);
  ExpectFrame(reader.Next(), frame);
  EXPECT_EQ(reads, static_cast<int>(frame.size()));
  ExpectFrame(reader.Next(), frame);
  ExpectCleanEof(reader.Next());
}

TEST(FrameReader, EofBetweenFramesIsClean) {
  SocketPair pair;
  FrameReader empty(pair.reader);
  pair.CloseWriter();
  ExpectCleanEof(empty.Next());

  SocketPair again;
  const std::vector<std::uint8_t> frame = FrameOf(WireKind::kShutdown, 0, 0);
  again.Write(frame);
  again.CloseWriter();
  FrameReader reader(again.reader);
  ExpectFrame(reader.Next(), frame);
  ExpectCleanEof(reader.Next());
  ExpectCleanEof(reader.Next());
}

TEST(FrameReader, EofInsideAFrameIsAnIoError) {
  const std::vector<std::uint8_t> frame = FrameOf(WireKind::kReply, 20, 5);
  // Cut inside the header, inside the payload, and inside the CRC.
  for (const std::size_t cut : {std::size_t{5}, kFrameHeaderBytes + 7,
                                frame.size() - 2}) {
    SocketPair pair;
    pair.Write(std::vector<std::uint8_t>(frame.begin(),
                                         frame.begin() + cut));
    pair.CloseWriter();
    FrameReader reader(pair.reader);
    const Result<FramedRead> read = reader.Next();
    EXPECT_EQ(read.status().code(), StatusCode::kIoError) << "cut at " << cut;
  }
}

TEST(FrameReader, CrcMismatchIsAnIoError) {
  SocketPair pair;
  std::vector<std::uint8_t> frame = FrameOf(WireKind::kReply, 20, 5);
  frame[kFrameHeaderBytes + 3] ^= 0x40;
  pair.Write(frame);
  FrameReader reader(pair.reader);
  const Result<FramedRead> read = reader.Next();
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find("CRC"), std::string::npos)
      << read.status().ToString();
}

TEST(FrameReader, PayloadLargerThanTheBuffer) {
  // A small buffer, so the payload is read straight into the frame and the
  // frame after it is still served from the buffer.
  {
    SocketPair pair;
    const std::vector<std::uint8_t> large = FrameOf(WireKind::kReply, 5000, 9);
    const std::vector<std::uint8_t> small = FrameOf(WireKind::kQuery, 12, 1);
    pair.Write(Concat(large, small));
    pair.CloseWriter();
    FrameReader reader(pair.reader, /*buffer_bytes=*/64);
    ExpectFrame(reader.Next(), large);
    ExpectFrame(reader.Next(), small);
    ExpectCleanEof(reader.Next());
  }
  // The default buffer against a payload several times its size, written
  // from another thread while the reader drains it.
  {
    SocketPair pair;
    const std::vector<std::uint8_t> large =
        FrameOf(WireKind::kStorePartition, 5 * kFrameReaderBufferBytes + 17, 2);
    std::thread writer([&pair, &large] { pair.Write(large); });
    FrameReader reader(pair.reader);
    ExpectFrame(reader.Next(), large);
    writer.join();
  }
}

/// Virtual address space this process has mapped, from /proc/self/status.
std::uint64_t MappedBytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib << 10;
    }
  }
  return 0;
}

/// Regression: a 14-byte header that claims 2^33 payload bytes, then end of
/// stream. The reader must fail promptly with kIoError, allocating in step
/// with the bytes that arrived rather than with the claim. A reader that
/// sized the payload from the header zero-filled 8 GiB first, or died of
/// std::bad_alloc under an address-space limit; this case runs in a child
/// capped at 512 MiB above what it already maps, so such a reader aborts
/// the child (and the test) instead of eating the host's memory.
TEST(FrameReader, HugeClaimedPayloadFailsPromptlyWithoutAllocatingIt) {
  SocketPair pair;
  ByteWriter header;
  header.WriteU32(kWireMagic);
  header.WriteU8(kWireVersion);
  header.WriteU8(static_cast<std::uint8_t>(WireKind::kStorePartition));
  header.WriteU64(std::uint64_t{1} << 33);
  ASSERT_EQ(header.size(), kFrameHeaderBytes);
  pair.Write(header.bytes());
  pair.CloseWriter();

  const std::uint64_t mapped = MappedBytes();
  ASSERT_GT(mapped, 0u);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::alarm(30);
    rlimit limit;
    limit.rlim_cur = limit.rlim_max = mapped + (std::uint64_t{512} << 20);
    if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(3);
    const auto start = std::chrono::steady_clock::now();
    FrameReader reader(pair.reader);
    const Result<FramedRead> read = reader.Next();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (read.status().code() != StatusCode::kIoError) ::_exit(1);
    ::_exit(seconds < 5.0 ? 0 : 2);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "the reader died (signal " << WTERMSIG(wstatus) << ")";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "1: not kIoError, 2: not prompt, 3: setrlimit failed";
}

// --- Socket endpoints, end to end -------------------------------------------

ClusterConfig SocketClusterConfig(int machines) {
  ClusterConfig config;
  config.num_machines = machines;
  config.num_threads = 2;
  config.transport.kind = TransportKind::kSocket;
  return config;
}

PlantedTensor SmallPlanted(std::uint64_t seed) {
  PlantedSpec spec;
  spec.dim_i = 20;
  spec.dim_j = 24;
  spec.dim_k = 16;
  spec.rank = 3;
  spec.factor_density = 0.2;
  spec.seed = seed;
  return GeneratePlanted(spec).value();
}

TEST(SocketTransport, SpawnsOneProcessPerMachineAndStoresPartitions) {
  auto cluster = Cluster::Create(SocketClusterConfig(2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE(ProvisionWorkers(**cluster).ok());
  EXPECT_EQ((*cluster)->num_attached_workers(), 2);

  // Each endpoint fronts a live OS process.
  for (int m = 0; m < 2; ++m) {
    std::shared_ptr<WorkerEndpoint> endpoint = (*cluster)->EndpointOn(m);
    ASSERT_NE(endpoint, nullptr);
    auto pid = endpoint->ProcessId();
    ASSERT_TRUE(pid.ok());
    EXPECT_GT(*pid, 0);
    EXPECT_EQ(kill(*pid, 0), 0) << "worker process not alive";
  }

  // Ship real partitions across the wire and read back residency.
  const PlantedTensor p = SmallPlanted(7);
  auto unfolding = PartitionedUnfolding::Build(p.tensor, Mode::kOne, 4);
  ASSERT_TRUE(unfolding.ok());
  const UnfoldShape shape = unfolding->shape();
  std::vector<Partition> parts = std::move(*unfolding).ReleasePartitions();
  const std::int64_t n = static_cast<std::int64_t>(parts.size());
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(StorePartition(**cluster, Mode::kOne, i,
                               std::move(parts[static_cast<std::size_t>(i)]),
                               shape)
                    .ok());
  }
  std::int64_t seen = 0;
  for (int m = 0; m < 2; ++m) {
    auto local = (*cluster)->EndpointOn(m)->ListPartitions(Mode::kOne);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    for (const std::int64_t index : *local) {
      EXPECT_EQ((*cluster)->OwnerOf(index), m);
      ++seen;
    }
  }
  EXPECT_EQ(seen, n);
  (*cluster)->DetachWorkers();
}

/// A handler-side rejection must come back across the socket as the same
/// Status the in-process worker would return — errors are data, not
/// connection failures.
TEST(SocketTransport, HandlerErrorsCrossTheWireAsStatuses) {
  auto cluster = Cluster::Create(SocketClusterConfig(1));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(ProvisionWorkers(**cluster).ok());
  std::shared_ptr<WorkerEndpoint> endpoint = (*cluster)->EndpointOn(0);
  ASSERT_NE(endpoint, nullptr);

  // A column delta against a base generation the (empty) worker does not
  // hold is rejected with kFailedPrecondition by Worker::ApplyMatrixDelta.
  FactorDelta msg;
  msg.mode = Mode::kOne;
  msg.rows = 8;
  MatrixDelta d;
  d.slot = 0;
  d.full = false;
  d.generation = 7;
  d.base_generation = 5;
  d.rows = 8;
  d.cols = 4;
  msg.updates.push_back(std::move(d));
  const Status status = endpoint->Deliver(msg, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();

  // The endpoint survives the rejection: the connection is still good.
  auto local = endpoint->ListPartitions(Mode::kOne);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(local->empty());
  (*cluster)->DetachWorkers();
}

/// SIGKILL-ing a worker process surfaces as kIoError at the endpoint and as
/// a permanent machine loss at the routing layer — the same path an injected
/// crash takes, so recovery needs no transport-specific code.
TEST(SocketTransport, KilledWorkerBecomesALostMachine) {
  auto cluster = Cluster::Create(SocketClusterConfig(1));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(ProvisionWorkers(**cluster).ok());

  std::shared_ptr<WorkerEndpoint> endpoint = (*cluster)->EndpointOn(0);
  ASSERT_NE(endpoint, nullptr);
  auto pid = endpoint->ProcessId();
  ASSERT_TRUE(pid.ok());
  ASSERT_EQ(kill(*pid, SIGKILL), 0);

  // Routed delivery: the transport failure is mapped onto machine loss and
  // surfaces as kUnavailable, exactly like an injected crash.
  FactorDelta msg;
  msg.mode = Mode::kOne;
  msg.rows = 4;
  const Status status = (*cluster)->BroadcastFactors(std::move(msg));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_EQ((*cluster)->DeadMachines(), std::vector<int>{0});
  EXPECT_EQ((*cluster)->EndpointOn(0), nullptr);
  EXPECT_EQ((*cluster)->recovery().Snapshot().machines_lost, 1);
  (*cluster)->DetachWorkers();
}

// --- Crash recovery over the real transport ---------------------------------

DbtfConfig SmallRunConfig(TransportKind kind) {
  DbtfConfig config;
  config.rank = 4;
  config.max_iterations = 6;
  config.num_initial_sets = 2;
  config.num_partitions = 4;
  config.seed = 23;
  config.cluster.num_machines = 2;
  config.cluster.num_threads = 2;
  config.cluster.transport.kind = kind;
  return config;
}

void ExpectGoldenFactors(const DbtfResult& got, const DbtfResult& want) {
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
  EXPECT_EQ(got.c, want.c);
  EXPECT_EQ(got.iteration_errors, want.iteration_errors);
  EXPECT_EQ(got.final_error, want.final_error);
}

/// Satellite drill: SIGKILL one worker process, then run. The loss is
/// detected at the first delivery, ReprovisionLostPartitions rebuilds the
/// dead machine's partitions onto the survivor mid-run, and the run still
/// produces the same factors as the in-process oracle.
TEST(SocketTransport, KillThenReprovisionYieldsGoldenFactors) {
  const PlantedTensor p = SmallPlanted(31);
  const DbtfConfig config = SmallRunConfig(TransportKind::kSocket);

  auto golden = Dbtf::Factorize(p.tensor, SmallRunConfig(TransportKind::kInProcess));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  auto session = Session::Create(p.tensor, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto pid = (*session)->cluster().EndpointOn(1)->ProcessId();
  ASSERT_TRUE(pid.ok());
  ASSERT_EQ(kill(*pid, SIGKILL), 0);

  auto recovered = (*session)->Factorize(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectGoldenFactors(*recovered, *golden);
  EXPECT_EQ(recovered->recovery.machines_lost, 1);
  EXPECT_GT(recovered->recovery.reprovisions, 0);
}

/// Satellite drill, checkpoint flavor: interrupt a checkpointed socket run,
/// SIGKILL one worker process while the run is down, then resume. Restore
/// detects the dead process, re-provisions coverage onto the survivor, and
/// the resumed run completes with golden factors.
TEST(SocketTransport, KillThenCheckpointResumeYieldsGoldenFactors) {
  const PlantedTensor p = SmallPlanted(37);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("dbtf_transport_ckpt_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  auto golden = Dbtf::Factorize(p.tensor, SmallRunConfig(TransportKind::kInProcess));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  DbtfConfig interrupted = SmallRunConfig(TransportKind::kSocket);
  interrupted.checkpoint_dir = dir;
  interrupted.checkpoint_every_columns = 1;
  interrupted.halt_after_columns = 9;

  auto session = Session::Create(p.tensor, interrupted);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto halted = (*session)->Factorize(interrupted);
  ASSERT_EQ(halted.status().code(), StatusCode::kResourceExhausted);

  auto pid = (*session)->cluster().EndpointOn(0)->ProcessId();
  ASSERT_TRUE(pid.ok());
  ASSERT_EQ(kill(*pid, SIGKILL), 0);

  DbtfConfig resume = SmallRunConfig(TransportKind::kSocket);
  resume.checkpoint_dir = dir;
  resume.resume = true;
  auto resumed = (*session)->Factorize(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectGoldenFactors(*resumed, *golden);
  EXPECT_GE(resumed->resumed_from_iteration, 1);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dbtf
