#include "dist/transport/transport.h"

#include <gtest/gtest.h>

#include <signal.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "dbtf/config.h"
#include "dbtf/dbtf.h"
#include "dbtf/partition.h"
#include "dbtf/session.h"
#include "dist/cluster.h"
#include "dist/provision.h"
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
