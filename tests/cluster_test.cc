#include "dist/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dist/placement.h"
#include "fake_endpoint.h"

namespace dbtf {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig config;
  config.num_machines = 4;
  config.num_threads = 2;
  return config;
}

TEST(ClusterConfig, Validation) {
  ClusterConfig config = SmallConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.num_machines = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.num_threads = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.network_bandwidth_bytes_per_second = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.network_latency_seconds = -1;
  EXPECT_FALSE(config.Validate().ok());
  // Non-finite values satisfy no ordering comparison, so a plain bound check
  // would silently accept them (NaN) or accept a meaningless model (Inf).
  config = SmallConfig();
  config.network_bandwidth_bytes_per_second =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  config.network_bandwidth_bytes_per_second =
      std::numeric_limits<double>::infinity();
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.network_latency_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.driver_seconds_per_byte = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.driver_seconds_per_byte = -0.001;
  EXPECT_FALSE(config.Validate().ok());
  // Both knobs bad at once must still be rejected (whichever is checked
  // first), not cancel out in some combined cost expression.
  config.network_bandwidth_bytes_per_second = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ClusterConfig, ValidationCoversTransportOptions) {
  // The transport options validate as part of ClusterConfig::Validate, so a
  // mis-specified deployment dies at Cluster::Create, not at first delivery.
  ClusterConfig config = SmallConfig();
  config.transport.kind = TransportKind::kSocket;
  EXPECT_TRUE(config.Validate().ok());

  // Worker-count mismatch: socket_workers must be 0 (one per machine) or
  // exactly num_machines.
  config.transport.socket_workers = config.num_machines + 1;
  EXPECT_FALSE(config.Validate().ok());
  config.transport.socket_workers = -2;
  EXPECT_FALSE(config.Validate().ok());
  config.transport.socket_workers = config.num_machines;
  EXPECT_TRUE(config.Validate().ok());

  // Socket paths live in sun_path (~108 bytes); a directory that cannot
  // hold "<dir>/worker-<m>.sock" is rejected up front.
  config = SmallConfig();
  config.transport.kind = TransportKind::kSocket;
  config.transport.socket_dir = "/tmp/" + std::string(120, 'p');
  EXPECT_FALSE(config.Validate().ok());
  config.transport.socket_dir = "/tmp/short";
  EXPECT_TRUE(config.Validate().ok());

  // The in-process transport ignores socket tuning but still rejects a
  // nonsensical worker count (the config is wrong, whatever the transport).
  config = SmallConfig();
  config.transport.kind = TransportKind::kInProcess;
  config.transport.socket_workers = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(Cluster, CreateRejectsBadConfig) {
  ClusterConfig config;
  config.num_machines = -1;
  EXPECT_FALSE(Cluster::Create(config).ok());
}

TEST(Cluster, OwnerIsRoundRobin) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->OwnerOf(0), 0);
  EXPECT_EQ((*cluster)->OwnerOf(1), 1);
  EXPECT_EQ((*cluster)->OwnerOf(4), 0);
  EXPECT_EQ((*cluster)->OwnerOf(7), 3);
}

TEST(Cluster, RunTasksExecutesAll) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  std::atomic<int> count{0};
  (*cluster)->RunTasks(37, [&count](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 37);
}

TEST(Cluster, RunTasksAccumulatesVirtualTime) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  (*cluster)->RunTasks(8, [](std::int64_t) {
    // Burn a little CPU so the thread-CPU clock moves.
    volatile double x = 1.0;
    for (int i = 0; i < 200000; ++i) x = x * 1.0000001 + 0.5;
  });
  double total = 0.0;
  for (int m = 0; m < 4; ++m) {
    total += (*cluster)->MachineComputeSeconds(m);
  }
  EXPECT_GT(total, 0.0);
  EXPECT_GT((*cluster)->VirtualMakespanSeconds(), 0.0);
}

TEST(Cluster, ChargeComputeAffectsMakespan) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeCompute(2, 1.5);
  (*cluster)->ChargeCompute(1, 0.5);
  EXPECT_DOUBLE_EQ((*cluster)->MachineComputeSeconds(2), 1.5);
  EXPECT_DOUBLE_EQ((*cluster)->VirtualMakespanSeconds(), 1.5)
      << "makespan is the busiest machine";
}

TEST(Cluster, BroadcastLedgerAndDriverTime) {
  ClusterConfig config = SmallConfig();
  config.network_latency_seconds = 0.0;
  config.network_bandwidth_bytes_per_second = 1000.0;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeBroadcast(500);
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.broadcast_bytes, 500 * 4) << "4 machines each receive 500B";
  EXPECT_EQ(snap.broadcast_events, 1);
  EXPECT_DOUBLE_EQ((*cluster)->DriverSeconds(), 0.5);
}

TEST(Cluster, CollectLedgerIncludesProcessingCost) {
  ClusterConfig config = SmallConfig();
  config.network_latency_seconds = 0.0;
  config.network_bandwidth_bytes_per_second = 1000.0;
  config.driver_seconds_per_byte = 0.001;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeCollect(100);
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_bytes, 100);
  EXPECT_DOUBLE_EQ((*cluster)->DriverSeconds(), 0.1 + 0.1);
}

TEST(Cluster, ShuffleSpreadsAcrossMachines) {
  ClusterConfig config = SmallConfig();
  config.network_latency_seconds = 0.0;
  config.network_bandwidth_bytes_per_second = 1000.0;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeShuffle(4000);
  EXPECT_EQ((*cluster)->comm().Snapshot().shuffle_bytes, 4000);
  // Each of the 4 machines transfers 1000 bytes in parallel: 1 second each.
  EXPECT_DOUBLE_EQ((*cluster)->MachineComputeSeconds(0), 1.0);
  EXPECT_DOUBLE_EQ((*cluster)->VirtualMakespanSeconds(), 1.0);
}

TEST(Cluster, ResetVirtualTimeKeepsLedger) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeCompute(0, 2.0);
  (*cluster)->ChargeCollect(100);
  (*cluster)->ResetVirtualTime();
  EXPECT_DOUBLE_EQ((*cluster)->VirtualMakespanSeconds(), 0.0);
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_bytes, 100)
      << "the communication ledger is not part of virtual time";
}

TEST(Cluster, WorkerRegistryValidatesAttachment) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->num_attached_workers(), 0);
  EXPECT_TRUE(
      (*cluster)->AttachEndpoint(0, std::make_shared<FakeEndpoint>(0)).ok());
  EXPECT_EQ((*cluster)->num_attached_workers(), 1);
  EXPECT_EQ(
      (*cluster)->AttachEndpoint(0, std::make_shared<FakeEndpoint>(0)).code(),
      StatusCode::kFailedPrecondition)
      << "one endpoint per machine";
  EXPECT_EQ(
      (*cluster)->AttachEndpoint(4, std::make_shared<FakeEndpoint>(4)).code(),
      StatusCode::kInvalidArgument)
      << "machine index out of range";
  EXPECT_EQ((*cluster)->AttachEndpoint(1, nullptr).code(),
            StatusCode::kInvalidArgument);
  (*cluster)->DetachWorkers();
  EXPECT_EQ((*cluster)->num_attached_workers(), 0);
}

TEST(Cluster, RoutingRequiresWorkers) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->BroadcastFactors(BroadcastOfWords(8)).code(),
            StatusCode::kFailedPrecondition);
  CollectErrorsResponse response;
  EXPECT_EQ((*cluster)
                ->RunColumn(RunUpdateColumn{}, CollectErrorsRequest{},
                            &response)
                .code(),
            StatusCode::kFailedPrecondition);
  QueryResponse answer;
  EXPECT_EQ((*cluster)->QueryWorker(0, QueryRequest{}, &answer).code(),
            StatusCode::kUnavailable)
      << "a query names its machine; an absent one is a failover case";
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.broadcast_events, 0)
      << "a broadcast that reached no endpoint is not charged";
  EXPECT_EQ(snap.TotalBytes(), 0);
  EXPECT_DOUBLE_EQ((*cluster)->DriverSeconds(), 0.0);
}

TEST(Cluster, BroadcastChargesPerMachineAndDeliversToAll) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto w0 = std::make_shared<FakeEndpoint>(0);
  auto w2 = std::make_shared<FakeEndpoint>(2);
  ASSERT_TRUE((*cluster)->AttachEndpoint(0, w0).ok());
  ASSERT_TRUE((*cluster)->AttachEndpoint(2, w2).ok());
  const FactorDelta msg = BroadcastOfWords(12);
  ASSERT_EQ(msg.WireBytes(), 96);
  ASSERT_TRUE((*cluster)->BroadcastFactors(msg).ok());
  EXPECT_EQ(w0->deliveries(MessageKind::kBroadcast), 1);
  EXPECT_EQ(w2->deliveries(MessageKind::kBroadcast), 1);
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.broadcast_bytes, 96 * 4)
      << "a broadcast is priced for every machine of the cluster";
  EXPECT_EQ(snap.broadcast_events, 1);
}

TEST(Cluster, CollectSumsWorkerBytesIntoOneEvent) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto w0 = std::make_shared<FakeEndpoint>(0, /*collect_wire_bytes=*/30);
  auto w1 = std::make_shared<FakeEndpoint>(1, /*collect_wire_bytes=*/12);
  ASSERT_TRUE((*cluster)->AttachEndpoint(0, w0).ok());
  ASSERT_TRUE((*cluster)->AttachEndpoint(1, w1).ok());
  CollectErrorsResponse response;
  ASSERT_TRUE((*cluster)
                  ->RunColumn(RunUpdateColumn{}, CollectErrorsRequest{},
                              &response)
                  .ok());
  for (const auto& w : {w0, w1}) {
    EXPECT_EQ(w->log(), (std::vector<Delivery>{{MessageKind::kDispatch, 0},
                                               {MessageKind::kCollect, 0}}))
        << "dispatch, then collect, on machine " << w->machine();
  }
  EXPECT_EQ(response.wire_bytes, 42) << "responses merge at the driver";
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.collect_bytes, 42);
  EXPECT_EQ(snap.collect_events, 1);
}

TEST(Cluster, DispatchSurfacesWorkerErrors) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto w0 = std::make_shared<FakeEndpoint>(0);
  auto w1 = std::make_shared<FakeEndpoint>(1);
  w1->Fail(MessageKind::kDispatch, Status::Internal("boom"));
  ASSERT_TRUE((*cluster)->AttachEndpoint(0, w0).ok());
  ASSERT_TRUE((*cluster)->AttachEndpoint(1, w1).ok());
  CollectErrorsResponse response;
  const Status status = (*cluster)->RunColumn(
      RunUpdateColumn{}, CollectErrorsRequest{}, &response);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_events, 1)
      << "the collect charge depends on the collects alone";
}

TEST(Cluster, DispatchFailureOutranksCollectFailureOfSameSeverity) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto w0 = std::make_shared<FakeEndpoint>(0);
  auto w1 = std::make_shared<FakeEndpoint>(1);
  // Machine 0 comes first in attach order, yet its collect failure must
  // lose to machine 1's dispatch failure: statuses are step-major.
  w0->Fail(MessageKind::kCollect, Status::Internal("collect"));
  w1->Fail(MessageKind::kDispatch, Status::Internal("dispatch"));
  ASSERT_TRUE((*cluster)->AttachEndpoint(0, w0).ok());
  ASSERT_TRUE((*cluster)->AttachEndpoint(1, w1).ok());
  CollectErrorsResponse response;
  const Status status = (*cluster)->RunColumn(
      RunUpdateColumn{}, CollectErrorsRequest{}, &response);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "dispatch");
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_events, 0)
      << "a column whose collect failed on any machine charges nothing";
}

TEST(Cluster, QueryRoutesToOneMachineAndChargesTheRoundTrip) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto w0 = std::make_shared<FakeEndpoint>(0);
  auto w1 = std::make_shared<FakeEndpoint>(1);
  ASSERT_TRUE((*cluster)->AttachEndpoint(0, w0).ok());
  ASSERT_TRUE((*cluster)->AttachEndpoint(1, w1).ok());
  QueryRequest msg;
  msg.id = 7;
  const std::int64_t request_bytes = msg.WireBytes();
  QueryResponse response;
  ASSERT_TRUE((*cluster)->QueryWorker(1, msg, &response).ok());
  EXPECT_EQ(response.id, 7u);
  EXPECT_EQ(w0->log(), std::vector<Delivery>{});
  EXPECT_EQ(w1->log(), (std::vector<Delivery>{{MessageKind::kCollect, 7}}));
  EXPECT_EQ((*cluster)->comm().Snapshot().query_bytes,
            request_bytes + response.WireBytes());

  w1->Fail(MessageKind::kCollect, Status::Internal("boom"));
  EXPECT_EQ((*cluster)->QueryWorker(1, msg, &response).code(),
            StatusCode::kInternal);
  EXPECT_EQ((*cluster)->QueryWorker(4, msg, &response).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*cluster)->comm().Snapshot().query_bytes,
            request_bytes + response.WireBytes())
      << "a failed query charges nothing";
}

TEST(Placement, RoundRobinAndBlockPolicies) {
  const RoundRobinPlacement rr;
  EXPECT_EQ(rr.Place(5, 4), 1);
  EXPECT_EQ(rr.name(), "round-robin");
  const BlockPlacement block(8);
  // ceil(8 / 4) = 2 partitions per machine, in contiguous runs.
  EXPECT_EQ(block.Place(0, 4), 0);
  EXPECT_EQ(block.Place(1, 4), 0);
  EXPECT_EQ(block.Place(2, 4), 1);
  EXPECT_EQ(block.Place(7, 4), 3);
  EXPECT_EQ(block.Place(100, 4), 3) << "indices past N wrap to the last";
}

TEST(Cluster, PlacementPolicyIsPluggable) {
  ClusterConfig config = SmallConfig();
  config.placement = std::make_shared<BlockPlacement>(8);
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->OwnerOf(0), 0);
  EXPECT_EQ((*cluster)->OwnerOf(1), 0);
  EXPECT_EQ((*cluster)->OwnerOf(7), 3);
}

TEST(CommStats, SnapshotAndReset) {
  CommStats stats;
  stats.RecordShuffle(10);
  stats.RecordBroadcast(20);
  stats.RecordCollect(30);
  stats.RecordCollect(5);
  CommSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.shuffle_bytes, 10);
  EXPECT_EQ(snap.broadcast_bytes, 20);
  EXPECT_EQ(snap.collect_bytes, 35);
  EXPECT_EQ(snap.collect_events, 2);
  EXPECT_EQ(snap.TotalBytes(), 65);
  EXPECT_FALSE(snap.ToString().empty());
  stats.Reset();
  EXPECT_EQ(stats.Snapshot().TotalBytes(), 0);
}

}  // namespace
}  // namespace dbtf
