#include "dist/cluster.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

  // Socket paths live in sun_path (~108 bytes); a directory that cannot
  // hold "<dir>/worker-<m>.sock" is rejected up front.
  config = SmallConfig();
  config.transport.kind = TransportKind::kSocket;
  config.transport.socket_dir = "/tmp/" + std::string(120, 'p');
  EXPECT_FALSE(config.Validate().ok());
  config.transport.socket_dir = "/tmp/short";
  EXPECT_TRUE(config.Validate().ok());
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

TEST(Cluster, ColumnIsOneExchangePerMachine) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  std::vector<std::shared_ptr<FakeEndpoint>> fakes;
  for (int m = 0; m < 4; ++m) {
    fakes.push_back(std::make_shared<FakeEndpoint>(m));
    ASSERT_TRUE((*cluster)->AttachEndpoint(m, fakes.back()).ok());
  }
  RunUpdateColumn run;
  run.column = 5;
  CollectErrorsResponse response;
  ASSERT_TRUE(
      (*cluster)->RunColumn(run, CollectErrorsRequest{}, &response).ok());
  for (const auto& fake : fakes) {
    EXPECT_EQ(fake->log(), (std::vector<Delivery>{{MessageKind::kDispatch, 5}}))
        << "exactly one delivery on machine " << fake->machine();
  }
}

TEST(Cluster, ColumnChargesTheRepliesEncodedSizesAsOneEvent) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto w0 = std::make_shared<FakeEndpoint>(0, /*reply_rows=*/30);
  auto w1 = std::make_shared<FakeEndpoint>(1, /*reply_rows=*/200);
  ASSERT_TRUE((*cluster)->AttachEndpoint(0, w0).ok());
  ASSERT_TRUE((*cluster)->AttachEndpoint(1, w1).ok());
  CollectErrorsResponse response;
  ASSERT_TRUE((*cluster)
                  ->RunColumn(RunUpdateColumn{}, CollectErrorsRequest{},
                              &response)
                  .ok());
  EXPECT_EQ(response.diffs.size(), 200u) << "replies merge at the driver";
  const std::int64_t expected =
      FakeColumnReply(30).WireBytes() + FakeColumnReply(200).WireBytes();
  // 200 rows need a two-byte row count and block length.
  EXPECT_EQ(expected, (2 + 30 + 3) + (4 + 200 + 3));
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.collect_bytes, expected);
  EXPECT_EQ(snap.collect_events, 1);
}

TEST(Cluster, FailedColumnSurfacesTheErrorAndChargesNothing) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto w0 = std::make_shared<FakeEndpoint>(0, /*reply_rows=*/8);
  auto w1 = std::make_shared<FakeEndpoint>(1, /*reply_rows=*/8);
  w1->Fail(MessageKind::kDispatch, Status::Internal("boom"));
  ASSERT_TRUE((*cluster)->AttachEndpoint(0, w0).ok());
  ASSERT_TRUE((*cluster)->AttachEndpoint(1, w1).ok());
  CollectErrorsResponse response;
  const Status status = (*cluster)->RunColumn(
      RunUpdateColumn{}, CollectErrorsRequest{}, &response);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "boom");
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_events, 0)
      << "a column that failed on any machine charges nothing";
}

TEST(Cluster, ColumnRejectsMismatchedRequestsBeforeDelivery) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto w0 = std::make_shared<FakeEndpoint>(0);
  ASSERT_TRUE((*cluster)->AttachEndpoint(0, w0).ok());
  RunUpdateColumn run;
  run.rows = 2;
  run.row_masks = {0x1, 0x2};
  CollectErrorsRequest req;
  req.rows = 3;
  CollectErrorsResponse response;
  EXPECT_EQ((*cluster)->RunColumn(run, req, &response).code(),
            StatusCode::kInvalidArgument);
  req.rows = 2;
  run.row_masks.pop_back();
  EXPECT_EQ((*cluster)->RunColumn(run, req, &response).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w0->log(), std::vector<Delivery>{});
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

TEST(Cluster, EmptyRegistryResolvesWithoutDeadlock) {
  ClusterConfig config;
  config.num_machines = 2;
  config.num_threads = 2;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  CollectErrorsResponse response;
  EXPECT_EQ((*cluster)
                ->RunColumn(RunUpdateColumn{}, CollectErrorsRequest{},
                            &response)
                .code(),
            StatusCode::kFailedPrecondition);
}

// The determinism anchor of the routing layer: N machines, K rounds of
// broadcast + column (one exchange per machine) under a fault plan with
// transient failures and a stall. Every machine must see its deliveries in
// exact call order, every handler must run exactly once per round (faults
// fail *before* the handler; retries redeliver), and the ledger must charge
// exactly once per event. Run under TSan this is also the concurrency
// stress for the pool fan-out, the delivery locks, and the ledger.
TEST(Cluster, RoundsStayFifoAndChargeExactlyOnce) {
  constexpr int kMachines = 4;
  constexpr int kRounds = 8;
  constexpr std::int64_t kBroadcastWords = 8;

  ClusterConfig config;
  config.num_machines = kMachines;
  config.num_threads = 4;
  auto plan = FaultPlan::Parse(
      "0:dispatch:transient@2,1:dispatch:transient@1,"
      "2:broadcast:transient@3,3:dispatch:stall@2~0.01");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = *plan;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());

  std::vector<std::shared_ptr<FakeEndpoint>> fakes;
  std::int64_t column_bytes = 0;
  for (int m = 0; m < kMachines; ++m) {
    fakes.push_back(std::make_shared<FakeEndpoint>(m, m * 10 + 1));
    column_bytes += FakeColumnReply(m * 10 + 1).WireBytes();
    ASSERT_TRUE((*cluster)->AttachEndpoint(m, fakes.back()).ok());
  }

  // Each message carries its round as the fake's delivery tag.
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(
        (*cluster)->BroadcastFactors(BroadcastOfWords(kBroadcastWords, round))
            .ok());
    RunUpdateColumn run;
    run.column = round;
    CollectErrorsResponse response;
    ASSERT_TRUE(
        (*cluster)->RunColumn(run, CollectErrorsRequest{}, &response).ok());
  }

  // Per-machine FIFO: broadcast then column exchange of round r, then round
  // r+1 — exactly the call order, independent of thread scheduling.
  for (const auto& fake : fakes) {
    const std::vector<Delivery> log = fake->log();
    ASSERT_EQ(log.size(), static_cast<std::size_t>(2 * kRounds))
        << "machine " << fake->machine();
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t base = static_cast<std::size_t>(2 * round);
      EXPECT_EQ(log[base], (Delivery{MessageKind::kBroadcast, round}));
      EXPECT_EQ(log[base + 1], (Delivery{MessageKind::kDispatch, round}));
    }
  }

  // Exactly-once ledger charging despite retries: one broadcast event per
  // round priced for all machines, one collect event per round summing the
  // per-machine reply sizes.
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.broadcast_events, kRounds);
  EXPECT_EQ(snap.broadcast_bytes,
            kRounds * kBroadcastWords * 8 * kMachines);
  EXPECT_EQ(snap.collect_events, kRounds);
  EXPECT_EQ(snap.collect_bytes, kRounds * column_bytes);
  // The three planned transient faults each failed one delivery attempt and
  // were retried; the stall neither fails nor retries.
  const RecoveryStats recovery = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(recovery.failed_deliveries, 3);
  EXPECT_EQ(recovery.machines_lost, 0);

  (*cluster)->DetachWorkers();
}

// Serving reads racing factor broadcasts from another thread: a query runs
// on its caller's thread and a broadcast on the pool, so only the
// per-machine delivery lock keeps them apart. No endpoint may ever see two
// handlers at once, no delivery may be lost, and each thread's deliveries
// reach every machine in that thread's call order.
TEST(Cluster, QueriesRacingBroadcastsNeverOverlapOnAMachine) {
  constexpr int kMachines = 4;
  constexpr int kRounds = 200;

  ClusterConfig config;
  config.num_machines = kMachines;
  config.num_threads = 4;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  std::vector<std::shared_ptr<FakeEndpoint>> fakes;
  for (int m = 0; m < kMachines; ++m) {
    fakes.push_back(std::make_shared<FakeEndpoint>(m));
    ASSERT_TRUE((*cluster)->AttachEndpoint(m, fakes.back()).ok());
  }

  std::vector<Status> query_statuses;
  std::thread reader([&] {
    for (int q = 0; q < kRounds; ++q) {
      QueryRequest msg;
      msg.id = static_cast<std::uint64_t>(q);
      QueryResponse response;
      query_statuses.push_back(
          (*cluster)->QueryWorker(q % kMachines, msg, &response));
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_TRUE((*cluster)->BroadcastFactors(BroadcastOfWords(1, round)).ok());
  }
  reader.join();
  for (const Status& status : query_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  for (const auto& fake : fakes) {
    EXPECT_EQ(fake->max_in_flight(), 1)
        << "overlapping handlers on machine " << fake->machine();
    std::vector<std::int64_t> broadcasts;
    std::vector<std::int64_t> queries;
    for (const Delivery& d : fake->log()) {
      (d.kind == MessageKind::kBroadcast ? broadcasts : queries)
          .push_back(d.tag);
    }
    std::vector<std::int64_t> want_broadcasts;
    std::vector<std::int64_t> want_queries;
    for (int round = 0; round < kRounds; ++round) {
      want_broadcasts.push_back(round);
      if (round % kMachines == fake->machine()) want_queries.push_back(round);
    }
    EXPECT_EQ(broadcasts, want_broadcasts) << "machine " << fake->machine();
    EXPECT_EQ(queries, want_queries) << "machine " << fake->machine();
  }
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.broadcast_events, kRounds);
  EXPECT_EQ(snap.query_events, kRounds);
  (*cluster)->DetachWorkers();
}

// --- Posted fan-outs ----------------------------------------------------------
//
// Endpoints that post frames (sockets) are fanned out on the calling thread:
// one encoded frame is sent to every machine in machine order, then the
// replies are read in that order. These cases drive that form through fakes
// in posted mode and pin it to the pool form's retry, loss and ledger rules.

std::vector<std::shared_ptr<FakeEndpoint>> AttachFakes(Cluster& cluster,
                                                       bool posts_frames,
                                                       PhaseLog* phases) {
  std::vector<std::shared_ptr<FakeEndpoint>> fakes;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    fakes.push_back(
        std::make_shared<FakeEndpoint>(m, m * 10 + 1, posts_frames));
    if (phases != nullptr) fakes.back()->RecordPhases(phases);
    EXPECT_TRUE(cluster.AttachEndpoint(m, fakes.back()).ok());
  }
  return fakes;
}

Status RunTaggedColumn(Cluster& cluster, std::int64_t column,
                       CollectErrorsResponse* response) {
  RunUpdateColumn run;
  run.column = column;
  return cluster.RunColumn(run, CollectErrorsRequest{}, response);
}

TEST(ClusterPosted, EveryFrameIsSentBeforeAnyReplyIsRead) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  PhaseLog phases;
  // Attached out of machine order: the fan-out still sends in machine
  // order, the one order in which a thread takes several delivery locks.
  std::vector<std::shared_ptr<FakeEndpoint>> fakes;
  for (const int m : {2, 0, 3, 1}) {
    fakes.push_back(std::make_shared<FakeEndpoint>(m, 4, true));
    fakes.back()->RecordPhases(&phases);
    ASSERT_TRUE((*cluster)->AttachEndpoint(m, fakes.back()).ok());
  }
  CollectErrorsResponse response;
  ASSERT_TRUE(RunTaggedColumn(**cluster, 6, &response).ok());
  EXPECT_EQ(phases.entries(),
            (std::vector<std::string>{"send 0", "send 1", "send 2", "send 3",
                                      "reply 0", "reply 1", "reply 2",
                                      "reply 3"}));
  for (const auto& fake : fakes) {
    EXPECT_EQ(fake->log(), (std::vector<Delivery>{{MessageKind::kDispatch, 6}}));
  }
  EXPECT_EQ(response.diffs.size(), 4u);
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.collect_events, 1);
  EXPECT_EQ(snap.collect_bytes, 4 * FakeColumnReply(4).WireBytes());

  ASSERT_TRUE((*cluster)->BroadcastFactors(BroadcastOfWords(3, 9)).ok());
  for (const auto& fake : fakes) {
    EXPECT_EQ(fake->log().back(), (Delivery{MessageKind::kBroadcast, 9}));
  }
  EXPECT_EQ((*cluster)->comm().Snapshot().broadcast_events, 1);
}

TEST(ClusterPosted, FailureAtSendLosesTheMachineAndChargesNothing) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto fakes = AttachFakes(**cluster, /*posts_frames=*/true, nullptr);
  fakes[2]->FailSend(MessageKind::kDispatch,
                     Status::IoError("send: broken pipe"));
  CollectErrorsResponse response;
  const Status status = RunTaggedColumn(**cluster, 1, &response);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_EQ((*cluster)->DeadMachines(), std::vector<int>{2});
  EXPECT_EQ((*cluster)->EndpointOn(2), nullptr);
  for (const auto& fake : fakes) {
    EXPECT_EQ(fake->deliveries(MessageKind::kDispatch), 1)
        << "a lost machine is not retried; machine " << fake->machine();
  }
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_events, 0);
  const RecoveryStats recovery = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(recovery.machines_lost, 1);
  EXPECT_EQ(recovery.failed_deliveries, 1);
  EXPECT_EQ(recovery.retries, 0);
}

TEST(ClusterPosted, FatalReplySurfacesAndChargesNothing) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto fakes = AttachFakes(**cluster, /*posts_frames=*/true, nullptr);
  fakes[1]->Fail(MessageKind::kDispatch, Status::Internal("boom"));
  fakes[3]->FailReplies(MessageKind::kDispatch,
                        Status::DeadlineExceeded("slow"), 5);
  CollectErrorsResponse response;
  const Status status = RunTaggedColumn(**cluster, 2, &response);
  EXPECT_EQ(status.code(), StatusCode::kInternal)
      << "a fatal code outranks machine 3's exhausted retries";
  EXPECT_EQ(status.message(), "boom");
  EXPECT_EQ(fakes[1]->deliveries(MessageKind::kDispatch), 1);
  EXPECT_EQ(fakes[3]->deliveries(MessageKind::kDispatch), 3)
      << "max_attempts deliveries";
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_events, 0)
      << "a column that failed on any machine charges nothing";
  EXPECT_TRUE((*cluster)->DeadMachines().empty());
}

TEST(ClusterPosted, FailedMachineRetriesAloneAndTheOthersRepliesAreKept) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  PhaseLog phases;
  auto fakes = AttachFakes(**cluster, /*posts_frames=*/true, &phases);
  fakes[1]->FailReplies(MessageKind::kDispatch,
                        Status::DeadlineExceeded("slow"), 1);
  CollectErrorsResponse response;
  ASSERT_TRUE(RunTaggedColumn(**cluster, 3, &response).ok());
  EXPECT_EQ(phases.entries(),
            (std::vector<std::string>{"send 0", "send 1", "send 2", "send 3",
                                      "reply 0", "reply 1", "send 1",
                                      "reply 1", "reply 2", "reply 3"}));
  std::int64_t collect_bytes = 0;
  for (const auto& fake : fakes) {
    const int want = fake->machine() == 1 ? 2 : 1;
    EXPECT_EQ(fake->deliveries(MessageKind::kDispatch), want)
        << "machine " << fake->machine();
    collect_bytes += FakeColumnReply(fake->machine() * 10 + 1).WireBytes();
  }
  EXPECT_EQ(response.diffs.size(), 31u) << "every machine's reply merged";
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.collect_events, 1);
  EXPECT_EQ(snap.collect_bytes, collect_bytes);
  const RecoveryStats recovery = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(recovery.failed_deliveries, 1);
  EXPECT_EQ(recovery.retries, 1);
}

// The two fan-out forms apply one set of retry rules: under the same fault
// plan (transient faults, a stall past the deadline, a crash) they consult
// the injector for the same (machine, kind) deliveries, fail and retry the
// same attempts, and charge the same ledgers.
TEST(ClusterPosted, FaultsPlayOutAsInThePoolForm) {
  constexpr int kRounds = 8;
  auto plan = FaultPlan::Parse(
      "0:dispatch:transient@2,1:dispatch:transient@1x2,"
      "2:broadcast:transient@3,3:dispatch:stall@4~0.5,2:dispatch:crash@6");
  ASSERT_TRUE(plan.ok());
  struct Outcome {
    std::vector<StatusCode> codes;
    std::vector<std::vector<Delivery>> logs;
    std::vector<std::int64_t> counters;
    RecoveryStats recovery;
    CommSnapshot comm;
    std::vector<int> dead;
    double driver_seconds = 0.0;
    std::vector<double> machine_seconds;
  };
  auto run = [&plan](bool posts_frames) {
    ClusterConfig config = SmallConfig();
    config.fault_plan = *plan;
    auto cluster = Cluster::Create(config);
    EXPECT_TRUE(cluster.ok());
    auto fakes = AttachFakes(**cluster, posts_frames, nullptr);
    Outcome out;
    for (int round = 0; round < kRounds; ++round) {
      out.codes.push_back(
          (*cluster)->BroadcastFactors(BroadcastOfWords(4, round)).code());
      CollectErrorsResponse response;
      out.codes.push_back(RunTaggedColumn(**cluster, round, &response).code());
    }
    for (const auto& fake : fakes) out.logs.push_back(fake->log());
    out.counters = (*cluster)->FaultDeliveryCounters();
    out.recovery = (*cluster)->recovery().Snapshot();
    out.comm = (*cluster)->comm().Snapshot();
    out.dead = (*cluster)->DeadMachines();
    out.driver_seconds = (*cluster)->DriverSeconds();
    for (int m = 0; m < (*cluster)->num_machines(); ++m) {
      out.machine_seconds.push_back((*cluster)->MachineComputeSeconds(m));
    }
    (*cluster)->DetachWorkers();
    return out;
  };
  const Outcome pool = run(false);
  const Outcome posted = run(true);
  EXPECT_EQ(posted.codes, pool.codes);
  EXPECT_EQ(posted.logs, pool.logs);
  EXPECT_EQ(posted.counters, pool.counters);
  EXPECT_EQ(posted.dead, std::vector<int>{2});
  EXPECT_EQ(posted.dead, pool.dead);
  EXPECT_EQ(posted.recovery.failed_deliveries, pool.recovery.failed_deliveries);
  EXPECT_EQ(posted.recovery.retries, pool.recovery.retries);
  EXPECT_EQ(posted.recovery.machines_lost, pool.recovery.machines_lost);
  EXPECT_EQ(posted.recovery.recovery_seconds, pool.recovery.recovery_seconds);
  EXPECT_EQ(posted.comm.broadcast_events, pool.comm.broadcast_events);
  EXPECT_EQ(posted.comm.broadcast_bytes, pool.comm.broadcast_bytes);
  EXPECT_EQ(posted.comm.collect_events, pool.comm.collect_events);
  EXPECT_EQ(posted.comm.collect_bytes, pool.comm.collect_bytes);
  EXPECT_EQ(posted.driver_seconds, pool.driver_seconds);
  EXPECT_EQ(posted.machine_seconds, pool.machine_seconds);
  EXPECT_GT(pool.recovery.retries, 0);
}

// The posted form of QueriesRacingBroadcastsNeverOverlapOnAMachine: a
// posted broadcast holds every machine's delivery lock from its send to its
// reply, so a query on another thread never lands in between.
TEST(ClusterPosted, QueriesRacingPostedBroadcastsNeverOverlapOnAMachine) {
  constexpr int kRounds = 200;
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  auto fakes = AttachFakes(**cluster, /*posts_frames=*/true, nullptr);
  std::vector<Status> query_statuses;
  std::thread reader([&] {
    for (int q = 0; q < kRounds; ++q) {
      QueryRequest msg;
      msg.id = static_cast<std::uint64_t>(q);
      QueryResponse response;
      query_statuses.push_back(
          (*cluster)->QueryWorker(q % 4, msg, &response));
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_TRUE((*cluster)->BroadcastFactors(BroadcastOfWords(1, round)).ok());
  }
  reader.join();
  for (const Status& status : query_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  for (const auto& fake : fakes) {
    EXPECT_EQ(fake->max_in_flight(), 1)
        << "overlapping exchanges on machine " << fake->machine();
    EXPECT_EQ(fake->deliveries(MessageKind::kBroadcast), kRounds);
  }
  (*cluster)->DetachWorkers();
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
