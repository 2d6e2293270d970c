#include "dist/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dbtf/partition.h"
#include "dist/cluster.h"
#include "dist/provision.h"
#include "fake_endpoint.h"
#include "generator/generator.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace {

FaultPlan MustParse(const std::string& text) {
  auto plan = FaultPlan::Parse(text);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

ClusterConfig FaultyConfig(const std::string& plan, int machines = 2) {
  ClusterConfig config;
  config.num_machines = machines;
  config.num_threads = 2;
  config.fault_plan = MustParse(plan);
  return config;
}

// --- FaultSpec / FaultPlan text form ----------------------------------------

TEST(FaultSpec, ToStringCoversAllForms) {
  FaultSpec spec;
  spec.machine = 1;
  spec.message = MessageKind::kDispatch;
  spec.kind = FaultKind::kTransient;
  spec.delivery = 3;
  EXPECT_EQ(spec.ToString(), "1:dispatch:transient@3");
  spec.count = 2;
  EXPECT_EQ(spec.ToString(), "1:dispatch:transient@3x2");
  spec.kind = FaultKind::kStall;
  spec.stall_seconds = 0.5;
  EXPECT_EQ(spec.ToString(), "1:dispatch:stall@3x2~0.5");
  spec.message = MessageKind::kBroadcast;
  spec.kind = FaultKind::kCrash;
  spec.count = 1;
  spec.stall_seconds = 0.0;
  EXPECT_EQ(spec.ToString(), "1:broadcast:crash@3");
}

TEST(FaultPlan, ParseRoundTripsToString) {
  const std::string text =
      "1:dispatch:transient@3x2,0:collect:stall@1~0.5,1:broadcast:crash@2";
  const FaultPlan plan = MustParse(text);
  ASSERT_EQ(plan.faults.size(), 3u);
  EXPECT_EQ(plan.ToString(), text);
  // Whitespace and trailing commas are tolerated; empty input is empty.
  EXPECT_EQ(MustParse(" 1:dispatch:transient@3x2 , ").ToString(),
            "1:dispatch:transient@3x2");
  EXPECT_TRUE(MustParse("").empty());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("nonsense").ok());
  EXPECT_FALSE(FaultPlan::Parse("x:dispatch:transient@1").ok());
  EXPECT_FALSE(FaultPlan::Parse("0:teleport:transient@1").ok());
  EXPECT_FALSE(FaultPlan::Parse("0:dispatch:flaky@1").ok());
  EXPECT_FALSE(FaultPlan::Parse("0:dispatch:transient@").ok());
  EXPECT_FALSE(FaultPlan::Parse("0:dispatch:transient@1xq").ok());
  EXPECT_FALSE(FaultPlan::Parse("0:collect:stall@1~fast").ok());
}

TEST(FaultPlan, ValidateChecksRangesAndSurvivors) {
  EXPECT_TRUE(MustParse("1:dispatch:transient@1").Validate(2).ok());
  // Machine out of range for the cluster size.
  EXPECT_FALSE(MustParse("2:dispatch:transient@1").Validate(2).ok());
  // Delivery ordinals are 1-based.
  EXPECT_FALSE(MustParse("0:dispatch:transient@0").Validate(2).ok());
  // Stall seconds only apply to stalls.
  FaultPlan plan = MustParse("0:dispatch:transient@1");
  plan.faults[0].stall_seconds = 0.5;
  EXPECT_FALSE(plan.Validate(2).ok());
  // A plan may not crash every machine: nobody would survive to adopt the
  // lost partitions.
  EXPECT_FALSE(
      MustParse("0:dispatch:crash@1,1:collect:crash@1").Validate(2).ok());
  EXPECT_TRUE(
      MustParse("0:dispatch:crash@1,1:collect:crash@1").Validate(3).ok());
}

TEST(FaultPlan, RandomIsDeterministicAndSparesMachineZero) {
  const FaultPlan a = FaultPlan::Random(99, 4, 6, 2);
  const FaultPlan b = FaultPlan::Random(99, 4, 6, 2);
  EXPECT_EQ(a.ToString(), b.ToString()) << "same seed, same plan";
  EXPECT_NE(a.ToString(), FaultPlan::Random(100, 4, 6, 2).ToString());
  EXPECT_TRUE(a.Validate(4).ok());

  std::vector<bool> crashed(4, false);
  int crashes = 0;
  for (const FaultSpec& spec : a.faults) {
    if (spec.kind != FaultKind::kCrash) continue;
    EXPECT_NE(spec.machine, 0) << "crashes always spare machine 0";
    EXPECT_FALSE(crashed[static_cast<std::size_t>(spec.machine)])
        << "crashes land on distinct machines";
    crashed[static_cast<std::size_t>(spec.machine)] = true;
    ++crashes;
  }
  EXPECT_EQ(crashes, 2);
  // Asking for more crashes than machines can absorb is clamped to M - 1.
  const FaultPlan c = FaultPlan::Random(7, 3, 0, 10);
  EXPECT_TRUE(c.Validate(3).ok());
  EXPECT_EQ(c.faults.size(), 2u);
}

// --- RetryPolicy ------------------------------------------------------------

TEST(RetryPolicy, ValidateRejectsDegenerateBudgets) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.Validate().ok());
  policy.max_attempts = 0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy();
  policy.backoff_seconds = -1.0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy();
  policy.backoff_multiplier = 0.5;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy();
  policy.message_deadline_seconds = 0.0;
  EXPECT_FALSE(policy.Validate().ok());
}

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, TransientFaultHitsTheScheduledWindowOnly) {
  FaultInjector injector(MustParse("0:dispatch:transient@2x2"));
  EXPECT_TRUE(injector.OnDelivery(0, MessageKind::kDispatch).status.ok());
  const auto second = injector.OnDelivery(0, MessageKind::kDispatch);
  EXPECT_EQ(second.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(second.machine_lost);
  EXPECT_EQ(injector.OnDelivery(0, MessageKind::kDispatch).status.code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(injector.OnDelivery(0, MessageKind::kDispatch).status.ok())
      << "the window [2, 4) has passed";
}

TEST(FaultInjector, CountersArePerMachineAndMessageKind) {
  FaultInjector injector(MustParse("1:dispatch:transient@1"));
  // Other machines and other message kinds are untouched by the spec, and
  // their deliveries do not advance machine 1's dispatch counter.
  EXPECT_TRUE(injector.OnDelivery(0, MessageKind::kDispatch).status.ok());
  EXPECT_TRUE(injector.OnDelivery(1, MessageKind::kBroadcast).status.ok());
  EXPECT_TRUE(injector.OnDelivery(1, MessageKind::kCollect).status.ok());
  EXPECT_EQ(injector.OnDelivery(1, MessageKind::kDispatch).status.code(),
            StatusCode::kUnavailable);
}

TEST(FaultInjector, CrashIsPermanent) {
  FaultInjector injector(MustParse("1:collect:crash@2"));
  EXPECT_FALSE(injector.IsDead(1));
  EXPECT_TRUE(injector.OnDelivery(1, MessageKind::kCollect).status.ok());
  const auto crash = injector.OnDelivery(1, MessageKind::kCollect);
  EXPECT_EQ(crash.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(crash.machine_lost);
  EXPECT_TRUE(injector.IsDead(1));
  // Dead is dead: every later delivery to the machine fails, on any kind.
  const auto later = injector.OnDelivery(1, MessageKind::kDispatch);
  EXPECT_EQ(later.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(later.machine_lost);
  EXPECT_FALSE(injector.IsDead(0));
}

TEST(FaultInjector, OverlappingStallsAccumulate) {
  FaultInjector injector(
      MustParse("0:broadcast:stall@1~0.25,0:broadcast:stall@1x2~0.5"));
  const auto first = injector.OnDelivery(0, MessageKind::kBroadcast);
  EXPECT_TRUE(first.status.ok()) << "a stalled delivery still goes through";
  EXPECT_DOUBLE_EQ(first.stall_seconds, 0.75);
  const auto second = injector.OnDelivery(0, MessageKind::kBroadcast);
  EXPECT_DOUBLE_EQ(second.stall_seconds, 0.5);
  EXPECT_DOUBLE_EQ(injector.OnDelivery(0, MessageKind::kBroadcast).stall_seconds,
                   0.0);
}

// --- RecoveryLedger ---------------------------------------------------------

TEST(RecoveryLedger, SnapshotSinceAndPlus) {
  RecoveryLedger ledger;
  ledger.RecordFailedDelivery();
  ledger.RecordRetry(0.001);
  const RecoveryStats begin = ledger.Snapshot();
  ledger.RecordFailedDelivery();
  ledger.RecordRetry(0.002);
  ledger.RecordMachineLost();
  ledger.RecordReprovision(4096, 0.25);
  ledger.RecordStall(0.5);

  const RecoveryStats delta = ledger.Snapshot().Since(begin);
  EXPECT_EQ(delta.failed_deliveries, 1);
  EXPECT_EQ(delta.retries, 1);
  EXPECT_EQ(delta.machines_lost, 1);
  EXPECT_EQ(delta.reprovisions, 1);
  EXPECT_EQ(delta.reshipped_bytes, 4096);
  EXPECT_DOUBLE_EQ(delta.recovery_seconds, 0.002 + 0.25 + 0.5);

  const RecoveryStats sum = begin.Plus(delta);
  EXPECT_EQ(sum.failed_deliveries, 2);
  EXPECT_EQ(sum.retries, 2);
  EXPECT_EQ(sum.reshipped_bytes, 4096);
  EXPECT_FALSE(sum.ToString().empty());
}

// --- Cluster routing under faults -------------------------------------------

TEST(ClusterFaults, ConfigValidatesPlanAndPolicy) {
  ClusterConfig config = FaultyConfig("1:dispatch:transient@1");
  EXPECT_TRUE(config.Validate().ok());
  config.fault_plan = MustParse("5:dispatch:transient@1");
  EXPECT_FALSE(config.Validate().ok()) << "plan machine out of range";
  config = FaultyConfig("1:dispatch:transient@1");
  config.retry.max_attempts = 0;
  EXPECT_FALSE(config.Validate().ok());
}

/// Attaches one fake endpoint per listed machine.
std::vector<std::shared_ptr<FakeEndpoint>> AttachFakes(
    Cluster& cluster, const std::vector<int>& machines,
    std::int64_t collect_wire_bytes = 0) {
  std::vector<std::shared_ptr<FakeEndpoint>> fakes;
  for (const int m : machines) {
    fakes.push_back(std::make_shared<FakeEndpoint>(m, collect_wire_bytes));
    EXPECT_TRUE(cluster.AttachEndpoint(m, fakes.back()).ok());
  }
  return fakes;
}

/// One column step (dispatch + collect) with empty messages.
Status RunEmptyColumn(Cluster& cluster) {
  CollectErrorsResponse response;
  return cluster.RunColumn(RunUpdateColumn{}, CollectErrorsRequest{},
                           &response);
}

TEST(ClusterFaults, TransientFaultIsRetriedTransparently) {
  ClusterConfig config = FaultyConfig("1:dispatch:transient@1");
  // A free network, so the only driver time is the retry backoff.
  config.network_latency_seconds = 0.0;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  const auto fakes = AttachFakes(**cluster, {0, 1});
  ASSERT_TRUE(RunEmptyColumn(**cluster).ok())
      << "one transient fault is absorbed by the retry policy";
  for (const auto& fake : fakes) {
    EXPECT_EQ(fake->deliveries(MessageKind::kDispatch), 1)
        << "every endpoint saw exactly one delivery";
  }
  const RecoveryStats stats = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(stats.failed_deliveries, 1);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.machines_lost, 0);
  EXPECT_GT(stats.recovery_seconds, 0.0) << "backoff costs virtual time";
  EXPECT_GT((*cluster)->DriverSeconds(), 0.0);
}

TEST(ClusterFaults, CollectRetryNeverDoubleCounts) {
  auto cluster = Cluster::Create(FaultyConfig("0:collect:transient@1"));
  ASSERT_TRUE(cluster.ok());
  const auto fakes = AttachFakes(**cluster, {0, 1}, /*collect_wire_bytes=*/10);
  ASSERT_TRUE(RunEmptyColumn(**cluster).ok());
  for (const auto& fake : fakes) {
    EXPECT_EQ(fake->deliveries(MessageKind::kCollect), 1)
        << "the faulted attempt never reached the endpoint";
  }
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_bytes, 20)
      << "each endpoint's payload is charged exactly once";
  EXPECT_EQ((*cluster)->recovery().Snapshot().retries, 1);
}

TEST(ClusterFaults, StallPastDeadlineIsRetried) {
  ClusterConfig config = FaultyConfig("0:dispatch:stall@1~0.5");
  config.retry.message_deadline_seconds = 0.25;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  const auto fakes = AttachFakes(**cluster, {0});
  ASSERT_TRUE(RunEmptyColumn(**cluster).ok());
  EXPECT_EQ(fakes[0]->deliveries(MessageKind::kDispatch), 1);
  // The stall is charged to the machine's virtual clock even though the
  // delivery was abandoned at the deadline.
  EXPECT_GE((*cluster)->MachineComputeSeconds(0), 0.5);
  const RecoveryStats stats = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(stats.failed_deliveries, 1);
  EXPECT_EQ(stats.retries, 1);
}

TEST(ClusterFaults, ShortStallOnlyCostsVirtualTime) {
  auto cluster = Cluster::Create(FaultyConfig("0:dispatch:stall@1~0.01"));
  ASSERT_TRUE(cluster.ok());
  const auto fakes = AttachFakes(**cluster, {0});
  ASSERT_TRUE(RunEmptyColumn(**cluster).ok());
  EXPECT_EQ(fakes[0]->deliveries(MessageKind::kDispatch), 1)
      << "a stall under the deadline goes through";
  EXPECT_GE((*cluster)->MachineComputeSeconds(0), 0.01);
  EXPECT_EQ((*cluster)->recovery().Snapshot().retries, 0);
}

TEST(ClusterFaults, ExhaustedRetryBudgetSurfacesCleanUnavailable) {
  ClusterConfig config = FaultyConfig("0:dispatch:transient@1x10");
  config.retry.max_attempts = 3;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  const auto fakes = AttachFakes(**cluster, {0});
  const Status status = RunEmptyColumn(**cluster);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("retry budget exhausted"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(fakes[0]->deliveries(MessageKind::kDispatch), 0)
      << "every attempt was absorbed by the fault";
  const RecoveryStats stats = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(stats.failed_deliveries, 3);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.machines_lost, 0);
}

TEST(ClusterFaults, FatalHandlerErrorsAreNotRetried) {
  auto cluster = Cluster::Create(FaultyConfig("1:dispatch:transient@1"));
  ASSERT_TRUE(cluster.ok());
  const auto fakes = AttachFakes(**cluster, {0});
  fakes[0]->Fail(MessageKind::kDispatch, Status::Internal("corrupt partition"));
  const Status status = RunEmptyColumn(**cluster);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(fakes[0]->deliveries(MessageKind::kDispatch), 1)
      << "fatal codes surface immediately";
  EXPECT_EQ((*cluster)->recovery().Snapshot().retries, 0);
}

TEST(ClusterFaults, CrashDetachesEndpointAndReportsDeadMachine) {
  auto cluster = Cluster::Create(FaultyConfig("1:dispatch:crash@1"));
  ASSERT_TRUE(cluster.ok());
  const auto fakes = AttachFakes(**cluster, {0, 1});
  EXPECT_TRUE((*cluster)->DeadMachines().empty());

  EXPECT_EQ(RunEmptyColumn(**cluster).code(), StatusCode::kUnavailable);
  EXPECT_EQ((*cluster)->DeadMachines(), std::vector<int>{1});
  EXPECT_EQ((*cluster)->num_attached_workers(), 1)
      << "the dead machine's endpoint is detached";
  EXPECT_EQ((*cluster)->EndpointOn(1), nullptr);
  EXPECT_EQ((*cluster)->AttachEndpoint(1, fakes[1]).code(),
            StatusCode::kFailedPrecondition)
      << "a dead machine's endpoint can never be re-attached";
  EXPECT_EQ(fakes[1]->deliveries(MessageKind::kDispatch), 0)
      << "the crash hit before the handler";
  const RecoveryStats stats = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(stats.machines_lost, 1);

  // The survivor keeps routing.
  ASSERT_TRUE(RunEmptyColumn(**cluster).ok());
  EXPECT_EQ(fakes[0]->deliveries(MessageKind::kDispatch), 2);
  EXPECT_EQ(fakes[1]->deliveries(MessageKind::kDispatch), 0);
}

TEST(ClusterFaults, RoutingAfterTotalLossIsUnavailableNotUsageError) {
  auto cluster = Cluster::Create(FaultyConfig("1:dispatch:crash@1"));
  ASSERT_TRUE(cluster.ok());
  const auto fakes = AttachFakes(**cluster, {1});
  EXPECT_EQ(RunEmptyColumn(**cluster).code(), StatusCode::kUnavailable);
  // The only endpoint died: routing now reports kUnavailable (retryable, the
  // driver may re-provision) instead of kFailedPrecondition (usage error).
  EXPECT_EQ(RunEmptyColumn(**cluster).code(), StatusCode::kUnavailable);
  EXPECT_EQ((*cluster)->BroadcastFactors(BroadcastOfWords(8)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ((*cluster)->comm().Snapshot().broadcast_events, 0)
      << "a broadcast with every machine dead is not charged";
}

// --- Re-provisioning lost partitions ----------------------------------------

PlantedTensor MakePlanted(std::uint64_t seed) {
  PlantedSpec spec;
  spec.dim_i = 24;
  spec.dim_j = 28;
  spec.dim_k = 20;
  spec.rank = 4;
  spec.factor_density = 0.2;
  spec.seed = seed;
  return GeneratePlanted(spec).value();
}

TEST(Reprovision, RebuildsLostPartitionsOntoSurvivors) {
  const PlantedTensor p = MakePlanted(51);
  auto cluster =
      Cluster::Create(FaultyConfig("1:broadcast:crash@1", /*machines=*/2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(ProvisionWorkers(**cluster).ok());

  auto unfolding = PartitionedUnfolding::Build(p.tensor, Mode::kOne, 4);
  ASSERT_TRUE(unfolding.ok());
  const UnfoldShape shape = unfolding->shape();
  const std::int64_t num_partitions = unfolding->num_partitions();
  ASSERT_GT(num_partitions, 1);
  {
    std::vector<Partition> parts = std::move(*unfolding).ReleasePartitions();
    for (std::int64_t i = 0; i < num_partitions; ++i) {
      ASSERT_TRUE(StorePartition(**cluster, Mode::kOne, i, std::move(parts[i]),
                                 shape)
                      .ok());
    }
  }
  const CommSnapshot before = (*cluster)->comm().Snapshot();

  // Machine 1 — round-robin owner of the odd partitions — crashes on its
  // first broadcast delivery (an apply-only delta with no updates, which
  // the survivor accepts as a no-op).
  FactorDelta noop;
  noop.apply_only = true;
  EXPECT_EQ((*cluster)->BroadcastFactors(noop).code(),
            StatusCode::kUnavailable);
  ASSERT_EQ((*cluster)->DeadMachines(), std::vector<int>{1});

  const std::vector<ReprovisionSpec> specs = {
      {Mode::kOne, shape, num_partitions}};
  int rebuilds = 0;
  const UnfoldingRebuilder rebuild =
      [&p, &rebuilds](Mode mode) -> Result<std::vector<Partition>> {
    ++rebuilds;
    auto rebuilt = PartitionedUnfolding::Build(p.tensor, mode, 4);
    if (!rebuilt.ok()) return rebuilt.status();
    return std::move(*rebuilt).ReleasePartitions();
  };
  ASSERT_TRUE(ReprovisionLostPartitions(**cluster, specs, rebuild).ok());
  EXPECT_EQ(rebuilds, 1);

  // Full coverage is restored on the survivor.
  const std::shared_ptr<WorkerEndpoint> survivor = (*cluster)->EndpointOn(0);
  ASSERT_NE(survivor, nullptr);
  Result<std::vector<std::int64_t>> listed =
      survivor->ListPartitions(Mode::kOne, nullptr);
  ASSERT_TRUE(listed.ok());
  std::vector<std::int64_t> indexes = *std::move(listed);
  ASSERT_EQ(static_cast<std::int64_t>(indexes.size()), num_partitions);
  std::sort(indexes.begin(), indexes.end());
  for (std::int64_t i = 0; i < num_partitions; ++i) {
    EXPECT_EQ(indexes[static_cast<std::size_t>(i)], i);
  }

  // The reshipped bytes ride the CommStats ledger as shuffles, and the
  // recovery ledger counts one re-provision per lost partition.
  const CommSnapshot after = (*cluster)->comm().Snapshot();
  const RecoveryStats stats = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(stats.reprovisions, num_partitions / 2) << "the odd indexes died";
  EXPECT_GT(stats.reshipped_bytes, 0);
  EXPECT_EQ(after.shuffle_bytes - before.shuffle_bytes, stats.reshipped_bytes);
  EXPECT_EQ(after.shuffle_events - before.shuffle_events, stats.reprovisions);
  EXPECT_GT(stats.recovery_seconds, 0.0);

  // Re-provisioning again is a no-op: nothing is missing anymore.
  ASSERT_TRUE(ReprovisionLostPartitions(**cluster, specs, rebuild).ok());
  EXPECT_EQ(rebuilds, 1)
      << "the rebuilder runs only when partitions are actually missing";
  EXPECT_EQ((*cluster)->comm().Snapshot().shuffle_bytes, after.shuffle_bytes);
}

TEST(Reprovision, FailsCleanlyWhenNoMachineSurvives) {
  const PlantedTensor p = MakePlanted(52);
  ClusterConfig config;
  config.num_machines = 2;
  config.num_threads = 2;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  // No workers attached at all: every partition is missing and there is no
  // machine to adopt the rebuilt data.
  auto unfolding = PartitionedUnfolding::Build(p.tensor, Mode::kOne, 2);
  ASSERT_TRUE(unfolding.ok());
  const std::vector<ReprovisionSpec> specs = {
      {Mode::kOne, unfolding->shape(), unfolding->num_partitions()}};
  const UnfoldingRebuilder rebuild =
      [&p](Mode mode) -> Result<std::vector<Partition>> {
    auto rebuilt = PartitionedUnfolding::Build(p.tensor, mode, 2);
    if (!rebuilt.ok()) return rebuilt.status();
    return std::move(*rebuilt).ReleasePartitions();
  };
  EXPECT_EQ(ReprovisionLostPartitions(**cluster, specs, rebuild).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dbtf
