// Regression test for the detach-during-routing lifetime rule: endpoints
// attached to the cluster must stay alive while a routing call is still
// delivering to them, even if another thread calls DetachWorkers mid-flight.
// Routing snapshots share ownership, so the fake below keeps touching its
// own state after the detach without a use-after-free (run under ASan/TSan
// in CI) — and the snapshot lets go once the call returns.

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "dist/provision.h"
#include "fake_endpoint.h"

namespace dbtf {
namespace {

TEST(WorkerLifetimeTest, DetachDuringDispatchKeepsOwnedWorkersAlive) {
  ClusterConfig config;
  config.num_machines = 2;
  config.num_threads = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  Cluster& cluster = *cluster_or.value();

  // The cluster holds the only strong references; the test keeps weak ones
  // to watch the endpoints' lifetime.
  Latch latch;
  std::vector<std::weak_ptr<FakeEndpoint>> watched;
  for (int m = 0; m < 2; ++m) {
    auto fake = std::make_shared<FakeEndpoint>(m);
    fake->HoldOn(&latch);
    watched.push_back(fake);
    ASSERT_TRUE(cluster.AttachEndpoint(m, std::move(fake)).ok());
  }

  Status routed;
  std::thread router([&] { routed = cluster.BroadcastFactors(FactorDelta{}); });

  // Both deliveries are parked inside their endpoints when the registry
  // drops them.
  latch.WaitForArrivals(2);
  cluster.DetachWorkers();
  EXPECT_EQ(cluster.num_attached_workers(), 0);
  for (const auto& weak : watched) {
    EXPECT_FALSE(weak.expired()) << "the routing snapshot pins the endpoint";
  }
  latch.Open();
  router.join();

  EXPECT_TRUE(routed.ok()) << routed.ToString();
  for (const auto& weak : watched) {
    EXPECT_TRUE(weak.expired()) << "the snapshot is released with the call";
  }
}

TEST(WorkerLifetimeTest, ProvisionFailsOnOccupiedClusterAndRollsBack) {
  ClusterConfig config;
  config.num_machines = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  Cluster& cluster = *cluster_or.value();

  // Machine 0 already has an endpoint: provisioning must fail and detach
  // whatever it managed to attach, leaving the cluster idle.
  ASSERT_TRUE(cluster.AttachEndpoint(0, std::make_shared<FakeEndpoint>(0)).ok());
  EXPECT_FALSE(ProvisionWorkers(cluster).ok());
  EXPECT_EQ(cluster.num_attached_workers(), 0);
}

TEST(WorkerLifetimeTest, StorePartitionRequiresAnEndpoint) {
  ClusterConfig config;
  config.num_machines = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  const Status status = StorePartition(*cluster_or.value(), Mode::kOne, 0,
                                       Partition{}, UnfoldShape{0, 0, 0});
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace dbtf
