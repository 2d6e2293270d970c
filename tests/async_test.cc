#include "dist/async.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/thread_pool.h"
#include "fake_endpoint.h"

namespace dbtf {
namespace {

TEST(Future, DeliversValueSetBeforeGet) {
  Promise<int> promise;
  Future<int> future = promise.future();
  promise.Set(42);
  const Result<int> value = future.Get();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
}

TEST(Future, GetIsRepeatable) {
  Promise<int> promise;
  Future<int> future = promise.future();
  promise.Set(7);
  EXPECT_EQ(*future.Get(), 7);
  EXPECT_EQ(*future.Get(), 7);
}

TEST(Future, DeliversErrorStatus) {
  Promise<Unit> promise;
  Future<Unit> future = promise.future();
  promise.Set(Status::Internal("boom"));
  const Result<Unit> value = future.Get();
  EXPECT_EQ(value.status().code(), StatusCode::kInternal);
}

TEST(Future, GetBlocksUntilFulfilledFromAnotherThread) {
  ThreadPool pool(1);
  Promise<std::int64_t> promise;
  Future<std::int64_t> future = promise.future();
  pool.Submit([promise]() mutable {
    // Burn a little CPU so Get genuinely has to wait sometimes.
    volatile double x = 1.0;
    for (int i = 0; i < 100000; ++i) x = x * 1.0000001 + 0.5;
    promise.Set(std::int64_t{99});
  });
  EXPECT_EQ(*future.Get(), 99);
  pool.Wait();
}

TEST(FutureDeathTest, PromiseFulfilledTwiceAborts) {
  EXPECT_DEATH(
      {
        Promise<int> promise;
        promise.Set(1);
        promise.Set(2);
      },
      "exactly once");
}

TEST(Mailbox, RunsTasksInPostOrder) {
  ThreadPool pool(4);
  Mailbox mailbox(&pool);
  // The order vector is written only from mailbox tasks, which the mailbox
  // runs strictly one at a time — no mutex needed, and TSan verifies that
  // the serialization is real.
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    mailbox.Post([&order, i] { order.push_back(i); });
  }
  mailbox.WaitIdle();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Mailbox, NeverRunsTwoTasksConcurrently) {
  ThreadPool pool(4);
  Mailbox mailbox(&pool);
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    mailbox.Post([&active, &max_active, &ran] {
      const int now = active.fetch_add(1) + 1;
      int seen = max_active.load();
      while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
      }
      active.fetch_sub(1);
      ran.fetch_add(1);
    });
  }
  mailbox.WaitIdle();
  EXPECT_EQ(ran.load(), 500);
  EXPECT_EQ(max_active.load(), 1) << "mailbox tasks must be serial";
}

TEST(Mailbox, IdleMailboxAcceptsLaterBursts) {
  ThreadPool pool(2);
  Mailbox mailbox(&pool);
  std::vector<int> order;
  mailbox.Post([&order] { order.push_back(0); });
  mailbox.WaitIdle();
  for (int i = 1; i <= 3; ++i) {
    mailbox.Post([&order, i] { order.push_back(i); });
  }
  mailbox.WaitIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(AsyncCluster, EmptyRegistryResolvesWithoutDeadlock) {
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

// The determinism anchor of the routing runtime: N machines, K rounds of
// broadcast + column (one exchange per machine) under a fault plan with
// transient failures and a stall. Every machine must see its deliveries in
// exact post order (mailbox FIFO), every handler must run exactly once per
// round (faults fail *before* the handler; retries redeliver), and the
// ledger must charge exactly once per event. Run under TSan this is also
// the concurrency stress for mailboxes, futures, and the ledger.
TEST(AsyncCluster, RoundsStayFifoAndChargeExactlyOnce) {
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
  // r+1 — exactly the post order, independent of thread scheduling.
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

}  // namespace
}  // namespace dbtf
