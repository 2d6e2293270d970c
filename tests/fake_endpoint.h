#ifndef DBTF_TESTS_FAKE_ENDPOINT_H_
#define DBTF_TESTS_FAKE_ENDPOINT_H_

// Test-only WorkerEndpoint for the routing tests: no Worker behind it, just
// a record of what Cluster delivered. Attach it with Cluster::AttachEndpoint
// and drive it through the typed routing calls (BroadcastFactors, RunColumn,
// QueryWorker).

#include <condition_variable>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/fault.h"
#include "dist/messages.h"
#include "dist/transport/transport.h"

namespace dbtf {

/// One-shot gate that deliveries can be held on: each delivery arrives and
/// waits until the test opens the gate.
class Latch {
 public:
  /// Counts one arrival and blocks until Open().
  void ArriveAndWait() DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++arrived_;
    changed_.notify_all();
    lock.Wait(changed_, [this] {
      mu_.AssertHeld();
      return open_;
    });
  }

  /// Blocks until `n` deliveries are held.
  void WaitForArrivals(int n) DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    lock.Wait(changed_, [this, n] {
      mu_.AssertHeld();
      return arrived_ >= n;
    });
  }

  /// Releases every held and future delivery.
  void Open() DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    open_ = true;
    changed_.notify_all();
  }

 private:
  Mutex mu_;
  std::condition_variable changed_;
  int arrived_ DBTF_GUARDED_BY(mu_) = 0;
  bool open_ DBTF_GUARDED_BY(mu_) = false;
};

/// One delivery the fake received: its message kind and a tag from the
/// message (FactorDelta::rows, RunUpdateColumn::column,
/// CollectErrorsRequest::rows, QueryRequest::id), so a test can tell rounds
/// apart by stamping that field.
struct Delivery {
  MessageKind kind;
  std::int64_t tag;
  bool operator==(const Delivery& other) const {
    return kind == other.kind && tag == other.tag;
  }
};

/// A broadcast tagged `tag` whose payload costs `words` packed words (8
/// bytes each) per machine. Only the wire size is real: the fake never
/// looks at the matrix content.
inline FactorDelta BroadcastOfWords(std::int64_t words, std::int64_t tag = 0) {
  FactorDelta msg;
  msg.rows = tag;
  MatrixDelta d;
  d.rows = words;
  d.cols = 1;
  msg.updates.push_back(d);
  return msg;
}

/// Routing-test endpoint. Every delivery is logged (failed ones included),
/// then waits on the latch if one is set, then returns the status scripted
/// for its kind. A successful collect reports `collect_wire_bytes` as its
/// payload size; queries are collect-kind traffic, as in Cluster.
class FakeEndpoint final : public WorkerEndpoint {
 public:
  explicit FakeEndpoint(int machine, std::int64_t collect_wire_bytes = 0)
      : machine_(machine), collect_wire_bytes_(collect_wire_bytes) {}

  int machine() const override { return machine_; }

  Status Deliver(const FactorDelta& msg, double*) override {
    return Receive({MessageKind::kBroadcast, msg.rows});
  }
  Status Deliver(const RunUpdateColumn& msg, double*) override {
    return Receive({MessageKind::kDispatch, msg.column});
  }
  Status Collect(const CollectErrorsRequest& msg,
                 CollectErrorsResponse* response, double*) override {
    DBTF_RETURN_IF_ERROR(Receive({MessageKind::kCollect, msg.rows}));
    response->wire_bytes = collect_wire_bytes_;
    return Status::OK();
  }
  Status Query(const QueryRequest& msg, QueryResponse* response,
               double*) override {
    DBTF_RETURN_IF_ERROR(
        Receive({MessageKind::kCollect, static_cast<std::int64_t>(msg.id)}));
    response->id = msg.id;
    return Status::OK();
  }
  Status Store(StorePartitionRequest, double*) override {
    return Status::OK();
  }
  Result<std::vector<std::int64_t>> ListPartitions(Mode, double*) override {
    return std::vector<std::int64_t>{};
  }

  /// Every later delivery of `kind` returns `status`.
  void Fail(MessageKind kind, Status status) DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    scripted_[static_cast<std::size_t>(kind)] = std::move(status);
  }

  /// Every later delivery waits on `latch` (which must outlive it).
  void HoldOn(Latch* latch) DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    latch_ = latch;
  }

  /// Deliveries of `kind` received so far.
  int deliveries(MessageKind kind) const DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    int count = 0;
    for (const Delivery& d : log_) count += d.kind == kind ? 1 : 0;
    return count;
  }

  /// Every delivery received so far, in arrival order.
  std::vector<Delivery> log() const DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return log_;
  }

 private:
  Status Receive(const Delivery& delivery) DBTF_EXCLUDES(mu_) {
    Latch* latch = nullptr;
    {
      MutexLock lock(mu_);
      log_.push_back(delivery);
      latch = latch_;
    }
    if (latch != nullptr) latch->ArriveAndWait();
    MutexLock lock(mu_);
    return scripted_[static_cast<std::size_t>(delivery.kind)];
  }

  const int machine_;
  const std::int64_t collect_wire_bytes_;
  mutable Mutex mu_;
  std::vector<Delivery> log_ DBTF_GUARDED_BY(mu_);
  Status scripted_[3] DBTF_GUARDED_BY(mu_);
  Latch* latch_ DBTF_GUARDED_BY(mu_) = nullptr;
};

}  // namespace dbtf

#endif  // DBTF_TESTS_FAKE_ENDPOINT_H_
