#ifndef DBTF_TESTS_FAKE_ENDPOINT_H_
#define DBTF_TESTS_FAKE_ENDPOINT_H_

// Test-only WorkerEndpoint for the routing tests: no Worker behind it, just
// a record of what Cluster delivered. Attach it with Cluster::AttachEndpoint
// and drive it through the typed routing calls (BroadcastFactors, RunColumn,
// QueryWorker). Constructed with posts_frames, it also takes the two-phase
// exchange of socket endpoints, so fan-outs post frames to it.

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/fault.h"
#include "dist/messages.h"
#include "dist/transport/transport.h"
#include "dist/transport/wire.h"

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

/// Shared, ordered record of the two phases of posted exchanges across
/// several fakes: "send <machine>" and "reply <machine>" entries.
class PhaseLog {
 public:
  void Add(const char* phase, int machine) DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    entries_.push_back(std::string(phase) + " " + std::to_string(machine));
  }
  std::vector<std::string> entries() const DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_;
  }

 private:
  mutable Mutex mu_;
  std::vector<std::string> entries_ DBTF_GUARDED_BY(mu_);
};

/// One delivery the fake received: its message kind and a tag from the
/// message (FactorDelta::rows, RunUpdateColumn::column for a column
/// exchange, QueryRequest::id), so a test can tell rounds apart by stamping
/// that field.
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

/// The reply a FakeEndpoint answers every column exchange with: `rows` zero
/// differences, whose encoded size is what Cluster charges for it.
inline CollectErrorsResponse FakeColumnReply(std::int64_t rows) {
  CollectErrorsResponse reply;
  reply.diffs.assign(static_cast<std::size_t>(rows), 0);
  return reply;
}

/// Routing-test endpoint. Every delivery is logged (failed ones included),
/// then waits on the latch if one is set, then returns the status scripted
/// for its kind. A column exchange is one dispatch-kind delivery whose
/// successful reply is FakeColumnReply(reply_rows); queries are collect-kind
/// traffic, as in Cluster. Like a worker, it answers a query with the
/// generation triple its successful broadcasts last delivered (typed
/// deliveries only: a posted broadcast is logged, not applied).
///
/// With `posts_frames`, a fan-out reaches it in two phases: SendFrame logs
/// the delivery (the kind from the frame header, the tag from the payload's
/// leading mode byte and i64 — FactorDelta::rows or RunUpdateColumn::column)
/// and returns the status FailSend scripted; ReceiveReply returns the
/// status Fail or FailReplies scripted. A delivery is in flight from its
/// send to its reply.
class FakeEndpoint final : public WorkerEndpoint {
 public:
  explicit FakeEndpoint(int machine, std::int64_t reply_rows = 0,
                        bool posts_frames = false)
      : machine_(machine),
        reply_rows_(reply_rows),
        posts_frames_(posts_frames) {}

  int machine() const override { return machine_; }

  Status Deliver(const FactorDelta& msg, double*) override {
    DBTF_RETURN_IF_ERROR(Receive({MessageKind::kBroadcast, msg.rows}));
    MutexLock lock(mu_);
    for (const MatrixDelta& d : msg.updates) {
      generations_[static_cast<std::size_t>(d.slot)] = d.generation;
    }
    return Status::OK();
  }
  Status RunColumn(const RunUpdateColumn& run, const CollectErrorsRequest&,
                   CollectErrorsResponse* response, double*) override {
    DBTF_RETURN_IF_ERROR(Receive({MessageKind::kDispatch, run.column}));
    *response = FakeColumnReply(reply_rows_);
    return Status::OK();
  }
  Status Query(const QueryRequest& msg, QueryResponse* response,
               double*) override {
    DBTF_RETURN_IF_ERROR(
        Receive({MessageKind::kCollect, static_cast<std::int64_t>(msg.id)}));
    response->id = msg.id;
    MutexLock lock(mu_);
    response->generations.assign(std::begin(generations_),
                                 std::end(generations_));
    return Status::OK();
  }
  bool PostsFrames() const override { return posts_frames_; }

  Status SendFrame(const std::vector<std::uint8_t>& frame) override {
    Result<WireFrame> decoded = DecodeFrame(frame);
    if (!decoded.ok()) return decoded.status();
    ByteReader reader(decoded->payload);
    if (!reader.ReadU8().ok()) return Status::IoError("frame without mode");
    Result<std::int64_t> tag = reader.ReadI64();
    if (!tag.ok()) return tag.status();
    const MessageKind kind = decoded->kind == WireKind::kFactorDelta
                                 ? MessageKind::kBroadcast
                                 : MessageKind::kDispatch;
    MutexLock lock(mu_);
    log_.push_back({kind, *tag});
    if (phases_ != nullptr) phases_->Add("send", machine_);
    const Status status = send_scripted_[static_cast<std::size_t>(kind)];
    if (status.ok()) {
      posted_ = kind;
      max_in_flight_ = std::max(max_in_flight_, ++in_flight_);
    }
    return status;
  }

  Status ReceiveReply(CollectErrorsResponse* response, double*) override {
    MutexLock lock(mu_);
    --in_flight_;
    if (phases_ != nullptr) phases_->Add("reply", machine_);
    const auto kind = static_cast<std::size_t>(posted_);
    if (failed_replies_[kind] > 0) {
      --failed_replies_[kind];
      return reply_failure_[kind];
    }
    if (!scripted_[kind].ok()) return scripted_[kind];
    if (response != nullptr) *response = FakeColumnReply(reply_rows_);
    return Status::OK();
  }

  Status Store(StorePartitionRequest) override { return Status::OK(); }
  Result<std::vector<std::int64_t>> ListPartitions(Mode) override {
    return std::vector<std::int64_t>{};
  }

  /// Every later delivery of `kind` returns `status`.
  void Fail(MessageKind kind, Status status) DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    scripted_[static_cast<std::size_t>(kind)] = std::move(status);
  }

  /// Posted mode: every later send of `kind` returns `status`.
  void FailSend(MessageKind kind, Status status) DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    send_scripted_[static_cast<std::size_t>(kind)] = std::move(status);
  }

  /// Posted mode: the next `times` replies of `kind` return `status`.
  void FailReplies(MessageKind kind, Status status, int times)
      DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    reply_failure_[static_cast<std::size_t>(kind)] = std::move(status);
    failed_replies_[static_cast<std::size_t>(kind)] = times;
  }

  /// Posted mode: every later send and reply is also recorded in `phases`
  /// (which must outlive it).
  void RecordPhases(PhaseLog* phases) DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    phases_ = phases;
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

  /// Most handlers ever in flight at once on this endpoint. Cluster promises
  /// one delivery per machine at a time, so anything above 1 is a routing
  /// bug.
  int max_in_flight() const DBTF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return max_in_flight_;
  }

 private:
  Status Receive(const Delivery& delivery) DBTF_EXCLUDES(mu_) {
    Latch* latch = nullptr;
    {
      MutexLock lock(mu_);
      log_.push_back(delivery);
      latch = latch_;
      max_in_flight_ = std::max(max_in_flight_, ++in_flight_);
    }
    // Stay in flight across a reschedule, so an overlapping delivery on
    // another thread has a real window to show up in max_in_flight().
    std::this_thread::yield();
    if (latch != nullptr) latch->ArriveAndWait();
    MutexLock lock(mu_);
    --in_flight_;
    return scripted_[static_cast<std::size_t>(delivery.kind)];
  }

  const int machine_;
  const std::int64_t reply_rows_;
  const bool posts_frames_;
  mutable Mutex mu_;
  std::vector<Delivery> log_ DBTF_GUARDED_BY(mu_);
  Status scripted_[3] DBTF_GUARDED_BY(mu_);
  Status send_scripted_[3] DBTF_GUARDED_BY(mu_);
  Status reply_failure_[3] DBTF_GUARDED_BY(mu_);
  int failed_replies_[3] DBTF_GUARDED_BY(mu_) = {0, 0, 0};
  MessageKind posted_ DBTF_GUARDED_BY(mu_) = MessageKind::kBroadcast;
  PhaseLog* phases_ DBTF_GUARDED_BY(mu_) = nullptr;
  Latch* latch_ DBTF_GUARDED_BY(mu_) = nullptr;
  int in_flight_ DBTF_GUARDED_BY(mu_) = 0;
  int max_in_flight_ DBTF_GUARDED_BY(mu_) = 0;
  std::uint64_t generations_[3] DBTF_GUARDED_BY(mu_) = {0, 0, 0};
};

}  // namespace dbtf

#endif  // DBTF_TESTS_FAKE_ENDPOINT_H_
