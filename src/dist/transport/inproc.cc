#include "dist/transport/inproc.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "dist/worker.h"

namespace dbtf {
namespace {

class InProcessEndpoint final : public WorkerEndpoint {
 public:
  explicit InProcessEndpoint(std::shared_ptr<Worker> worker)
      : worker_(std::move(worker)) {
    DBTF_CHECK(worker_ != nullptr);
  }

  int machine() const override { return worker_->machine(); }

  Status Deliver(const FactorDelta& msg, double* compute_seconds) override {
    return Timed(compute_seconds, [&] { return worker_->Handle(msg); });
  }

  Status Deliver(const RunUpdateColumn& msg,
                 double* compute_seconds) override {
    return Timed(compute_seconds, [&] { return worker_->Handle(msg); });
  }

  Status Collect(const CollectErrorsRequest& msg,
                 CollectErrorsResponse* response,
                 double* compute_seconds) override {
    return Timed(compute_seconds,
                 [&] { return worker_->Handle(msg, response); });
  }

  Status Query(const QueryRequest& msg, QueryResponse* response,
               double* compute_seconds) override {
    return Timed(compute_seconds,
                 [&] { return worker_->Handle(msg, response); });
  }

  Status Store(StorePartitionRequest msg, double* compute_seconds) override {
    return Timed(compute_seconds, [&] {
      worker_->AdoptPartition(msg.mode, msg.index, std::move(msg.partition),
                              msg.shape);
      return Status::OK();
    });
  }

  Result<std::vector<std::int64_t>> ListPartitions(
      Mode mode, double* compute_seconds) override {
    std::vector<std::int64_t> indexes;
    const Status status = Timed(compute_seconds, [&] {
      indexes = worker_->LocalPartitionIndexes(mode);
      return Status::OK();
    });
    if (!status.ok()) return status;
    return indexes;
  }

  Worker* local_worker() override { return worker_.get(); }

 private:
  /// Runs `handler` under the thread-CPU clock — the same quantity the
  /// socket transport measures worker-side and ships back in the reply.
  template <typename Fn>
  static Status Timed(double* compute_seconds, const Fn& handler) {
    ThreadCpuTimer timer;
    const Status status = handler();
    if (compute_seconds != nullptr) {
      *compute_seconds += timer.ElapsedSeconds();
    }
    return status;
  }

  std::shared_ptr<Worker> worker_;
};

class InProcessTransport final : public Transport {
 public:
  TransportKind kind() const override { return TransportKind::kInProcess; }

  Result<std::shared_ptr<WorkerEndpoint>> StartEndpoint(int machine) override {
    return MakeInProcessEndpoint(std::make_shared<Worker>(machine));
  }
};

}  // namespace

std::shared_ptr<WorkerEndpoint> MakeInProcessEndpoint(
    std::shared_ptr<Worker> worker) {
  return std::make_shared<InProcessEndpoint>(std::move(worker));
}

std::shared_ptr<Transport> CreateInProcessTransport() {
  return std::make_shared<InProcessTransport>();
}

}  // namespace dbtf
