#include <memory>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "dist/transport/transport.h"
#include "dist/worker.h"

namespace dbtf {
namespace {

// In-process transport: each endpoint owns a driver-process Worker and
// delivers messages as direct handler calls, timing each with the thread-CPU
// clock so the virtual machine clocks charge exactly what the socket
// transport's reply envelopes would carry. This is the bitwise oracle the
// socket transport is checked against, and the configuration the sanitizer
// presets exercise (one process means TSan sees every handler).
class InProcessEndpoint final : public WorkerEndpoint {
 public:
  explicit InProcessEndpoint(int machine) : worker_(machine) {}

  int machine() const override { return worker_.machine(); }

  Status Deliver(const FactorDelta& msg, double* compute_seconds) override {
    return Timed(compute_seconds, [&] { return worker_.Handle(msg); });
  }

  Status RunColumn(const RunUpdateColumn& run, const CollectErrorsRequest& req,
                   CollectErrorsResponse* response,
                   double* compute_seconds) override {
    return Timed(compute_seconds,
                 [&] { return worker_.Handle(run, req, response); });
  }

  Status Query(const QueryRequest& msg, QueryResponse* response,
               double* compute_seconds) override {
    return Timed(compute_seconds,
                 [&] { return worker_.Handle(msg, response); });
  }

  Status Store(StorePartitionRequest msg) override {
    worker_.AdoptPartition(msg.mode, msg.index, std::move(msg.partition),
                            msg.shape);
    return Status::OK();
  }

  Result<std::vector<std::int64_t>> ListPartitions(Mode mode) override {
    return worker_.LocalPartitionIndexes(mode);
  }

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

  Worker worker_;
};

}  // namespace

std::vector<std::shared_ptr<WorkerEndpoint>> StartInProcessEndpoints(
    int num_machines) {
  std::vector<std::shared_ptr<WorkerEndpoint>> endpoints;
  for (int m = 0; m < num_machines; ++m) {
    endpoints.push_back(std::make_shared<InProcessEndpoint>(m));
  }
  return endpoints;
}

}  // namespace dbtf
