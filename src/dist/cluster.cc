#include "dist/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "dist/transport/wire.h"

namespace dbtf {

Status ClusterConfig::Validate() const {
  if (num_machines < 1) {
    return Status::InvalidArgument("num_machines must be >= 1");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  // Each cost parameter must be a *finite* number in range: NaN compares
  // false against every bound, so without the isfinite checks a NaN (or
  // infinite) bandwidth or per-byte cost would slip through and poison every
  // TransferSeconds-derived virtual-clock charge downstream.
  if (!std::isfinite(network_bandwidth_bytes_per_second) ||
      network_bandwidth_bytes_per_second <= 0.0) {
    return Status::InvalidArgument(
        "network bandwidth must be positive and finite");
  }
  if (!std::isfinite(network_latency_seconds) ||
      network_latency_seconds < 0.0 ||
      !std::isfinite(driver_seconds_per_byte) ||
      driver_seconds_per_byte < 0.0) {
    return Status::InvalidArgument(
        "network costs must be non-negative and finite");
  }
  DBTF_RETURN_IF_ERROR(retry.Validate());
  DBTF_RETURN_IF_ERROR(transport.Validate());
  return fault_plan.Validate(num_machines);
}

Result<std::unique_ptr<Cluster>> Cluster::Create(const ClusterConfig& config) {
  DBTF_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<Cluster>(new Cluster(config));
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      dead_(static_cast<std::size_t>(config.num_machines), false),
      machine_seconds_(static_cast<std::size_t>(config.num_machines), 0.0),
      delivery_locks_(static_cast<std::size_t>(config.num_machines)) {
  int threads = config_.num_threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads == 0) threads = 1;
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  if (!config_.fault_plan.empty()) {
    injector_ = std::make_unique<FaultInjector>(config_.fault_plan);
  }
}

Status Cluster::AttachEndpoint(int machine,
                               std::shared_ptr<WorkerEndpoint> endpoint) {
  if (machine < 0 || machine >= config_.num_machines) {
    return Status::InvalidArgument("machine index out of range");
  }
  if (endpoint == nullptr) {
    return Status::InvalidArgument("cannot attach a null endpoint");
  }
  MutexLock lock(mu_);
  if (dead_[static_cast<std::size_t>(machine)]) {
    return Status::FailedPrecondition(
        "machine " + std::to_string(machine) +
        " is dead; its endpoint cannot be re-attached");
  }
  for (const AttachedWorker& w : workers_) {
    if (w.machine == machine) {
      return Status::FailedPrecondition(
          "a worker is already attached to this machine");
    }
  }
  workers_.push_back(AttachedWorker{machine, std::move(endpoint)});
  return Status::OK();
}

void Cluster::DetachWorkers() {
  MutexLock lock(mu_);
  workers_.clear();
}

int Cluster::num_attached_workers() const {
  MutexLock lock(mu_);
  return static_cast<int>(workers_.size());
}

std::shared_ptr<WorkerEndpoint> Cluster::EndpointOn(int machine) const {
  MutexLock lock(mu_);
  for (const AttachedWorker& w : workers_) {
    if (w.machine == machine) return w.endpoint;
  }
  return nullptr;
}

Result<std::vector<Cluster::AttachedWorker>> Cluster::RoutingSnapshot() const {
  {
    MutexLock lock(mu_);
    if (!workers_.empty()) return workers_;
  }
  if (!DeadMachines().empty()) {
    return Status::Unavailable(
        "no workers attached to the cluster after machine loss");
  }
  return Status::FailedPrecondition("no workers attached to the cluster");
}

Status Cluster::BroadcastFactors(FactorDelta msg) {
  DBTF_ASSIGN_OR_RETURN(const std::vector<AttachedWorker> workers,
                        RoutingSnapshot());
  // Lemma 7 charging happens before any delivery runs, exactly once per
  // broadcast, whether or not a delivery later fails (the bytes left the
  // driver either way).
  ChargeBroadcast(msg.WireBytes());
  return FanOut(
      workers, MessageKind::kBroadcast,
      [&msg](std::size_t, WorkerEndpoint& endpoint, double* seconds) {
        return endpoint.Deliver(msg, seconds);
      },
      [&msg] { return EncodeFactorDeltaFrame(msg); }, nullptr);
}

Status Cluster::RunColumn(RunUpdateColumn run, const CollectErrorsRequest& req,
                          CollectErrorsResponse* response) {
  if (req.mode != run.mode || req.rows != run.rows ||
      static_cast<std::int64_t>(run.row_masks.size()) != run.rows) {
    return Status::InvalidArgument(
        "RunUpdateColumn and CollectErrorsRequest disagree on the rows");
  }
  DBTF_ASSIGN_OR_RETURN(const std::vector<AttachedWorker> workers,
                        RoutingSnapshot());
  // Each machine's reply lands in its own snapshot slot, so deliveries
  // share nothing; an attempt that fails is overwritten by its retry, and
  // only a fully successful column is merged.
  std::vector<CollectErrorsResponse> replies(workers.size());
  DBTF_RETURN_IF_ERROR(FanOut(
      workers, MessageKind::kDispatch,
      [&run, &req, &replies](std::size_t slot, WorkerEndpoint& endpoint,
                             double* seconds) {
        return endpoint.RunColumn(run, req, &replies[slot], seconds);
      },
      [&run, &req] { return EncodeRunColumnFrame(run, req); }, &replies));
  // One collect event for the whole column (Lemma 7): the exact encoded
  // size of every machine's reply.
  std::int64_t wire_bytes = 0;
  for (const CollectErrorsResponse& reply : replies) {
    response->MergeFrom(reply);
    wire_bytes += reply.WireBytes();
  }
  ChargeCollect(wire_bytes);
  return Status::OK();
}

Status Cluster::QueryWorker(int machine, QueryRequest msg,
                            QueryResponse* response) {
  if (machine < 0 || machine >= config_.num_machines) {
    return Status::InvalidArgument("machine index out of range");
  }
  // Pin the target: a concurrent detach cannot free the endpoint under the
  // delivery. A dead machine is absent from the registry, so it falls out
  // as kUnavailable here — the same code an injected crash surfaces
  // mid-delivery.
  const std::shared_ptr<WorkerEndpoint> endpoint = EndpointOn(machine);
  if (endpoint == nullptr) {
    return Status::Unavailable(
        "machine " + std::to_string(machine) +
        " has no attached endpoint (lost or never attached)");
  }
  // Queries are the injector's collect kind: a column exchange counts as
  // one dispatch, so query replies are the only collect traffic, and the
  // checkpointed counter layout (machine * 3 + kind) stays unchanged. The
  // delivery runs right here on the calling thread.
  DBTF_RETURN_IF_ERROR(
      MachineDelivery(*this, machine, MessageKind::kCollect)
          .Run([&endpoint, &msg, response](double* seconds) {
            return endpoint->Query(msg, response, seconds);
          }));
  // One query event for the round trip, charged only on success — a failed
  // query charges nothing, like a failed collect.
  ChargeQuery(msg.WireBytes() + response->WireBytes());
  return Status::OK();
}

Status Cluster::FanOut(const std::vector<AttachedWorker>& workers,
                       MessageKind kind, const SlotHandler& handler,
                       const std::function<std::vector<std::uint8_t>()>& frame,
                       std::vector<CollectErrorsResponse>* replies) {
  std::vector<Status> statuses(workers.size());
  const bool posted =
      std::all_of(workers.begin(), workers.end(), [](const AttachedWorker& w) {
        return w.endpoint->PostsFrames();
      });
  if (posted) {
    // Every machine's frame is on the wire before any reply is read, so
    // the workers compute while the driver waits on the first reply. The
    // frame is encoded once. Deliveries open in machine order, the one
    // order any thread takes several delivery locks in, and each machine's
    // lock is held from its send to its final reply.
    const std::vector<std::uint8_t> bytes = frame();
    std::vector<std::size_t> order(workers.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&workers](std::size_t a, std::size_t b) {
                return workers[a].machine < workers[b].machine;
              });
    std::deque<MachineDelivery> deliveries;  // open ones, in machine order
    std::vector<bool> sent(workers.size(), false);
    for (const std::size_t slot : order) {
      MachineDelivery& delivery =
          deliveries.emplace_back(*this, workers[slot].machine, kind);
      if (!delivery.Begin()) continue;
      const Status status = workers[slot].endpoint->SendFrame(bytes);
      sent[slot] = status.ok();
      if (!status.ok()) delivery.End(status, 0.0);
    }
    for (const std::size_t slot : order) {
      WorkerEndpoint& endpoint = *workers[slot].endpoint;
      CollectErrorsResponse* reply =
          replies == nullptr ? nullptr : &(*replies)[slot];
      MachineDelivery& delivery = deliveries.front();
      if (sent[slot]) {
        double seconds = 0.0;
        const Status status = endpoint.ReceiveReply(reply, &seconds);
        delivery.End(status, seconds);
      }
      // A machine whose attempt failed retries alone, one whole exchange
      // per attempt.
      statuses[slot] = delivery.Run([&endpoint, &bytes, reply](double* s) {
        DBTF_RETURN_IF_ERROR(endpoint.SendFrame(bytes));
        return endpoint.ReceiveReply(reply, s);
      });
      deliveries.pop_front();  // releases the machine's delivery lock
    }
  } else {
    pool_->ParallelFor(
        static_cast<std::int64_t>(workers.size()),
        [this, &workers, kind, &handler, &statuses](std::int64_t i) {
          const auto slot = static_cast<std::size_t>(i);
          const AttachedWorker& w = workers[slot];
          statuses[slot] = MachineDelivery(*this, w.machine, kind)
                               .Run([&handler, &w, slot](double* seconds) {
                                 return handler(slot, *w.endpoint, seconds);
                               });
        });
  }
  for (const Status& status : statuses) {
    if (!status.ok() && !IsRetryable(status.code())) return status;
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Cluster::MachineDelivery::MachineDelivery(Cluster& cluster, int machine,
                                          MessageKind kind)
    : cluster_(cluster),
      machine_(machine),
      kind_(kind),
      backoff_(cluster.config_.retry.backoff_seconds) {
  // One delivery per machine at a time, across all routing threads. Every
  // charge below takes mu_ while this is held, never the other way round.
  lock_.emplace(cluster.delivery_locks_[static_cast<std::size_t>(machine)]);
  if (cluster.IsDead(machine)) {
    // Dead is dead: a delivery from a registry snapshot taken before the
    // machine was lost fails here, before the fault injector counts it.
    cluster.recovery_.RecordFailedDelivery();
    done_ = true;
    status_ = Status::Unavailable("machine " + std::to_string(machine) +
                                  " is dead");
  }
}

bool Cluster::MachineDelivery::Begin() {
  if (done_) return false;
  const RetryPolicy& retry = cluster_.config_.retry;
  if (attempts_ > 0) {
    // Exponential backoff before every redelivery, charged as virtual
    // driver time — the driver sits on the retry, the cluster does not
    // wall-clock sleep.
    cluster_.ChargeDriverSeconds(backoff_);
    cluster_.recovery_.RecordRetry(backoff_);
    backoff_ *= retry.backoff_multiplier;
  }
  ++attempts_;
  if (cluster_.injector_ == nullptr) return true;
  const FaultInjector::Outcome outcome =
      cluster_.injector_->OnDelivery(machine_, kind_);
  if (outcome.machine_lost) {
    cluster_.MarkMachineLost(machine_);
    cluster_.recovery_.RecordFailedDelivery();
    done_ = true;
    status_ = outcome.status;  // permanent: retrying this endpoint is futile
    return false;
  }
  Status status = Status::OK();
  if (outcome.stall_seconds > 0.0) {
    // A stall costs virtual time whether or not the delivery survives it.
    cluster_.ChargeCompute(machine_, outcome.stall_seconds);
    cluster_.recovery_.RecordStall(outcome.stall_seconds);
    if (outcome.stall_seconds > retry.message_deadline_seconds) {
      status = Status::DeadlineExceeded(
          "delivery to machine " + std::to_string(machine_) +
          " stalled past the message deadline");
    }
  }
  if (status.ok()) status = outcome.status;
  if (status.ok()) return true;
  Classify(status);
  return false;
}

void Cluster::MachineDelivery::End(const Status& status,
                                   double compute_seconds) {
  cluster_.ChargeCompute(machine_, compute_seconds);
  Classify(status);
}

Status Cluster::MachineDelivery::Run(
    const std::function<Status(double*)>& call) {
  while (!done_) {
    if (!Begin()) continue;
    double seconds = 0.0;
    const Status status = call(&seconds);
    End(status, seconds);
  }
  return status_;
}

void Cluster::MachineDelivery::Classify(const Status& status) {
  if (status.code() == StatusCode::kIoError) {
    // A transport failure (dead worker process, closed socket, corrupt
    // frame) is indistinguishable from a crashed machine: mark it lost so
    // routing skips it and the driver's recovery path re-provisions its
    // partitions, exactly as for an injected crash.
    cluster_.MarkMachineLost(machine_);
    cluster_.recovery_.RecordFailedDelivery();
    done_ = true;
    status_ = Status::Unavailable("machine " + std::to_string(machine_) +
                                  " lost: " + status.ToString());
    return;
  }
  if (status.ok() || !IsRetryable(status.code())) {
    done_ = true;
    status_ = status;
    return;
  }
  cluster_.recovery_.RecordFailedDelivery();
  const int max_attempts = cluster_.config_.retry.max_attempts;
  if (attempts_ >= max_attempts) {
    done_ = true;
    status_ = Status::Unavailable(
        "retry budget exhausted after " + std::to_string(max_attempts) +
        " attempts (" + status.ToString() + ")");
  }
}

bool Cluster::IsDead(int machine) const {
  MutexLock lock(mu_);
  return dead_[static_cast<std::size_t>(machine)];
}

std::vector<int> Cluster::DeadMachines() const {
  MutexLock lock(mu_);
  std::vector<int> dead;
  for (int m = 0; m < config_.num_machines; ++m) {
    if (dead_[static_cast<std::size_t>(m)]) dead.push_back(m);
  }
  return dead;
}

bool Cluster::DetachDeadMachine(int machine) {
  bool newly_dead = false;
  MutexLock lock(mu_);
  if (!dead_[static_cast<std::size_t>(machine)]) {
    dead_[static_cast<std::size_t>(machine)] = true;
    newly_dead = true;
  }
  // Detach the endpoint. Routing snapshots taken before this keep the
  // worker alive until their deliveries drain; new snapshots skip it.
  for (auto it = workers_.begin(); it != workers_.end(); ++it) {
    if (it->machine == machine) {
      workers_.erase(it);
      break;
    }
  }
  return newly_dead;
}

void Cluster::MarkMachineLost(int machine) {
  if (machine < 0 || machine >= config_.num_machines) return;
  if (DetachDeadMachine(machine)) {
    recovery_.RecordMachineLost();
    DBTF_LOG(kWarning, "machine %d lost permanently; endpoint detached",
             machine);
  }
}

void Cluster::RestoreDeadMachine(int machine) {
  if (machine < 0 || machine >= config_.num_machines) return;
  // Restoring a checkpointed loss is not a new loss: the interrupted run
  // already charged RecordMachineLost and the checkpoint's RecoveryStats
  // snapshot carries it, so only the routing state changes here.
  if (DetachDeadMachine(machine)) {
    DBTF_LOG(kInfo, "machine %d restored as lost; endpoint detached",
             machine);
  }
}

std::vector<std::int64_t> Cluster::FaultDeliveryCounters() const {
  if (injector_ == nullptr) return {};
  return injector_->DeliveryCounters();
}

Status Cluster::RestoreFaultDeliveryState(
    const std::vector<std::int64_t>& deliveries) {
  if (injector_ == nullptr) {
    if (!deliveries.empty()) {
      return Status::FailedPrecondition(
          "checkpoint carries fault-injector counters but the cluster has "
          "no fault plan");
    }
    return Status::OK();
  }
  injector_->RestoreDeliveryState(deliveries);
  return Status::OK();
}

Status Cluster::RestoreVirtualClocks(
    const std::vector<double>& machine_seconds, double driver_seconds) {
  MutexLock lock(mu_);
  if (machine_seconds.size() != machine_seconds_.size()) {
    return Status::FailedPrecondition(
        "checkpointed machine clock count does not match the cluster");
  }
  machine_seconds_ = machine_seconds;
  driver_seconds_ = driver_seconds;
  return Status::OK();
}

void Cluster::ChargeReprovision(int machine, std::int64_t bytes) {
  // The rebuilt partition crosses the wire again: ledger it as a shuffle
  // (the same event class as the original partitioning shuffle), and charge
  // the transfer to both ends — the driver ships, the survivor receives.
  comm_.RecordShuffle(bytes);
  const double seconds = TransferSeconds(bytes);
  recovery_.RecordReprovision(bytes, seconds);
  ChargeCompute(machine, seconds);
  ChargeDriverSeconds(seconds);
}

void Cluster::ChargeDriverSeconds(double seconds) {
  MutexLock lock(mu_);
  driver_seconds_ += seconds;
}

void Cluster::ChargeCompute(int machine, double seconds) {
  DBTF_DCHECK_LE(0, machine);
  DBTF_DCHECK_LT(machine, config_.num_machines);
  MutexLock lock(mu_);
  machine_seconds_[static_cast<std::size_t>(machine)] += seconds;
}

void Cluster::ChargeBroadcast(std::int64_t bytes_per_machine) {
  comm_.RecordBroadcast(bytes_per_machine * config_.num_machines);
  const double seconds = TransferSeconds(bytes_per_machine);
  MutexLock lock(mu_);
  // Broadcasts to different machines proceed in parallel; the driver pays
  // one transfer worth of serialized time.
  driver_seconds_ += seconds;
}

void Cluster::ChargeCollect(std::int64_t total_bytes) {
  comm_.RecordCollect(total_bytes);
  MutexLock lock(mu_);
  driver_seconds_ += TransferSeconds(total_bytes) +
                     static_cast<double>(total_bytes) *
                         config_.driver_seconds_per_byte;
}

void Cluster::ChargeQuery(std::int64_t total_bytes) {
  comm_.RecordQuery(total_bytes);
  MutexLock lock(mu_);
  driver_seconds_ += TransferSeconds(total_bytes);
}

void Cluster::ChargeShuffle(std::int64_t total_bytes) {
  comm_.RecordShuffle(total_bytes);
  MutexLock lock(mu_);
  // The shuffle is spread over all machine pairs; machines pay in parallel.
  const double seconds =
      TransferSeconds(total_bytes / std::max(1, config_.num_machines));
  for (double& m : machine_seconds_) m += seconds;
}

double Cluster::VirtualMakespanSeconds() const {
  MutexLock lock(mu_);
  double max_machine = 0.0;
  for (const double m : machine_seconds_) max_machine = std::max(max_machine, m);
  return max_machine + driver_seconds_;
}

double Cluster::MachineComputeSeconds(int machine) const {
  DBTF_DCHECK_LE(0, machine);
  DBTF_DCHECK_LT(machine, config_.num_machines);
  MutexLock lock(mu_);
  return machine_seconds_[static_cast<std::size_t>(machine)];
}

double Cluster::DriverSeconds() const {
  MutexLock lock(mu_);
  return driver_seconds_;
}

void Cluster::ResetVirtualTime() {
  MutexLock lock(mu_);
  std::fill(machine_seconds_.begin(), machine_seconds_.end(), 0.0);
  driver_seconds_ = 0.0;
}

}  // namespace dbtf
