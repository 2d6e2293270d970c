#ifndef DBTF_DIST_CLUSTER_H_
#define DBTF_DIST_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/async.h"
#include "dist/comm_stats.h"
#include "dist/fault.h"
#include "dist/messages.h"
#include "dist/placement.h"
#include "dist/thread_pool.h"
#include "dist/transport/transport.h"

namespace dbtf {

/// Configuration of the simulated cluster.
struct ClusterConfig {
  /// Number of simulated machines (Spark executors in the paper's setup).
  int num_machines = 4;
  /// OS threads actually used to execute tasks; 0 means hardware concurrency.
  int num_threads = 0;
  /// Network model for virtual time: per-message latency and bandwidth.
  double network_latency_seconds = 1e-3;
  double network_bandwidth_bytes_per_second = 1e9;
  /// Driver-side per-byte processing cost (deserialize + reduce), applied to
  /// collected bytes. This is what curbs linear scaling as N and M grow.
  double driver_seconds_per_byte = 2e-9;
  /// Partition/task placement; null selects round-robin (the default and the
  /// paper's implicit scheme).
  std::shared_ptr<const PlacementPolicy> placement;

  /// Deterministic fault schedule (dist/fault.h). Empty means no faults are
  /// injected and routing behaves exactly as before.
  FaultPlan fault_plan;

  /// Per-delivery retry policy applied by the routing methods. The defaults
  /// are active even without a fault plan, but only matter when a handler
  /// (or the injector) returns a retryable code.
  RetryPolicy retry;

  /// Where worker endpoints live: in this process (the bitwise oracle and
  /// sanitizer target) or one dbtf-worker OS process per machine over local
  /// sockets. Operational only — excluded from checkpoint fingerprints, so
  /// a checkpoint taken under one transport resumes under the other.
  TransportOptions transport;

  Status Validate() const;
};

/// In-process stand-in for the Spark cluster the paper runs on.
///
/// Tasks execute for real on a thread pool (so results are exact), while a
/// deterministic *virtual clock* per machine records the CPU time each task
/// consumed. The virtual makespan
///     max_m(compute time of machine m) + driver/network time
/// is what a real M-machine cluster would take, and is what the machine-
/// scalability experiment (paper Fig. 7) reports. On a single-core host the
/// wall clock cannot show multi-machine speedups; the virtual clock can,
/// because per-task CPU time is independent of interleaving.
///
/// Beyond the clocks and the ledger, the cluster is the *message router* of
/// the driver/worker runtime: one transport endpoint may be attached per
/// machine, and the driver reaches worker state exclusively through
/// `BroadcastFactors` / `RunColumn` / `QueryWorker`. The routing methods do
/// the Lemma 6–7 ledger charging themselves, so any byte that crosses the
/// driver/worker boundary is priced by construction: a broadcast charges its
/// wire size once per machine before delivery, a column charges the workers'
/// summed error payload as one driver-side collect event, and a query
/// charges its request + response as one query event.
///
/// Locking discipline (machine-checked under Clang `-Wthread-safety`): the
/// endpoint registry and both virtual clocks are guarded by `mu_`; the
/// `CommStats` ledger is internally atomic and needs no lock. Routing never
/// holds `mu_` while running handlers — it iterates over a snapshot of the
/// registry that also pins the endpoints alive (see RoutingSnapshot).
class Cluster {
 public:
  /// Creates a cluster after validating the configuration.
  static Result<std::unique_ptr<Cluster>> Create(const ClusterConfig& config);

  int num_machines() const { return config_.num_machines; }
  const ClusterConfig& config() const { return config_; }

  /// Machine that owns task (or partition) index t, per the configured
  /// placement policy (round-robin unless overridden).
  int OwnerOf(std::int64_t task) const {
    return placement_->Place(task, config_.num_machines);
  }

  /// Runs fn(t) for t in [0, n) on the pool. Each task's thread-CPU time is
  /// added to the virtual clock of machine OwnerOf(t).
  void RunTasks(std::int64_t n, const std::function<void(std::int64_t)>& fn)
      DBTF_EXCLUDES(mu_);

  // --- Endpoint registry ---------------------------------------------------

  /// Attaches a transport endpoint as machine `machine`'s message target,
  /// sharing ownership of it until DetachWorkers (routing in flight keeps it
  /// alive via its snapshot, so a concurrent detach cannot free an endpoint
  /// under a handler). This is the seam every driver<->worker byte crosses:
  /// routing delivers wire messages through the endpoint's virtual
  /// interface, so the same call sites drive an in-process Worker or a
  /// dbtf-worker OS process. At most one endpoint may be attached per
  /// machine, and never one to a dead machine.
  Status AttachEndpoint(int machine, std::shared_ptr<WorkerEndpoint> endpoint)
      DBTF_EXCLUDES(mu_);

  /// Detaches every endpoint (e.g. when a session is torn down).
  void DetachWorkers() DBTF_EXCLUDES(mu_);

  /// Number of currently attached endpoints.
  int num_attached_workers() const DBTF_EXCLUDES(mu_);

  /// Transport endpoint attached to `machine`, or null. For the
  /// provisioning/recovery seam (dist/provision.h), which stores partitions
  /// and queries residency point-to-point rather than by fan-out.
  std::shared_ptr<WorkerEndpoint> EndpointOn(int machine) const
      DBTF_EXCLUDES(mu_);

  // --- Message routing (the only driver <-> worker data path) --------------
  //
  // Each routing call takes a wire message from dist/messages.h, posts one
  // delivery per target machine onto that machine's *mailbox* (a serial FIFO
  // queue on the pool, dist/async.h), and blocks until every delivery has
  // completed. Per-machine mailbox order is the determinism anchor: the
  // FaultInjector's per-(machine, message-kind) delivery counters advance in
  // post order, and a worker's handlers are never invoked concurrently, even
  // when several threads route at once (serving reads racing a broadcast).
  //
  // Every delivery goes through the retry policy in `config().retry`:
  // retryable failures (IsRetryable — kUnavailable, kDeadlineExceeded) are
  // redelivered up to max_attempts times with exponential backoff charged as
  // virtual driver time, fatal codes surface immediately, and an exhausted
  // budget surfaces as kUnavailable. When a FaultPlan crashes a machine, the
  // machine is marked dead, its endpoint is detached, and the caller sees
  // kUnavailable — recovery (re-provisioning the lost partitions onto a
  // survivor, dist/provision.h) is the driver's job, not the router's.
  //
  // Wire sizes come from the message's own WireBytes(), so the ledger
  // charges identical quantities no matter which transport carries the
  // bytes; worker compute is charged from the endpoint-reported handler CPU
  // seconds for the same reason. A transport failure (kIoError: dead worker
  // process, corrupt frame) marks the machine lost and surfaces as
  // kUnavailable, exactly like an injected crash. A fan-out's status is
  // picked deterministically: fatal (non-retryable) codes outrank retryable
  // ones, ties break by snapshot (attach) order — never by thread
  // interleaving.

  /// Broadcasts a factor update to every attached endpoint. Charges
  /// msg.WireBytes() per machine (Lemma 7) before any delivery runs, whether
  /// or not a delivery later fails — but only when some endpoint is
  /// attached: routing to an empty registry charges nothing.
  Status BroadcastFactors(FactorDelta msg) DBTF_EXCLUDES(mu_);

  /// Runs one column step over ONE registry snapshot: dispatches `run` and
  /// collects `req`'s error totals into `*response`, with each machine's
  /// dispatch and collect posted back-to-back on its serial mailbox (a fast
  /// machine's collect overlaps a slow machine's compute). Dispatch rides
  /// the task scheduler, which the paper prices at zero wire bytes. Collect
  /// responses merge into `*response` (int64 sums commute, so merge order
  /// cannot affect the result), and their summed wire bytes are charged as
  /// one collect event (Lemma 7) only when every machine's collect
  /// succeeded. The single snapshot keeps the ledger deterministic when a
  /// machine crashes mid-column: with separate fan-outs, whether the collect
  /// still saw the machine would depend on thread timing — and hence on the
  /// transport. Dispatch failures outrank collect failures of the same
  /// severity. `*response` is valid only on success.
  Status RunColumn(RunUpdateColumn run, const CollectErrorsRequest& req,
                   CollectErrorsResponse* response) DBTF_EXCLUDES(mu_);

  /// Routes one serving query point-to-point to `machine`. The delivery
  /// rides that machine's serial mailbox, so it is ordered against any
  /// factor broadcast in flight — a query observes either all of a
  /// multi-slot FactorDelta's updates or none of them, never a torn
  /// generation. Request + response wire bytes are charged as one query
  /// event; a failed query charges nothing. A machine that is dead (or was
  /// never attached) surfaces kUnavailable — failover to a surviving replica
  /// is the serving engine's job, not the router's. `*response` is valid
  /// only on success.
  Status QueryWorker(int machine, QueryRequest msg, QueryResponse* response)
      DBTF_EXCLUDES(mu_);

  // --- Failure tracking and recovery charging ------------------------------

  /// Machines that have been lost permanently (injected crash), in index
  /// order. A dead machine's endpoint is detached and can never be
  /// re-attached; its partitions must be re-provisioned onto a survivor.
  std::vector<int> DeadMachines() const DBTF_EXCLUDES(mu_);

  /// Records the re-shipment of `bytes` of rebuilt partition data onto
  /// surviving machine `machine`: the bytes go on the CommStats ledger as a
  /// shuffle (they cross the wire again, exactly like the original
  /// partitioning shuffle), the transfer time is charged to the driver and
  /// the receiving machine, and the recovery ledger records one
  /// re-provision. Called by the re-provisioning seam (dist/provision.h).
  void ChargeReprovision(int machine, std::int64_t bytes) DBTF_EXCLUDES(mu_);

  /// Recovery ledger (retries, machine losses, re-provisions, virtual
  /// seconds lost). Read via recovery().Snapshot(); the Record* mutators are
  /// reserved for cluster.cc (enforced by tools/dbtf_lint.py).
  const RecoveryLedger& recovery() const { return recovery_; }

  // --- Checkpoint/restore seam (src/ckpt/, dbtf/session.cc) ----------------
  //
  // Snapshots capture the fault injector's delivery counters and the dead
  // set so a resumed run under a FaultPlan replays the remainder of the
  // schedule exactly; restore re-applies them without touching the comm or
  // recovery ledgers (the interrupted run's charges travel inside the
  // checkpoint as already-attributed snapshots).

  /// Per-(machine, message-kind) delivery counters of the fault injector,
  /// indexed machine * 3 + kind. Empty when no fault plan is configured.
  std::vector<std::int64_t> FaultDeliveryCounters() const;

  /// Restores the state captured by FaultDeliveryCounters() plus the dead
  /// flags of `dead_machines` inside the injector. Fails with
  /// kFailedPrecondition when counters were checkpointed but this cluster
  /// has no fault plan (the configurations diverged).
  Status RestoreFaultDeliveryState(const std::vector<std::int64_t>& deliveries,
                                   const std::vector<int>& dead_machines);

  /// Re-marks `machine` permanently dead during restore: the endpoint is
  /// detached and excluded from routing, but — unlike an injected crash —
  /// nothing is charged to the recovery ledger, because the interrupted run
  /// already recorded the loss (the checkpoint carries it in its
  /// RecoveryStats snapshot).
  void RestoreDeadMachine(int machine) DBTF_EXCLUDES(mu_);

  /// Overwrites the virtual clocks with checkpointed values, so a resumed
  /// run reports virtual times that continue the interrupted run's.
  Status RestoreVirtualClocks(const std::vector<double>& machine_seconds,
                              double driver_seconds) DBTF_EXCLUDES(mu_);

  // --- Ledger and virtual clocks -------------------------------------------

  /// Adds `seconds` of compute to machine m's virtual clock directly.
  void ChargeCompute(int machine, double seconds) DBTF_EXCLUDES(mu_);

  /// Records a broadcast of `bytes_per_machine` to every machine: ledger
  /// bytes M * bytes_per_machine, plus network time on the virtual clock.
  void ChargeBroadcast(std::int64_t bytes_per_machine) DBTF_EXCLUDES(mu_);

  /// Records `total_bytes` of results collected at the driver: ledger bytes
  /// plus driver network + processing time.
  void ChargeCollect(std::int64_t total_bytes) DBTF_EXCLUDES(mu_);

  /// Records the one-off shuffle of `total_bytes` of partitioned input.
  void ChargeShuffle(std::int64_t total_bytes) DBTF_EXCLUDES(mu_);

  /// Records one serving query's round trip: `total_bytes` (request plus
  /// response wire size) on the ledger's query lane, plus one transfer of
  /// driver network time — queries are point-to-point, so unlike a collect
  /// there is no per-byte driver reduce cost.
  void ChargeQuery(std::int64_t total_bytes) DBTF_EXCLUDES(mu_);

  /// Busiest machine's compute seconds plus accumulated driver seconds.
  double VirtualMakespanSeconds() const DBTF_EXCLUDES(mu_);

  /// Compute seconds on machine m's virtual clock.
  double MachineComputeSeconds(int machine) const DBTF_EXCLUDES(mu_);

  /// Driver-side (network + reduce) virtual seconds.
  double DriverSeconds() const DBTF_EXCLUDES(mu_);

  /// Zeroes all virtual clocks (the communication ledger is separate).
  void ResetVirtualTime() DBTF_EXCLUDES(mu_);

  CommStats& comm() { return comm_; }
  const CommStats& comm() const { return comm_; }

  ThreadPool& pool() { return *pool_; }

 private:
  explicit Cluster(const ClusterConfig& config);

  double TransferSeconds(std::int64_t bytes) const {
    return config_.network_latency_seconds +
           static_cast<double>(bytes) /
               config_.network_bandwidth_bytes_per_second;
  }

  struct AttachedWorker {
    int machine;
    /// Snapshots share ownership, so a delivery in flight keeps the endpoint
    /// (and its worker) alive across a concurrent detach.
    std::shared_ptr<WorkerEndpoint> endpoint;
  };

  /// One message of a fan-out, delivered to every snapshot endpoint: the
  /// injector/retry key plus one delivery attempt, which adds the handler's
  /// worker CPU seconds into `*compute_seconds`.
  struct Step {
    MessageKind kind;
    std::function<Status(WorkerEndpoint&, double* compute_seconds)> deliver;
  };

  struct FanOutOp;  // shared state of one fan-out
  struct QueryOp;   // shared state of one point-to-point query delivery

  /// Snapshot of the attached endpoints, for lock-free iteration on the
  /// pool; it shares their ownership, so they outlive any routing that
  /// started before a DetachWorkers. An empty registry is an error:
  /// kUnavailable once machines have died (the driver may re-provision),
  /// kFailedPrecondition when nothing was ever attached (a usage error).
  Result<std::vector<AttachedWorker>> RoutingSnapshot() const
      DBTF_EXCLUDES(mu_);

  /// Posts every step to every endpoint of `workers` — per machine, the
  /// steps back-to-back on its mailbox, each through the retry policy — and
  /// blocks until all have run. Returns the per-delivery statuses
  /// step-major (entry s * n + i is step s on snapshot entry i), so
  /// CombineStatuses ranks an earlier step's failure ahead of a later
  /// step's of the same severity. The snapshot is released before this
  /// returns.
  std::vector<Status> FanOut(std::vector<AttachedWorker> workers,
                             std::vector<Step> steps) DBTF_EXCLUDES(mu_);

  /// Deterministic error selection over a fan-out's per-machine statuses:
  /// fatal codes outrank retryable ones, ties break by snapshot (attach)
  /// order — never by thread interleaving, which would make the surfaced
  /// error (and hence the recovery path taken by the driver) depend on
  /// scheduling.
  static Status CombineStatuses(const std::vector<Status>& statuses);

  /// Runs one delivery to `machine` through the fault injector and the retry
  /// policy. `attempt` performs the actual handler invocation (and its CPU
  /// charging); it runs at most once per attempt and never after a crash.
  Status DeliverWithRetry(int machine, MessageKind kind,
                          const std::function<Status()>& attempt)
      DBTF_EXCLUDES(mu_);

  /// Marks `machine` permanently dead and detaches its endpoint. Idempotent.
  void MarkMachineLost(int machine) DBTF_EXCLUDES(mu_);

  /// Shared core of MarkMachineLost / RestoreDeadMachine: sets the dead flag
  /// and detaches the endpoint. Returns true when the machine was alive.
  bool DetachDeadMachine(int machine) DBTF_EXCLUDES(mu_);

  /// Adds virtual seconds to the driver clock (backoff, recovery transfer).
  void ChargeDriverSeconds(double seconds) DBTF_EXCLUDES(mu_);

  ClusterConfig config_;
  std::shared_ptr<const PlacementPolicy> placement_;
  std::unique_ptr<ThreadPool> pool_;
  CommStats comm_;
  RecoveryLedger recovery_;
  /// Null when config_.fault_plan is empty (the fault-free fast path).
  std::unique_ptr<FaultInjector> injector_;

  mutable Mutex mu_;
  std::vector<AttachedWorker> workers_ DBTF_GUARDED_BY(mu_);
  std::vector<bool> dead_ DBTF_GUARDED_BY(mu_);
  std::vector<double> machine_seconds_ DBTF_GUARDED_BY(mu_);
  double driver_seconds_ DBTF_GUARDED_BY(mu_) = 0.0;

  /// One serial delivery queue per machine (index = machine). Declared last
  /// on purpose: destruction runs in reverse order, so the mailboxes drain
  /// their in-flight deliveries before the pool, the ledger, or the injector
  /// go away.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace dbtf

#endif  // DBTF_DIST_CLUSTER_H_
