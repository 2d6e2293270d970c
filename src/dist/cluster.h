#ifndef DBTF_DIST_CLUSTER_H_
#define DBTF_DIST_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/comm_stats.h"
#include "dist/fault.h"
#include "dist/messages.h"
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
/// Handlers execute for real (so results are exact): in-process fan-outs in
/// parallel on a thread pool, socket fan-outs as one frame posted to every
/// worker process before any reply is read. A deterministic *virtual clock*
/// per machine records the CPU time each handler consumed. The virtual
/// makespan
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
/// registry that also pins the endpoints alive (see RoutingSnapshot). Each
/// delivery runs under its machine's delivery lock instead, which is always
/// taken before `mu_`, never after.
class Cluster {
 public:
  /// Creates a cluster after validating the configuration.
  static Result<std::unique_ptr<Cluster>> Create(const ClusterConfig& config);

  int num_machines() const { return config_.num_machines; }
  const ClusterConfig& config() const { return config_; }

  /// Machine that owns task (or partition) index t >= 0: round-robin,
  /// t mod M — the paper's implicit scheme.
  int OwnerOf(std::int64_t task) const {
    return static_cast<int>(task % config_.num_machines);
  }

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
  // Each routing call takes a wire message from dist/messages.h, makes one
  // delivery per target machine, and returns only when every delivery has
  // completed. In-process fan-outs run their deliveries on the pool; socket
  // fan-outs and queries run on the calling thread, and every delivery holds
  // its machine's delivery lock from first attempt to last. So a worker's
  // handlers are never invoked concurrently, even when several threads
  // route at once (serving reads racing a broadcast), and because the calls
  // block, each machine sees its deliveries in call order: the
  // FaultInjector's per-(machine, message-kind) counters advance in that
  // order, which is the determinism anchor.
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

  /// Runs one column as ONE exchange per machine over one registry
  /// snapshot: each machine scores `run` and answers `req` in a single
  /// delivery of MessageKind::kDispatch. The request rides the task
  /// scheduler, which the paper prices at zero wire bytes. When every
  /// machine has answered, the replies merge into `*response` (int64 sums
  /// commute, so merge order cannot affect the result) and their summed
  /// exact encoded sizes are charged as one collect event (Lemma 7); a
  /// column that failed anywhere charges nothing. `run` and `req` must agree
  /// on mode and rows, and `run.row_masks` must hold `rows` masks
  /// (kInvalidArgument otherwise, before any delivery). `*response` is
  /// valid only on success.
  Status RunColumn(RunUpdateColumn run, const CollectErrorsRequest& req,
                   CollectErrorsResponse* response) DBTF_EXCLUDES(mu_);

  /// Routes one serving query point-to-point to `machine`. It is delivered
  /// on the calling thread under that machine's delivery lock, so it is
  /// ordered against any factor broadcast in flight — a query observes
  /// either all of a multi-slot FactorDelta's updates or none of them, never
  /// a torn generation. Request + response wire bytes are charged as one query
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
  /// reserved for cluster.cc (analyzer rule recovery-stats-mutation).
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

  /// Restores the counters captured by FaultDeliveryCounters(); the dead
  /// set is restored by RestoreDeadMachine. Fails with kFailedPrecondition
  /// when counters were checkpointed but this cluster has no fault plan (the
  /// configurations diverged).
  Status RestoreFaultDeliveryState(const std::vector<std::int64_t>& deliveries);

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

  /// One handler invocation of a fan-out on the endpoint at snapshot index
  /// `slot`; adds the handler's worker CPU seconds into `*compute_seconds`.
  using SlotHandler = std::function<Status(
      std::size_t slot, WorkerEndpoint& endpoint, double* compute_seconds)>;

  /// Snapshot of the attached endpoints, for iteration without `mu_`; it
  /// shares their ownership, so they outlive any routing that started
  /// before a DetachWorkers. The routing call keeps it on its own stack and
  /// releases it when it returns. An empty registry is an error:
  /// kUnavailable once machines have died (the driver may re-provision),
  /// kFailedPrecondition when nothing was ever attached (a usage error).
  Result<std::vector<AttachedWorker>> RoutingSnapshot() const
      DBTF_EXCLUDES(mu_);

  /// Delivers one `kind` message to every endpoint of `workers`, each as a
  /// MachineDelivery, and returns once all have settled. When every
  /// endpoint PostsFrames() (sockets), the calling thread encodes `frame()`
  /// once, sends it to every machine in machine order, then reads the
  /// replies in that order, decoding machine `slot`'s column reply into
  /// (*replies)[slot] when `replies` is non-null; a machine whose attempt
  /// failed retries alone, the others' replies are kept. Otherwise each
  /// endpoint runs `handler` on the pool, where the handler is the compute.
  /// Per-machine statuses are combined deterministically: fatal codes
  /// outrank retryable ones and ties break by snapshot (attach) order —
  /// never by thread interleaving, which would make the surfaced error (and
  /// hence the recovery path taken by the driver) depend on scheduling.
  Status FanOut(const std::vector<AttachedWorker>& workers, MessageKind kind,
                const SlotHandler& handler,
                const std::function<std::vector<std::uint8_t>()>& frame,
                std::vector<CollectErrorsResponse>* replies)
      DBTF_EXCLUDES(mu_);

  /// One delivery to one machine under the fault injector and the retry
  /// policy: the single place those rules live, shared by both fan-out forms
  /// and QueryWorker. Constructing it takes the machine's delivery lock,
  /// held until it is destroyed, and refuses a dead machine under that lock
  /// before the injector is consulted, so a dead machine's fault counters
  /// never advance again. Each attempt is Begin() (backoff before a
  /// redelivery, then the injector); when Begin() returns true, one call of
  /// the endpoint; then End() with the call's status and the worker CPU
  /// seconds it reported, which are charged to the machine's clock. An
  /// attempt the injector fails never reaches the endpoint.
  class MachineDelivery {
   public:
    MachineDelivery(Cluster& cluster, int machine, MessageKind kind);
    MachineDelivery(const MachineDelivery&) = delete;
    MachineDelivery& operator=(const MachineDelivery&) = delete;

    /// Opens the next attempt. False when the delivery is done or the
    /// injector failed this attempt (already classified by then).
    bool Begin();
    /// Closes the open attempt with the endpoint's result.
    void End(const Status& status, double compute_seconds);
    /// Runs attempts of `call` until the delivery is done; returns its
    /// status. `call` invokes the endpoint and adds the worker CPU seconds
    /// it consumed into its argument.
    Status Run(const std::function<Status(double*)>& call);

   private:
    /// Decides what a failed or successful attempt means: done, or retry.
    void Classify(const Status& status);

    Cluster& cluster_;
    const int machine_;
    const MessageKind kind_;
    /// The machine's delivery lock. Held through std::optional so its
    /// lifetime is this object's, which may outlive a lexical scope (the
    /// posted fan-out keeps one delivery per machine open at once).
    std::optional<MutexLock> lock_;
    int attempts_ = 0;
    double backoff_ = 0.0;
    bool done_ = false;
    Status status_;
  };

  /// Whether `machine` has been lost.
  bool IsDead(int machine) const DBTF_EXCLUDES(mu_);

  /// Marks `machine` permanently dead and detaches its endpoint. Idempotent.
  void MarkMachineLost(int machine) DBTF_EXCLUDES(mu_);

  /// Shared core of MarkMachineLost / RestoreDeadMachine: sets the dead flag
  /// and detaches the endpoint. Returns true when the machine was alive.
  bool DetachDeadMachine(int machine) DBTF_EXCLUDES(mu_);

  /// Adds virtual seconds to the driver clock (backoff, recovery transfer).
  void ChargeDriverSeconds(double seconds) DBTF_EXCLUDES(mu_);

  ClusterConfig config_;
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

  /// One delivery lock per machine (index = machine), held by a
  /// MachineDelivery: a machine has at most one delivery in flight, which
  /// keeps Worker mutex-free and gives each socket endpoint one
  /// conversation at a time. It guards the endpoint conversation, not a
  /// member, so it carries no DBTF_GUARDED_BY data. Always taken before
  /// `mu_`; a thread that holds several takes them in machine order.
  std::vector<Mutex> delivery_locks_;
};

}  // namespace dbtf

#endif  // DBTF_DIST_CLUSTER_H_
