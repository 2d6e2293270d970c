#ifndef DBTF_DIST_TRANSPORT_TRANSPORT_H_
#define DBTF_DIST_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/messages.h"
#include "tensor/unfold.h"

namespace dbtf {

class Worker;  // dist/worker.h — the handler implementation behind endpoints

/// Which transport carries the driver <-> worker messages.
enum class TransportKind {
  /// Workers live in the driver process; deliveries are direct handler
  /// calls on the pool. Today's behavior, the bitwise oracle, and the
  /// TSan/ASan target.
  kInProcess = 0,
  /// One OS process per simulated machine, driven by the dbtf-worker
  /// daemon; messages cross local (Unix-domain) sockets as serialized wire
  /// frames (dist/transport/wire.h).
  kSocket = 1,
};

const char* TransportKindName(TransportKind kind);

/// Parses "inproc" / "socket" (the CLI's --transport values).
Result<TransportKind> ParseTransportKind(const std::string& name);

/// Transport selection and socket-transport tuning, embedded in
/// ClusterConfig. The transport is an *operational* choice: it must never
/// change factors, error trajectories, or ledgers, so it is deliberately
/// excluded from the session's config fingerprint (a checkpoint written
/// under one transport resumes under the other).
struct TransportOptions {
  TransportKind kind = TransportKind::kInProcess;

  /// Directory for the per-machine Unix-domain socket files. Empty selects
  /// a fresh mkdtemp directory under $TMPDIR (removed at teardown).
  std::string socket_dir;

  /// dbtf-worker binary to spawn per machine. Empty resolves via the
  /// DBTF_WORKER_BIN environment variable, then "dbtf-worker" next to the
  /// running executable.
  std::string worker_binary;

  /// Expected worker-process count; 0 means "one per machine" (the only
  /// valid topology — the field exists so a mis-specified deployment is
  /// rejected by Validate instead of silently under-provisioning).
  int socket_workers = 0;

  /// Validates the options against the cluster size. Rejects a socket_dir
  /// too long for sun_path and a socket_workers count that does not match
  /// `num_machines`.
  Status Validate(int num_machines) const;
};

/// One machine's message endpoint as the routing layer sees it: the typed
/// requests of dist/messages.h go in, a Status (plus the worker-side CPU
/// seconds) comes back. The routing core (dist/cluster.cc) fans out over
/// endpoints without knowing whether the handler runs in-process or in a
/// worker process — that seam is what keeps factors, error trajectories,
/// and ledgers bitwise identical across transports.
///
/// Every method adds the worker-side CPU seconds consumed by the handler
/// into `*compute_seconds` when non-null (the socket transport carries the
/// measurement back in the reply envelope), so the virtual machine clocks
/// charge the same quantity either way. An endpoint whose worker process
/// died fails with kIoError; the retrying router maps that onto a permanent
/// machine loss.
///
/// Deliveries to one endpoint are serialized by construction — driver-side
/// by the machine's mailbox, plus the provisioning seam's direct calls
/// which only happen while routing is idle — so implementations need no
/// internal locking.
class WorkerEndpoint {
 public:
  virtual ~WorkerEndpoint();

  virtual int machine() const = 0;

  /// Routed data/control plane (Cluster fan-out).
  virtual Status Deliver(const FactorDelta& msg, double* compute_seconds) = 0;
  virtual Status Deliver(const RunUpdateColumn& msg,
                         double* compute_seconds) = 0;
  virtual Status Collect(const CollectErrorsRequest& msg,
                         CollectErrorsResponse* response,
                         double* compute_seconds) = 0;

  /// Serving plane (Cluster::QueryWorker): answer one query against the
  /// factors resident in this machine's broadcast cache.
  virtual Status Query(const QueryRequest& msg, QueryResponse* response,
                       double* compute_seconds) = 0;

  /// Provisioning plane (dist/provision.h; charged there when applicable).
  virtual Status Store(StorePartitionRequest msg, double* compute_seconds) = 0;
  virtual Result<std::vector<std::int64_t>> ListPartitions(
      Mode mode, double* compute_seconds) = 0;

  /// The in-process worker behind this endpoint, or null for a remote one.
  /// Only LendPartition (dist/provision.h) uses it: lending shares a
  /// driver-side pointer, which cannot cross a process boundary.
  virtual Worker* local_worker() { return nullptr; }

  /// OS process id of the worker behind this endpoint. Fails with
  /// kFailedPrecondition for in-process endpoints. Exists for the crash
  /// drills (SIGKILL a worker process mid-run) — production code never
  /// signals workers directly.
  virtual Result<int> ProcessId() const {
    return Status::FailedPrecondition("endpoint has no worker process");
  }
};

/// Factory seam beneath Cluster: one Transport instance per provisioned
/// cluster mints the per-machine endpoints. Endpoints share ownership of
/// whatever state they need (socket directory, worker process), so the
/// Transport object itself may be dropped once provisioning is done.
class Transport {
 public:
  virtual ~Transport();

  virtual TransportKind kind() const = 0;

  /// Creates (and, for the socket transport, spawns) machine `machine`'s
  /// endpoint.
  virtual Result<std::shared_ptr<WorkerEndpoint>> StartEndpoint(
      int machine) = 0;
};

/// In-process transport factory. Defined in dist/transport/inproc.cc, which
/// is compiled into the core library because it needs the Worker handlers.
std::shared_ptr<Transport> CreateInProcessTransport();

/// Socket transport factory: prepares the socket directory and resolves the
/// worker binary; StartEndpoint then spawns one dbtf-worker process per
/// machine. Defined in dist/transport/socket.cc.
Result<std::shared_ptr<Transport>> CreateSocketTransport(
    const TransportOptions& options, int num_machines);

}  // namespace dbtf

#endif  // DBTF_DIST_TRANSPORT_TRANSPORT_H_
