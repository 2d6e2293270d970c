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

/// Which transport carries the driver <-> worker messages.
enum class TransportKind {
  /// Workers live in the driver process; deliveries are direct handler
  /// calls on the routing thread. The default, the bitwise oracle, and the
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

  /// Rejects an unknown kind and a socket_dir too long for sun_path.
  Status Validate() const;
};

/// One machine's message endpoint as the routing layer sees it: the typed
/// requests of dist/messages.h go in, a Status (plus the worker-side CPU
/// seconds) comes back. The routing core (dist/cluster.cc) fans out over
/// endpoints without knowing whether the handler runs in-process or in a
/// worker process — that seam is what keeps factors, error trajectories,
/// and ledgers bitwise identical across transports.
///
/// Every routed method adds the worker-side CPU seconds consumed by the
/// handler into `*compute_seconds` when non-null (the socket transport
/// carries the measurement back in the reply envelope), so the virtual
/// machine clocks charge the same quantity either way. An endpoint whose
/// worker process died fails with kIoError; the retrying router maps that
/// onto a permanent machine loss.
///
/// Deliveries to one endpoint are serialized by construction — driver-side
/// by the machine's delivery lock in Cluster, plus the provisioning seam's
/// direct calls which only happen while routing is idle — so
/// implementations need no internal locking.
class WorkerEndpoint {
 public:
  virtual ~WorkerEndpoint();

  virtual int machine() const = 0;

  /// Routed data/control plane (Cluster fan-out).
  virtual Status Deliver(const FactorDelta& msg, double* compute_seconds) = 0;

  /// One column exchange: scores `run` against this machine's partitions
  /// and answers `req` into `*response` in the same round trip (one request
  /// frame, one reply frame on sockets). `*response` is valid only on
  /// success; a failed attempt may leave it partly written.
  virtual Status RunColumn(const RunUpdateColumn& run,
                           const CollectErrorsRequest& req,
                           CollectErrorsResponse* response,
                           double* compute_seconds) = 0;

  /// Two-phase column or broadcast exchange, for fan-outs that post every
  /// machine's request before reading any reply. SendFrame writes one
  /// pre-encoded request frame (EncodeRunColumnFrame or
  /// EncodeFactorDeltaFrame, dist/transport/wire.h); ReceiveReply reads its
  /// reply, adds the worker CPU seconds into `*compute_seconds` when
  /// non-null, and returns the handler's status. A column reply's body is
  /// decoded into `*response`; with a null `response` the body must be
  /// empty. Only endpoints whose PostsFrames() is true implement the pair;
  /// the others keep their handler as the whole exchange.
  virtual bool PostsFrames() const { return false; }
  virtual Status SendFrame(const std::vector<std::uint8_t>& frame);
  virtual Status ReceiveReply(CollectErrorsResponse* response,
                              double* compute_seconds);

  /// Serving plane (Cluster::QueryWorker): answer one query against the
  /// factors resident in this machine's broadcast cache.
  virtual Status Query(const QueryRequest& msg, QueryResponse* response,
                       double* compute_seconds) = 0;

  /// Provisioning plane (dist/provision.h; charged there when applicable).
  virtual Status Store(StorePartitionRequest msg) = 0;
  virtual Result<std::vector<std::int64_t>> ListPartitions(Mode mode) = 0;

  /// OS process id of the worker behind this endpoint. Fails with
  /// kFailedPrecondition for in-process endpoints. Exists for the crash
  /// drills (SIGKILL a worker process mid-run) — production code never
  /// signals workers directly.
  virtual Result<int> ProcessId() const {
    return Status::FailedPrecondition("endpoint has no worker process");
  }
};

/// Endpoint starters, one per TransportKind; ProvisionWorkers
/// (dist/provision.h) picks one and attaches what it returns.

/// One in-process endpoint per machine, each over a fresh Worker. Defined in
/// dist/transport/inproc.cc, which is compiled into the core library
/// because it needs the Worker handlers.
std::vector<std::shared_ptr<WorkerEndpoint>> StartInProcessEndpoints(
    int num_machines);

/// One socket endpoint per machine: prepares the socket directory, resolves
/// the worker binary, and spawns one dbtf-worker process per machine. The
/// endpoints share the directory, which goes away with the last of them.
/// Defined in dist/transport/socket.cc.
Result<std::vector<std::shared_ptr<WorkerEndpoint>>> StartSocketEndpoints(
    const TransportOptions& options, int num_machines);

}  // namespace dbtf

#endif  // DBTF_DIST_TRANSPORT_TRANSPORT_H_
