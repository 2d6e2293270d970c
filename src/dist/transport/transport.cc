#include "dist/transport/transport.h"

namespace dbtf {
namespace {

/// sockaddr_un::sun_path is 108 bytes on Linux (less on some BSDs; 104 is
/// the portable floor). Budget the longest per-machine socket file name the
/// transport creates: "/worker-<m>.sock" with a five-digit machine index.
constexpr std::size_t kSunPathBytes = 104;
constexpr std::size_t kSocketFileBudget = sizeof("/worker-99999.sock");

}  // namespace

WorkerEndpoint::~WorkerEndpoint() = default;

Status WorkerEndpoint::SendFrame(const std::vector<std::uint8_t>&) {
  return Status::FailedPrecondition("endpoint does not post frames");
}

Status WorkerEndpoint::ReceiveReply(CollectErrorsResponse*, double*) {
  return Status::FailedPrecondition("endpoint does not post frames");
}

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return "inproc";
    case TransportKind::kSocket:
      return "socket";
  }
  return "unknown";
}

Result<TransportKind> ParseTransportKind(const std::string& name) {
  if (name == "inproc") return TransportKind::kInProcess;
  if (name == "socket") return TransportKind::kSocket;
  return Status::InvalidArgument(
      "unknown transport '" + name + "' (expected inproc or socket)");
}

Status TransportOptions::Validate() const {
  if (kind != TransportKind::kInProcess && kind != TransportKind::kSocket) {
    return Status::InvalidArgument("unknown transport kind");
  }
  if (kind == TransportKind::kInProcess) return Status::OK();
  if (!socket_dir.empty() &&
      socket_dir.size() + kSocketFileBudget > kSunPathBytes) {
    return Status::InvalidArgument(
        "socket_dir is too long for a Unix-domain socket path (" +
        std::to_string(socket_dir.size()) + " bytes; at most " +
        std::to_string(kSunPathBytes - kSocketFileBudget) + " fit)");
  }
  return Status::OK();
}

}  // namespace dbtf
