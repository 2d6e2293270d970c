#ifndef DBTF_DIST_TRANSPORT_SOCKET_H_
#define DBTF_DIST_TRANSPORT_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/serde.h"
#include "common/status.h"
#include "dist/transport/transport.h"
#include "dist/transport/wire.h"

namespace dbtf {

// Socket transport: one OS process per simulated machine, speaking the
// framed wire protocol of dist/transport/wire.h over a Unix-domain stream
// socket. The driver binds and listens *before* forking each `dbtf-worker`
// daemon, so the child's connect can never race the accept; the daemon then
// serves request frames until it reads EOF or a kShutdown frame.
//
// Starter: StartSocketEndpoints (declared in transport.h). This header adds
// only the blocking frame I/O helpers shared by the driver-side endpoint
// (socket.cc, routing library) and the worker-side server loop
// (worker_server.cc / worker_main.cc, which link against this library).

/// Writes all of `size` bytes to `fd`, retrying on EINTR and short writes.
/// Sends with MSG_NOSIGNAL so a dead peer surfaces as kIoError, not SIGPIPE.
Status WriteAllBytes(int fd, const std::uint8_t* data, std::size_t size);

/// Reads exactly `size` bytes from `fd`. Returns false on clean EOF before
/// the first byte; fails with kIoError on mid-buffer EOF or a read error.
Result<bool> ReadFullBytes(int fd, std::uint8_t* data, std::size_t size);

/// Encodes `payload` as one frame of `kind` and writes it to `fd`.
Status WriteFrameTo(int fd, WireKind kind, const ByteWriter& payload);

/// One frame read off a socket, or a clean end-of-stream marker.
struct FramedRead {
  bool eof = false;  ///< peer closed the stream between frames
  WireFrame frame;
};

/// Reads and validates (magic, version, kind, length, CRC) one frame.
Result<FramedRead> ReadFrameFrom(int fd);

/// Resolves the dbtf-worker daemon binary: an explicit path if non-empty,
/// else $DBTF_WORKER_BIN, else "dbtf-worker" next to the running executable.
/// Fails with kNotFound when the resolved path is not executable.
Result<std::string> ResolveWorkerBinary(const std::string& explicit_path);

}  // namespace dbtf

#endif  // DBTF_DIST_TRANSPORT_SOCKET_H_
