#ifndef DBTF_DIST_TRANSPORT_SOCKET_H_
#define DBTF_DIST_TRANSPORT_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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
// only the blocking frame I/O shared by the driver-side endpoint (socket.cc,
// routing library) and the worker-side server loop (worker_server.cc /
// worker_main.cc, which link against this library).

/// Writes all of `size` bytes to `fd`, retrying on EINTR and short writes.
/// Sends with MSG_NOSIGNAL so a dead peer surfaces as kIoError, not SIGPIPE.
Status WriteAllBytes(int fd, const std::uint8_t* data, std::size_t size);

/// Encodes `payload` as one frame of `kind` and writes it to `fd`.
Status WriteFrameTo(int fd, WireKind kind, const ByteWriter& payload);

/// One frame read off a socket, or a clean end-of-stream marker.
struct FramedRead {
  bool eof = false;  ///< peer closed the stream between frames
  WireFrame frame;
};

/// Capacity of a FrameReader's buffer: a frame whose payload and CRC fit in
/// it is read with as few reads as the bytes arrive in, one when the frame
/// arrived whole. Column replies, broadcasts and queries take a few hundred
/// bytes to a few KiB; partitions take the direct path. 64 KiB saved no
/// read and raised the driver's peak RSS by 5% on serve-read.
constexpr std::size_t kFrameReaderBufferBytes = std::size_t{16} << 10;

/// The one frame reader of the socket transport, used by the driver-side
/// endpoint and the worker's serving loop alike. It keeps one buffer per
/// connection and asks the stream for as many bytes as the buffer can hold,
/// so a frame that arrived whole costs one read, and bytes of a following
/// frame stay buffered for the next call. A frame too large for the buffer
/// is read straight into its payload, which grows only as bytes arrive and
/// at most doubles per step: a header that claims more bytes than the peer
/// sends costs memory in proportion to what was sent, not to the claim.
class FrameReader {
 public:
  /// Reads up to `size` bytes into `data`: the count read, 0 at end of
  /// stream, or kIoError.
  using Source =
      std::function<Result<std::size_t>(std::uint8_t* data, std::size_t size)>;

  /// Reads the stream socket `fd` (recv, retried on EINTR). Does not own
  /// `fd`.
  explicit FrameReader(int fd,
                       std::size_t buffer_bytes = kFrameReaderBufferBytes);
  /// Reads whatever `source` yields; `buffer_bytes` is raised to hold at
  /// least a header and a CRC.
  explicit FrameReader(Source source,
                       std::size_t buffer_bytes = kFrameReaderBufferBytes);

  /// Reads and validates (magic, version, kind, length, CRC) the next
  /// frame. End of stream between frames is a clean `eof`; end of stream
  /// inside a frame, a read error, and a corrupt frame fail with kIoError.
  Result<FramedRead> Next();

 private:
  /// Buffers at least `size` unread bytes (size <= capacity). End of
  /// stream fails with kIoError, unless nothing is buffered and `eof` is
  /// non-null: then `*eof` is set and the call succeeds.
  Status Fill(std::size_t size, bool* eof = nullptr);

  Source source_;
  std::size_t capacity_;
  /// Left uninitialized: only the bytes a read stores are ever touched.
  std::unique_ptr<std::uint8_t[]> buffer_;
  std::size_t begin_ = 0;  ///< first unread buffered byte
  std::size_t end_ = 0;    ///< one past the last buffered byte
};

/// Resolves the dbtf-worker daemon binary: an explicit path if non-empty,
/// else $DBTF_WORKER_BIN, else "dbtf-worker" next to the running executable.
/// Fails with kNotFound when the resolved path is not executable.
Result<std::string> ResolveWorkerBinary(const std::string& explicit_path);

}  // namespace dbtf

#endif  // DBTF_DIST_TRANSPORT_SOCKET_H_
