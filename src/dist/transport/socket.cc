#include "dist/transport/socket.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "dist/messages.h"

namespace dbtf {
namespace {

/// How long the driver waits for a freshly forked worker to connect. A
/// healthy child connects in microseconds; hitting this bound means the
/// exec failed or the child died, so we fail the provision rather than
/// hang. poll() blocks in the kernel — no spin, no sleep.
constexpr int kAcceptTimeoutMillis = 30000;

Status IoErrno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// RAII socket directory shared by every endpoint of one cluster: created
/// with mkdtemp when the caller did not name one, removed (best effort) once
/// the last endpoint is gone.
struct SocketDirState {
  std::string dir;
  bool owns_dir = false;
  std::string worker_binary;

  ~SocketDirState() {
    if (owns_dir) (void)::rmdir(dir.c_str());
  }
};

class SocketEndpoint final : public WorkerEndpoint {
 public:
  SocketEndpoint(int machine, int fd, pid_t pid,
                 std::shared_ptr<SocketDirState> state)
      : machine_(machine),
        fd_(fd),
        reader_(fd),
        pid_(pid),
        state_(std::move(state)) {}

  ~SocketEndpoint() override {
    if (fd_ >= 0) {
      // Best-effort orderly shutdown; a dead worker just fails the write.
      ByteWriter empty;
      (void)WriteFrameTo(fd_, WireKind::kShutdown, empty);
      (void)reader_.Next();
      (void)::close(fd_);
    }
    if (pid_ > 0) {
      int wstatus = 0;
      (void)::waitpid(pid_, &wstatus, 0);
    }
  }

  int machine() const override { return machine_; }

  Status Deliver(const FactorDelta& msg, double* compute_seconds) override {
    DBTF_RETURN_IF_ERROR(SendFrame(EncodeFactorDeltaFrame(msg)));
    return ReceiveReply(nullptr, compute_seconds);
  }

  Status RunColumn(const RunUpdateColumn& run, const CollectErrorsRequest& req,
                   CollectErrorsResponse* response,
                   double* compute_seconds) override {
    DBTF_RETURN_IF_ERROR(SendFrame(EncodeRunColumnFrame(run, req)));
    return ReceiveReply(response, compute_seconds);
  }

  bool PostsFrames() const override { return true; }

  Status SendFrame(const std::vector<std::uint8_t>& frame) override {
    return WriteAllBytes(fd_, frame.data(), frame.size());
  }

  Status ReceiveReply(CollectErrorsResponse* response,
                      double* compute_seconds) override {
    DBTF_ASSIGN_OR_RETURN(WireReply reply, ReadReply());
    Credit(compute_seconds, reply);
    if (!reply.status.ok()) return reply.status;
    ByteReader reader(reply.body);
    if (response != nullptr) {
      DBTF_ASSIGN_OR_RETURN(*response, DecodeCollectErrorsResponse(&reader));
    }
    return reader.ExpectEnd();
  }

  Status Query(const QueryRequest& msg, QueryResponse* response,
               double* compute_seconds) override {
    ByteWriter payload;
    EncodeQueryRequest(msg, &payload);
    DBTF_ASSIGN_OR_RETURN(WireReply reply, Call(WireKind::kQuery, payload));
    Credit(compute_seconds, reply);
    if (!reply.status.ok()) return reply.status;
    ByteReader reader(reply.body);
    DBTF_ASSIGN_OR_RETURN(*response, DecodeQueryResponse(&reader));
    return reader.ExpectEnd();
  }

  Status Store(StorePartitionRequest msg) override {
    ByteWriter payload;
    EncodeStorePartitionRequest(msg, &payload);
    DBTF_ASSIGN_OR_RETURN(WireReply reply,
                          Call(WireKind::kStorePartition, payload));
    return reply.status;
  }

  Result<std::vector<std::int64_t>> ListPartitions(Mode mode) override {
    ByteWriter payload;
    EncodeListPartitionsRequest(mode, &payload);
    DBTF_ASSIGN_OR_RETURN(WireReply reply,
                          Call(WireKind::kListPartitions, payload));
    DBTF_RETURN_IF_ERROR(reply.status);
    ByteReader reader(reply.body);
    DBTF_ASSIGN_OR_RETURN(std::vector<std::int64_t> indexes,
                          DecodeListPartitionsResponse(&reader));
    DBTF_RETURN_IF_ERROR(reader.ExpectEnd());
    return indexes;
  }

  Result<int> ProcessId() const override { return static_cast<int>(pid_); }

 private:
  static void Credit(double* compute_seconds, const WireReply& reply) {
    if (compute_seconds != nullptr) {
      *compute_seconds += reply.compute_seconds;
    }
  }

  /// One request/response exchange. Any transport failure — dead worker,
  /// short read, corrupt frame — is kIoError, which the routing layer maps
  /// to a lost machine; a handler failure travels inside the reply envelope
  /// and is returned to the caller unchanged.
  Result<WireReply> Call(WireKind kind, const ByteWriter& payload) {
    DBTF_RETURN_IF_ERROR(WriteFrameTo(fd_, kind, payload));
    return ReadReply();
  }

  /// Reads one reply frame and decodes its envelope.
  Result<WireReply> ReadReply() {
    DBTF_ASSIGN_OR_RETURN(FramedRead read, reader_.Next());
    if (read.eof) {
      return Status::IoError("worker process closed the connection");
    }
    if (read.frame.kind != WireKind::kReply) {
      return Status::IoError("wire message corrupt: expected a reply frame");
    }
    ByteReader reader(read.frame.payload);
    DBTF_ASSIGN_OR_RETURN(WireReply reply, DecodeReply(&reader));
    DBTF_RETURN_IF_ERROR(reader.ExpectEnd());
    return reply;
  }

  int machine_;
  int fd_;
  FrameReader reader_;
  pid_t pid_;
  std::shared_ptr<SocketDirState> state_;
};

/// Spawns machine `machine`'s dbtf-worker and connects its endpoint.
Result<std::shared_ptr<WorkerEndpoint>> StartSocketEndpoint(
    const std::shared_ptr<SocketDirState>& state, int machine) {
  const std::string path =
      state->dir + "/worker-" + std::to_string(machine) + ".sock";

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  (void)::unlink(path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return IoErrno("socket");
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = IoErrno("bind " + path);
    (void)::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 1) != 0) {
    const Status status = IoErrno("listen " + path);
    (void)::close(listen_fd);
    (void)::unlink(path.c_str());
    return status;
  }

  // argv storage must be built before fork: only async-signal-safe calls
  // are legal in the child of a multithreaded parent.
  std::string machine_arg = "--machine=" + std::to_string(machine);
  std::string socket_arg = "--socket=" + path;
  std::vector<char*> argv = {
      const_cast<char*>(state->worker_binary.c_str()),
      const_cast<char*>(machine_arg.c_str()),
      const_cast<char*>(socket_arg.c_str()), nullptr};

  const pid_t pid = ::fork();
  if (pid < 0) {
    const Status status = IoErrno("fork");
    (void)::close(listen_fd);
    (void)::unlink(path.c_str());
    return status;
  }
  if (pid == 0) {
    // Child: listen_fd is CLOEXEC, so exec leaves only std fds open.
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  pollfd waiter;
  waiter.fd = listen_fd;
  waiter.events = POLLIN;
  waiter.revents = 0;
  int polled;
  do {
    polled = ::poll(&waiter, 1, kAcceptTimeoutMillis);
  } while (polled < 0 && errno == EINTR);
  if (polled <= 0) {
    const Status status =
        polled == 0
            ? Status::IoError("worker " + std::to_string(machine) +
                              " did not connect within 30s (exec of '" +
                              state->worker_binary + "' likely failed)")
            : IoErrno("poll");
    (void)::close(listen_fd);
    (void)::unlink(path.c_str());
    int wstatus = 0;
    (void)::kill(pid, SIGKILL);
    (void)::waitpid(pid, &wstatus, 0);
    return status;
  }

  int conn_fd;
  do {
    conn_fd = ::accept(listen_fd, nullptr, nullptr);
  } while (conn_fd < 0 && errno == EINTR);
  (void)::close(listen_fd);
  (void)::unlink(path.c_str());
  if (conn_fd < 0) {
    const Status status = IoErrno("accept");
    int wstatus = 0;
    (void)::kill(pid, SIGKILL);
    (void)::waitpid(pid, &wstatus, 0);
    return status;
  }

  std::shared_ptr<WorkerEndpoint> endpoint =
      std::make_shared<SocketEndpoint>(machine, conn_fd, pid, state);
  return endpoint;
}

}  // namespace

Status WriteAllBytes(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoErrno("send");
    }
    if (n == 0) return Status::IoError("send: connection closed");
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status WriteFrameTo(int fd, WireKind kind, const ByteWriter& payload) {
  const std::vector<std::uint8_t> frame = EncodeFrame(kind, payload);
  return WriteAllBytes(fd, frame.data(), frame.size());
}

FrameReader::FrameReader(int fd, std::size_t buffer_bytes)
    : FrameReader(
          [fd](std::uint8_t* data, std::size_t size) -> Result<std::size_t> {
            for (;;) {
              const ssize_t n = ::recv(fd, data, size, 0);
              if (n >= 0) return static_cast<std::size_t>(n);
              if (errno != EINTR) return IoErrno("recv");
            }
          },
          buffer_bytes) {}

FrameReader::FrameReader(Source source, std::size_t buffer_bytes)
    : source_(std::move(source)),
      capacity_(std::max(buffer_bytes, kFrameHeaderBytes + kFrameCrcBytes)),
      buffer_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity_)) {}

Status FrameReader::Fill(std::size_t size, bool* eof) {
  if (end_ - begin_ >= size) return Status::OK();
  if (capacity_ - begin_ < size) {
    // Too little room behind the unread bytes: move them to the front.
    std::memmove(buffer_.get(), buffer_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  while (end_ - begin_ < size) {
    DBTF_ASSIGN_OR_RETURN(
        const std::size_t n,
        source_(buffer_.get() + end_, capacity_ - end_));
    if (n == 0) {
      if (eof != nullptr && end_ == begin_) {
        *eof = true;  // clean EOF between frames
        return Status::OK();
      }
      return Status::IoError("recv: connection closed mid-frame");
    }
    end_ += n;
  }
  return Status::OK();
}

Result<FramedRead> FrameReader::Next() {
  FramedRead result;
  DBTF_RETURN_IF_ERROR(Fill(kFrameHeaderBytes, &result.eof));
  if (result.eof) return result;
  DBTF_ASSIGN_OR_RETURN(
      const auto parsed,
      ParseFrameHeader(buffer_.get() + begin_, kFrameHeaderBytes));
  begin_ += kFrameHeaderBytes;
  result.frame.kind = parsed.first;
  const std::uint64_t size = parsed.second;
  std::vector<std::uint8_t>& payload = result.frame.payload;
  if (size + kFrameCrcBytes <= capacity_) {
    const auto bytes = static_cast<std::size_t>(size);
    DBTF_RETURN_IF_ERROR(Fill(bytes + kFrameCrcBytes));
    payload.assign(buffer_.get() + begin_, buffer_.get() + begin_ + bytes);
    begin_ += bytes;
  } else {
    // Larger than the buffer: take what is buffered, then read straight
    // into the payload, growing it only as far as the bytes already read.
    std::size_t got = std::min<std::size_t>(end_ - begin_, size);
    payload.assign(buffer_.get() + begin_, buffer_.get() + begin_ + got);
    begin_ += got;
    while (got < size) {
      if (got == payload.size()) {
        payload.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
            size, got + std::max(got, capacity_))));
      }
      DBTF_ASSIGN_OR_RETURN(
          const std::size_t n,
          source_(payload.data() + got, payload.size() - got));
      if (n == 0) return Status::IoError("recv: connection closed mid-frame");
      got += n;
    }
  }
  DBTF_RETURN_IF_ERROR(Fill(kFrameCrcBytes));
  ByteReader crc_reader(buffer_.get() + begin_, kFrameCrcBytes);
  begin_ += kFrameCrcBytes;
  DBTF_ASSIGN_OR_RETURN(const std::uint32_t crc, crc_reader.ReadU32());
  DBTF_RETURN_IF_ERROR(VerifyFramePayload(payload, crc));
  return result;
}

Result<std::string> ResolveWorkerBinary(const std::string& explicit_path) {
  std::string path = explicit_path;
  if (path.empty()) path = GetEnvString("DBTF_WORKER_BIN", "");
  if (path.empty()) {
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) return IoErrno("readlink /proc/self/exe");
    exe[n] = '\0';
    std::string self(exe);
    const std::size_t slash = self.rfind('/');
    path = (slash == std::string::npos ? std::string(".")
                                       : self.substr(0, slash)) +
           "/dbtf-worker";
  }
  if (::access(path.c_str(), X_OK) != 0) {
    return Status::NotFound(
        "dbtf-worker binary not found or not executable at '" + path +
        "' (set TransportOptions::worker_binary or $DBTF_WORKER_BIN)");
  }
  return path;
}

Result<std::vector<std::shared_ptr<WorkerEndpoint>>> StartSocketEndpoints(
    const TransportOptions& options, int num_machines) {
  auto state = std::make_shared<SocketDirState>();
  DBTF_ASSIGN_OR_RETURN(state->worker_binary,
                        ResolveWorkerBinary(options.worker_binary));
  if (options.socket_dir.empty()) {
    char tmpl[] = "/tmp/dbtf-sock-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) return IoErrno("mkdtemp");
    state->dir = tmpl;
    state->owns_dir = true;
  } else {
    state->dir = options.socket_dir;
  }
  std::vector<std::shared_ptr<WorkerEndpoint>> endpoints;
  for (int m = 0; m < num_machines; ++m) {
    DBTF_ASSIGN_OR_RETURN(std::shared_ptr<WorkerEndpoint> endpoint,
                          StartSocketEndpoint(state, m));
    endpoints.push_back(std::move(endpoint));
  }
  return endpoints;
}

}  // namespace dbtf
