#include "dist/transport/worker_server.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/timer.h"
#include "dist/messages.h"
#include "dist/transport/socket.h"
#include "dist/transport/wire.h"
#include "dist/worker.h"

namespace dbtf {
namespace {

/// Decodes and executes one request frame against `worker`, timing the
/// handler with the thread-CPU clock. Decode failures become the reply's
/// status; they never abort the serving loop.
WireReply ServeFrame(Worker* worker, const WireFrame& frame) {
  WireReply reply;
  ByteReader reader(frame.payload);
  ThreadCpuTimer timer;
  switch (frame.kind) {
    case WireKind::kFactorDelta: {
      Result<FactorDelta> msg = DecodeFactorDelta(&reader);
      if (!msg.ok()) {
        reply.status = msg.status();
        return reply;
      }
      reply.status = reader.ExpectEnd();
      if (reply.status.ok()) {
        timer.Reset();
        reply.status = worker->Handle(*msg);
        reply.compute_seconds = timer.ElapsedSeconds();
      }
      return reply;
    }
    case WireKind::kRunColumn: {
      Result<RunUpdateColumn> run = DecodeRunUpdateColumn(&reader);
      if (!run.ok()) {
        reply.status = run.status();
        return reply;
      }
      Result<CollectErrorsRequest> req = DecodeCollectErrorsRequest(&reader);
      if (!req.ok()) {
        reply.status = req.status();
        return reply;
      }
      reply.status = reader.ExpectEnd();
      if (!reply.status.ok()) return reply;
      CollectErrorsResponse response;
      timer.Reset();
      reply.status = worker->Handle(*run, *req, &response);
      reply.compute_seconds = timer.ElapsedSeconds();
      if (reply.status.ok()) {
        ByteWriter body;
        EncodeCollectErrorsResponse(response, &body);
        reply.body = body.bytes();
      }
      return reply;
    }
    case WireKind::kStorePartition: {
      Result<StorePartitionRequest> msg = DecodeStorePartitionRequest(&reader);
      if (!msg.ok()) {
        reply.status = msg.status();
        return reply;
      }
      reply.status = reader.ExpectEnd();
      if (reply.status.ok()) {
        timer.Reset();
        worker->AdoptPartition(msg->mode, msg->index,
                               std::move(msg->partition), msg->shape);
        reply.compute_seconds = timer.ElapsedSeconds();
      }
      return reply;
    }
    case WireKind::kListPartitions: {
      Result<Mode> mode = DecodeListPartitionsRequest(&reader);
      if (!mode.ok()) {
        reply.status = mode.status();
        return reply;
      }
      reply.status = reader.ExpectEnd();
      if (reply.status.ok()) {
        timer.Reset();
        const std::vector<std::int64_t> indexes =
            worker->LocalPartitionIndexes(*mode);
        reply.compute_seconds = timer.ElapsedSeconds();
        ByteWriter body;
        EncodeListPartitionsResponse(indexes, &body);
        reply.body = body.bytes();
      }
      return reply;
    }
    case WireKind::kQuery: {
      Result<QueryRequest> msg = DecodeQueryRequest(&reader);
      if (!msg.ok()) {
        reply.status = msg.status();
        return reply;
      }
      reply.status = reader.ExpectEnd();
      if (!reply.status.ok()) return reply;
      QueryResponse response;
      timer.Reset();
      reply.status = worker->Handle(*msg, &response);
      reply.compute_seconds = timer.ElapsedSeconds();
      if (reply.status.ok()) {
        ByteWriter body;
        EncodeQueryResponse(response, &body);
        reply.body = body.bytes();
      }
      return reply;
    }
    case WireKind::kShutdown:
      reply.status = reader.ExpectEnd();
      return reply;
    case WireKind::kReply:
      reply.status =
          Status::IoError("wire message corrupt: unexpected reply frame");
      return reply;
  }
  reply.status = Status::IoError("wire message corrupt: unknown frame kind");
  return reply;
}

}  // namespace

Status RunWorkerServer(int fd, int machine) {
  Worker worker(machine);
  FrameReader reader(fd);
  for (;;) {
    DBTF_ASSIGN_OR_RETURN(FramedRead read, reader.Next());
    if (read.eof) return Status::OK();
    const WireReply reply = ServeFrame(&worker, read.frame);
    ByteWriter payload;
    EncodeReply(reply, &payload);
    DBTF_RETURN_IF_ERROR(WriteFrameTo(fd, WireKind::kReply, payload));
    if (read.frame.kind == WireKind::kShutdown) return Status::OK();
  }
}

}  // namespace dbtf
