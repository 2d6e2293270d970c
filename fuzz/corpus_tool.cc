// Seed-corpus generator: writes one representative encoded input per wire
// message kind, serde stream, checkpoint blob and text format into the
// per-target corpus directories, using the *real* encoders — so every seed
// is a valid deep input that puts the fuzzer past the magic/CRC guards from
// exec one.
//
//   corpus_tool <fuzz-dir>     writes <fuzz-dir>/corpus/<target>/<name>.bin
//
// The generated files are committed (fuzz/corpus/); re-run this tool and
// re-commit when an encoding changes (which also means bumping kWireVersion
// or kFormatVersion).

#include <cstdint>
#include <cstdio>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/format.h"
#include "common/serde.h"
#include "dbtf/partition.h"
#include "dist/fault.h"
#include "dist/messages.h"
#include "dist/transport/wire.h"
#include "tensor/bit_matrix.h"
#include "tensor/io.h"
#include "tensor/sparse_tensor.h"

namespace dbtf {
namespace {

bool WriteFile(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "corpus_tool: cannot open %s\n", path.c_str());
    return false;
  }
  const bool ok =
      b.empty() || std::fwrite(b.data(), 1, b.size(), file) == b.size();
  std::fclose(file);
  if (!ok) std::fprintf(stderr, "corpus_tool: short write %s\n", path.c_str());
  return ok;
}

BitMatrix Checkerboard(std::int64_t rows, std::int64_t cols) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, ((r + c) & 1) != 0);
    }
  }
  return m;
}

MatrixDelta FullDelta() { return MatrixDelta::Full(1, 7, Checkerboard(4, 6)); }

MatrixDelta ColumnDelta() {
  MatrixDelta d;
  d.slot = 2;
  d.generation = 9;
  d.base_generation = 7;
  d.full = false;
  d.rows = 4;
  d.cols = 6;
  d.columns = {1, 4};
  d.column_bits = {{0x5ULL}, {0xAULL}};
  return d;
}

std::vector<std::uint8_t> Frame(WireKind kind, const ByteWriter& payload) {
  return EncodeFrame(kind, payload);
}

bool WriteWireFrameSeeds(const std::string& dir) {
  bool ok = true;

  {
    FactorDelta msg;
    msg.mode = Mode::kTwo;
    msg.rows = 16;
    msg.mf_slot = 0;
    msg.ms_slot = 1;
    msg.cache_group_size = 2;
    msg.enable_caching = true;
    msg.updates = {FullDelta(), ColumnDelta()};
    ByteWriter w;
    EncodeFactorDelta(msg, &w);
    ok = WriteFile(dir + "/factor_delta.bin",
                   Frame(WireKind::kFactorDelta, w)) && ok;
  }
  {
    RunUpdateColumn run;
    run.mode = Mode::kThree;
    run.column = 3;
    run.rows = 70;  // two words per bit plane
    for (std::int64_t r = 0; r < run.rows; ++r) {
      run.row_masks.push_back(static_cast<std::uint64_t>(r * 37) & 0x3FFULL);
    }
    CollectErrorsRequest req;
    req.mode = Mode::kThree;
    req.rows = run.rows;
    req.want_stats = true;
    ByteWriter w;
    EncodeRunUpdateColumn(run, &w);
    EncodeCollectErrorsRequest(req, &w);
    ok = WriteFile(dir + "/run_column.bin", Frame(WireKind::kRunColumn, w)) &&
         ok;
  }
  {
    StorePartitionRequest msg;
    msg.mode = Mode::kOne;
    msg.index = 2;
    msg.shape = UnfoldShape{8, 2, 64};
    msg.partition.col_begin = 64;
    msg.partition.col_end = 128;
    PartitionBlock block;
    block.block_index = 1;
    block.within_begin = 0;
    block.within_end = 64;
    block.word_begin = 0;
    block.last_word_mask = ~0ULL;
    block.type = BlockType::kFullPvm;
    block.rows = Checkerboard(8, 64);
    block.row_nnz.assign(8, 32);
    msg.partition.blocks.push_back(std::move(block));
    ByteWriter w;
    EncodeStorePartitionRequest(msg, &w);
    ok = WriteFile(dir + "/store_partition.bin",
                   Frame(WireKind::kStorePartition, w)) && ok;
  }
  {
    ByteWriter w;
    EncodeListPartitionsRequest(Mode::kTwo, &w);
    ok = WriteFile(dir + "/list_partitions.bin",
                   Frame(WireKind::kListPartitions, w)) && ok;
  }
  {
    ByteWriter empty;
    ok = WriteFile(dir + "/shutdown.bin",
                   Frame(WireKind::kShutdown, empty)) && ok;
  }
  {
    CollectErrorsResponse response;
    response.diffs = {6, 1, 2, 4, -2, 0, -300, 70000};
    response.base_error = 14;
    response.cache_entries = 12;
    response.cache_bytes = 96;
    ByteWriter body;
    EncodeCollectErrorsResponse(response, &body);

    WireReply reply;
    reply.status = Status::OK();
    reply.compute_seconds = 0.125;
    reply.body = body.bytes();
    ByteWriter w;
    EncodeReply(reply, &w);
    ok = WriteFile(dir + "/reply_collect.bin",
                   Frame(WireKind::kReply, w)) && ok;
  }
  {
    WireReply reply;
    reply.status = Status::Unavailable("machine 3 is down");
    ByteWriter w;
    EncodeReply(reply, &w);
    ok = WriteFile(dir + "/reply_error.bin",
                   Frame(WireKind::kReply, w)) && ok;
  }
  {
    QueryRequest msg;
    msg.kind = QueryKind::kMembership;
    msg.id = 41;
    msg.i = 3;
    msg.j = 1;
    msg.k = 4;
    ByteWriter w;
    EncodeQueryRequest(msg, &w);
    ok = WriteFile(dir + "/query_membership.bin",
                   Frame(WireKind::kQuery, w)) && ok;
  }
  {
    QueryRequest msg;
    msg.kind = QueryKind::kFiber;
    msg.id = 42;
    msg.mode = Mode::kTwo;
    msg.k = 2;
    msg.i = 5;
    ByteWriter w;
    EncodeQueryRequest(msg, &w);
    ok = WriteFile(dir + "/query_fiber.bin",
                   Frame(WireKind::kQuery, w)) && ok;
  }
  {
    QueryRequest msg;
    msg.kind = QueryKind::kTopConcepts;
    msg.id = 43;
    msg.mode = Mode::kThree;
    msg.slice_bits = {0x00000000F0F0F0F0ULL};
    msg.slice_len = 32;
    msg.top_r = 4;
    ByteWriter w;
    EncodeQueryRequest(msg, &w);
    ok = WriteFile(dir + "/query_top.bin",
                   Frame(WireKind::kQuery, w)) && ok;
  }
  {
    QueryResponse answer;
    answer.id = 43;
    answer.member = true;
    answer.explain_mask = 0x9;
    answer.fiber_bits = {0x0000000000000FF0ULL};
    answer.fiber_len = 12;
    answer.concept_ids = {0, 3};
    answer.concept_scores = {6, 2};
    answer.generations = {21, 22, 23};  // the codec insists on all three
    ByteWriter body;
    EncodeQueryResponse(answer, &body);

    WireReply reply;
    reply.status = Status::OK();
    reply.compute_seconds = 0.0625;
    reply.body = body.bytes();
    ByteWriter w;
    EncodeReply(reply, &w);
    ok = WriteFile(dir + "/reply_query.bin",
                   Frame(WireKind::kReply, w)) && ok;
  }
  {
    // Streams for the FrameReader mode: two frames back to back, and a
    // frame followed by one cut off inside its CRC.
    ByteWriter list;
    EncodeListPartitionsRequest(Mode::kTwo, &list);
    std::vector<std::uint8_t> stream = Frame(WireKind::kListPartitions, list);
    WireReply reply;
    reply.status = Status::NotFound("no partition");
    ByteWriter w;
    EncodeReply(reply, &w);
    const std::vector<std::uint8_t> second = Frame(WireKind::kReply, w);
    stream.insert(stream.end(), second.begin(), second.end());
    ok = WriteFile(dir + "/stream_two_frames.bin", stream) && ok;
    stream.resize(stream.size() - 2);
    ok = WriteFile(dir + "/stream_cut_second_frame.bin", stream) && ok;
  }
  return ok;
}

bool WriteByteReaderSeeds(const std::string& dir) {
  // Layout understood by fuzz_byte_reader.cc: byte 0 picks the op/payload
  // split, then ops, then the payload stream (here: one of everything the
  // writer emits, so typed reads line up with typed fields).
  ByteWriter payload;
  payload.WriteU8(0xAB);
  payload.WriteU32(0xDEADBEEFU);
  payload.WriteU64(0x0123456789ABCDEFULL);
  payload.WriteI64(-42);
  payload.WriteDouble(2.5);
  payload.WriteString("seed corpus");

  std::vector<std::uint8_t> seed;
  const std::uint8_t ops[] = {0, 1, 2, 3, 4, 5, 7};
  seed.push_back(static_cast<std::uint8_t>(sizeof(ops) + 1));
  seed.insert(seed.end(), ops, ops + sizeof(ops));
  seed.insert(seed.end(), payload.bytes().begin(), payload.bytes().end());
  return WriteFile(dir + "/typed_stream.bin", seed);
}

bool WriteCkptSeeds(const std::string& dir) {
  namespace fmt = ckpt_format;
  bool ok = true;

  CheckpointState state;
  state.config_fingerprint = 0x1122334455667788ULL;
  state.tensor_fingerprint = 0x99AABBCCDDEEFF00ULL;
  RunProgress& progress = state.progress;
  progress.iteration = 3;
  progress.set_index = 1;
  progress.mode_index = 2;
  progress.next_column = 5;
  progress.columns_done = 4;
  state.rng_state = {1, 2, 3, 4};
  progress.current.a = Checkerboard(4, 3);
  progress.current.b = Checkerboard(5, 3);
  progress.current.c = Checkerboard(6, 3);
  progress.best = progress.current;
  progress.best_error = 17;
  progress.iteration_errors = {31, 23, 17};
  state.shadows[0].initialized = true;
  state.shadows[0].generation = 11;
  state.shadows[0].content = Checkerboard(4, 3);
  state.dead_machines = {false, true, false};
  state.machine_seconds = {1.5, 0.0, 2.5};
  state.driver_seconds = 0.75;

  ok = WriteFile(dir + "/run.bin", fmt::SerializeRun(state)) && ok;
  ok = WriteFile(dir + "/factors.bin", fmt::SerializeFactors(state)) && ok;
  ok = WriteFile(dir + "/bcast.bin", fmt::SerializeBcast(state)) && ok;
  ok = WriteFile(dir + "/dist.bin", fmt::SerializeDist(state)) && ok;

  fmt::Manifest manifest;
  manifest.sequence = 12;
  const char* const names[] = {fmt::kRunBlob, fmt::kFactorsBlob,
                               fmt::kBcastBlob, fmt::kDistBlob};
  const std::vector<std::uint8_t> blobs[] = {
      fmt::SerializeRun(state), fmt::SerializeFactors(state),
      fmt::SerializeBcast(state), fmt::SerializeDist(state)};
  for (int i = 0; i < 4; ++i) {
    manifest.entries.push_back(
        {names[i], blobs[i].size(), Crc32(blobs[i].data(), blobs[i].size())});
  }
  ok = WriteFile(dir + "/manifest.bin",
                 fmt::SerializeManifest(manifest)) && ok;
  return ok;
}

/// Prefixes the text file at `path` with fuzz_text_input's decoder selector,
/// in place: the text writers only write files.
bool PrefixSelector(const std::string& path, std::uint8_t selector) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    std::fprintf(stderr, "corpus_tool: cannot reopen %s\n", path.c_str());
    return false;
  }
  std::vector<std::uint8_t> bytes{selector};
  int c = 0;
  while ((c = std::fgetc(file)) != EOF) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(file);
  return WriteFile(path, bytes);
}

bool WriteTextInputSeeds(const std::string& dir) {
  // Layout understood by fuzz_text_input.cc: byte 0 picks the decoder
  // (0 fault plan, 1 tensor text, 2 matrix text), the rest is its text.
  bool ok = true;
  const char* const plans[] = {
      "1:dispatch:transient@3x2,0:collect:stall@1~0.5,2:broadcast:crash@2",
      "1:broadcast:transient@2x3"};
  for (int i = 0; i < 2; ++i) {
    const std::string text = FaultPlan::Parse(plans[i]).value().ToString();
    std::vector<std::uint8_t> seed{0};
    seed.insert(seed.end(), text.begin(), text.end());
    ok = WriteFile(dir + "/fault_plan_" + std::to_string(i) + ".bin", seed) &&
         ok;
  }

  SparseTensor tensor = SparseTensor::Create(3, 4, 5).value();
  ok = tensor.Add(0, 1, 2).ok() && tensor.Add(2, 3, 4).ok() && ok;
  tensor.SortAndDedup();
  const std::string tensor_path = dir + "/tensor.bin";
  ok = WriteTensorText(tensor, tensor_path).ok() &&
       PrefixSelector(tensor_path, 1) && ok;

  const std::string matrix_path = dir + "/matrix.bin";
  ok = WriteMatrixText(Checkerboard(3, 70), matrix_path).ok() &&
       PrefixSelector(matrix_path, 2) && ok;
  return ok;
}

bool EnsureDir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

int Run(const std::string& fuzz_dir) {
  const std::string corpus = fuzz_dir + "/corpus";
  bool ok = EnsureDir(corpus);
  const std::string wire = corpus + "/fuzz_wire_frame";
  const std::string serde = corpus + "/fuzz_byte_reader";
  const std::string ckpt = corpus + "/fuzz_ckpt_manifest";
  const std::string text = corpus + "/fuzz_text_input";
  ok = EnsureDir(wire) && EnsureDir(serde) && EnsureDir(ckpt) &&
       EnsureDir(text) && ok;
  if (!ok) {
    std::fprintf(stderr, "corpus_tool: cannot create corpus dirs under %s\n",
                 fuzz_dir.c_str());
    return 1;
  }
  ok = WriteWireFrameSeeds(wire);
  ok = WriteByteReaderSeeds(serde) && ok;
  ok = WriteCkptSeeds(ckpt) && ok;
  ok = WriteTextInputSeeds(text) && ok;
  if (ok) std::fprintf(stderr, "corpus_tool: seeds written under %s\n",
                       corpus.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dbtf

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: corpus_tool <fuzz-dir>\n");
    return 2;
  }
  return dbtf::Run(argv[1]);
}
