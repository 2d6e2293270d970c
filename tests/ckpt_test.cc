#include "ckpt/checkpoint.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/format.h"
#include "common/status.h"
#include "tensor/bit_matrix.h"

namespace dbtf {
namespace {

std::string UniqueDir(const std::string& name) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "/ckpt_test_" + name + "_" +
                          std::to_string(counter++);
  // The names repeat across test-binary runs; leftovers from a previous run
  // would change sequence numbering, so start from a clean slate.
  std::filesystem::remove_all(dir);
  return dir;
}

BitMatrix PatternMatrix(std::int64_t rows, std::int64_t cols,
                        std::uint64_t salt) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, ((static_cast<std::uint64_t>(r * cols + c) ^ salt) % 3) ==
                      0);
    }
  }
  return m;
}

/// A fully populated state, so the roundtrip test exercises every field of
/// the format. `salt` varies the content between snapshots.
CheckpointState MakeState(std::uint64_t salt) {
  CheckpointState s;
  s.config_fingerprint = 0x1111 + salt;
  s.tensor_fingerprint = 0x2222 + salt;
  RunProgress& p = s.progress;
  p.iteration = 3;
  p.set_index = 1;
  p.mode_index = 2;
  p.next_column = 5;
  p.columns_done = 37 + static_cast<std::int64_t>(salt);
  s.rng_state = {salt + 1, salt + 2, salt + 3, salt + 4};
  p.current.a = PatternMatrix(6, 4, salt);
  p.current.b = PatternMatrix(7, 4, salt + 1);
  p.current.c = PatternMatrix(5, 4, salt + 2);
  p.best.a = PatternMatrix(6, 4, salt + 3);
  p.best.b = PatternMatrix(7, 4, salt + 4);
  p.best.c = PatternMatrix(5, 4, salt + 5);
  p.best_error = 17;
  p.update_stats.cache_entries = 100;
  p.update_stats.cache_bytes = 800;
  p.update_stats.cells_changed = 12;
  p.update_stats.final_error = 44;
  p.iter_stats.error = 55;
  p.iter_stats.cells_changed = 21;
  p.iter_stats.cache_entries = 110;
  p.iter_stats.cache_bytes = 880;
  p.iteration_errors = {90, 70, 60};
  p.cells_changed = 123;
  p.cache_entries = 140;
  p.cache_bytes = 1120;
  p.checkpoints_written = 4;
  s.shadows[0].initialized = true;
  s.shadows[0].generation = 11 + salt;
  s.shadows[0].content = PatternMatrix(6, 4, salt + 6);
  s.shadows[1].initialized = false;
  s.shadows[2].initialized = true;
  s.shadows[2].generation = 13 + salt;
  s.shadows[2].content = PatternMatrix(5, 4, salt + 7);
  s.comm.shuffle_bytes = 1000;
  s.comm.broadcast_bytes = 2000;
  s.comm.collect_bytes = 3000;
  s.comm.shuffle_events = 1;
  s.comm.broadcast_events = 9;
  s.comm.collect_events = 36;
  s.recovery.failed_deliveries = 2;
  s.recovery.retries = 3;
  s.recovery.machines_lost = 1;
  s.recovery.reprovisions = 6;
  s.recovery.reshipped_bytes = 4096;
  s.recovery.recovery_seconds = 0.25;
  s.fault_delivery_counters = {5, 4, 3, 2, 1, 0};
  s.dead_machines = {1};
  s.machine_seconds = {1.5, 2.5};
  s.driver_seconds = 0.75;
  return s;
}

void ExpectStatesEqual(const CheckpointState& got, const CheckpointState& want) {
  EXPECT_EQ(got.config_fingerprint, want.config_fingerprint);
  EXPECT_EQ(got.tensor_fingerprint, want.tensor_fingerprint);
  const RunProgress& gp = got.progress;
  const RunProgress& wp = want.progress;
  EXPECT_EQ(gp.iteration, wp.iteration);
  EXPECT_EQ(gp.set_index, wp.set_index);
  EXPECT_EQ(gp.mode_index, wp.mode_index);
  EXPECT_EQ(gp.next_column, wp.next_column);
  EXPECT_EQ(gp.columns_done, wp.columns_done);
  EXPECT_EQ(got.rng_state, want.rng_state);
  EXPECT_TRUE(gp.current.a == wp.current.a);
  EXPECT_TRUE(gp.current.b == wp.current.b);
  EXPECT_TRUE(gp.current.c == wp.current.c);
  EXPECT_TRUE(gp.best.a == wp.best.a);
  EXPECT_TRUE(gp.best.b == wp.best.b);
  EXPECT_TRUE(gp.best.c == wp.best.c);
  EXPECT_EQ(gp.best_error, wp.best_error);
  EXPECT_EQ(gp.update_stats.cache_entries, wp.update_stats.cache_entries);
  EXPECT_EQ(gp.update_stats.cache_bytes, wp.update_stats.cache_bytes);
  EXPECT_EQ(gp.update_stats.cells_changed, wp.update_stats.cells_changed);
  EXPECT_EQ(gp.update_stats.final_error, wp.update_stats.final_error);
  EXPECT_EQ(gp.iter_stats.error, wp.iter_stats.error);
  EXPECT_EQ(gp.iter_stats.cells_changed, wp.iter_stats.cells_changed);
  EXPECT_EQ(gp.iter_stats.cache_entries, wp.iter_stats.cache_entries);
  EXPECT_EQ(gp.iter_stats.cache_bytes, wp.iter_stats.cache_bytes);
  EXPECT_EQ(gp.iteration_errors, wp.iteration_errors);
  EXPECT_EQ(gp.cells_changed, wp.cells_changed);
  EXPECT_EQ(gp.cache_entries, wp.cache_entries);
  EXPECT_EQ(gp.cache_bytes, wp.cache_bytes);
  EXPECT_EQ(gp.checkpoints_written, wp.checkpoints_written);
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    const auto& gs = got.shadows[static_cast<std::size_t>(i)];
    const auto& ws = want.shadows[static_cast<std::size_t>(i)];
    EXPECT_EQ(gs.initialized, ws.initialized);
    if (gs.initialized && ws.initialized) {
      EXPECT_EQ(gs.generation, ws.generation);
      EXPECT_TRUE(gs.content == ws.content);
    }
  }
  EXPECT_EQ(got.comm.shuffle_bytes, want.comm.shuffle_bytes);
  EXPECT_EQ(got.comm.broadcast_bytes, want.comm.broadcast_bytes);
  EXPECT_EQ(got.comm.collect_bytes, want.comm.collect_bytes);
  EXPECT_EQ(got.comm.shuffle_events, want.comm.shuffle_events);
  EXPECT_EQ(got.comm.broadcast_events, want.comm.broadcast_events);
  EXPECT_EQ(got.comm.collect_events, want.comm.collect_events);
  EXPECT_EQ(got.recovery.failed_deliveries, want.recovery.failed_deliveries);
  EXPECT_EQ(got.recovery.retries, want.recovery.retries);
  EXPECT_EQ(got.recovery.machines_lost, want.recovery.machines_lost);
  EXPECT_EQ(got.recovery.reprovisions, want.recovery.reprovisions);
  EXPECT_EQ(got.recovery.reshipped_bytes, want.recovery.reshipped_bytes);
  EXPECT_EQ(got.recovery.recovery_seconds, want.recovery.recovery_seconds);
  EXPECT_EQ(got.fault_delivery_counters, want.fault_delivery_counters);
  EXPECT_EQ(got.dead_machines, want.dead_machines);
  EXPECT_EQ(got.machine_seconds, want.machine_seconds);
  EXPECT_EQ(got.driver_seconds, want.driver_seconds);
}

/// Flips one byte in the middle of `path`.
void CorruptFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(bytes.empty()) << path;
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Cuts `path` down to its first half.
void TruncateFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
}

TEST(CheckpointStoreTest, OpenRejectsBadArguments) {
  EXPECT_FALSE(CheckpointStore::Open("", 3).ok());
  EXPECT_FALSE(CheckpointStore::Open(UniqueDir("badretention"), 0).ok());
}

TEST(CheckpointStoreTest, EmptyStoreHasNoSnapshot) {
  const std::string dir = UniqueDir("empty");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->ListSequences().empty());
  EXPECT_EQ(store->LoadNewestValid().status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, WriteRoundTripsFullState) {
  const std::string dir = UniqueDir("roundtrip");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  const CheckpointState want = MakeState(0);
  auto seq = store->Write(want);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq.value(), 1);
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectStatesEqual(got.value(), want);
}

TEST(CheckpointStoreTest, LoadsTheNewestSnapshot) {
  const std::string dir = UniqueDir("newest");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeState(1)).ok());
  ASSERT_TRUE(store->Write(MakeState(2)).ok());
  const std::vector<std::int64_t> sequences = store->ListSequences();
  ASSERT_EQ(sequences.size(), 2u);
  EXPECT_EQ(sequences[0], 1);
  EXPECT_EQ(sequences[1], 2);
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok());
  ExpectStatesEqual(got.value(), MakeState(2));
}

TEST(CheckpointStoreTest, RetentionPrunesOldest) {
  const std::string dir = UniqueDir("retention");
  auto store = CheckpointStore::Open(dir, 2);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeState(1)).ok());
  ASSERT_TRUE(store->Write(MakeState(2)).ok());
  ASSERT_TRUE(store->Write(MakeState(3)).ok());
  const std::vector<std::int64_t> sequences = store->ListSequences();
  ASSERT_EQ(sequences.size(), 2u);
  EXPECT_EQ(sequences[0], 2);
  EXPECT_EQ(sequences[1], 3);
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok());
  ExpectStatesEqual(got.value(), MakeState(3));
}

TEST(CheckpointStoreTest, ReopenContinuesTheSequence) {
  const std::string dir = UniqueDir("reopen");
  {
    auto store = CheckpointStore::Open(dir, 3);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Write(MakeState(1)).ok());
  }
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  auto seq = store->Write(MakeState(2));
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 2);
}

TEST(CheckpointStoreTest, CorruptNewestManifestFallsBack) {
  const std::string dir = UniqueDir("corrupt_manifest");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeState(1)).ok());
  ASSERT_TRUE(store->Write(MakeState(2)).ok());
  CorruptFile(dir + "/ckpt-2/MANIFEST");
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectStatesEqual(got.value(), MakeState(1));
}

TEST(CheckpointStoreTest, TruncatedManifestFallsBack) {
  const std::string dir = UniqueDir("truncated_manifest");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeState(1)).ok());
  ASSERT_TRUE(store->Write(MakeState(2)).ok());
  TruncateFile(dir + "/ckpt-2/MANIFEST");
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok());
  ExpectStatesEqual(got.value(), MakeState(1));
}

TEST(CheckpointStoreTest, CorruptBlobFallsBack) {
  const std::string dir = UniqueDir("corrupt_blob");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeState(1)).ok());
  ASSERT_TRUE(store->Write(MakeState(2)).ok());
  CorruptFile(dir + "/ckpt-2/factors.bin");
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok());
  ExpectStatesEqual(got.value(), MakeState(1));
}

TEST(CheckpointStoreTest, MissingBlobFallsBack) {
  const std::string dir = UniqueDir("missing_blob");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeState(1)).ok());
  ASSERT_TRUE(store->Write(MakeState(2)).ok());
  ASSERT_EQ(std::remove((dir + "/ckpt-2/dist.bin").c_str()), 0);
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok());
  ExpectStatesEqual(got.value(), MakeState(1));
}

TEST(CheckpointStoreTest, EverySnapshotCorruptIsNotFound) {
  const std::string dir = UniqueDir("all_corrupt");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeState(1)).ok());
  ASSERT_TRUE(store->Write(MakeState(2)).ok());
  CorruptFile(dir + "/ckpt-1/MANIFEST");
  CorruptFile(dir + "/ckpt-2/run.bin");
  EXPECT_EQ(store->LoadNewestValid().status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, UnpublishedTmpDirIsIgnoredAndReplaced) {
  const std::string dir = UniqueDir("tmp_leftover");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeState(1)).ok());
  // Fake the leftovers of a writer killed mid-write: a stale tmp dir for the next
  // sequence. It must not show up as a snapshot, and the next Write must
  // replace it cleanly.
  ASSERT_EQ(::mkdir((dir + "/ckpt-2.tmp").c_str(), 0755), 0);
  {
    std::ofstream stale(dir + "/ckpt-2.tmp/MANIFEST", std::ios::binary);
    stale << "half-written garbage";
  }
  EXPECT_EQ(store->ListSequences().size(), 1u);
  auto seq = store->Write(MakeState(2));
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq.value(), 2);
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok());
  ExpectStatesEqual(got.value(), MakeState(2));
}

TEST(CheckpointStoreTest, ZeroDimensionMatricesRoundTrip) {
  // A checkpoint taken before `best` exists carries default-constructed
  // matrices; they must survive the roundtrip as empty.
  const std::string dir = UniqueDir("empty_matrices");
  auto store = CheckpointStore::Open(dir, 1);
  ASSERT_TRUE(store.ok());
  CheckpointState s = MakeState(0);
  s.progress.best = FactorSet{};
  s.progress.best_error = -1;
  s.fault_delivery_counters.clear();
  s.dead_machines.clear();
  ASSERT_TRUE(store->Write(s).ok());
  auto got = store->LoadNewestValid();
  ASSERT_TRUE(got.ok());
  ExpectStatesEqual(got.value(), s);
}

TEST(CheckpointFormatTest, HasBestFlagMustAgreeWithBestError) {
  // The factors blob's has-best byte is implied by best_error; a blob where
  // the two disagree is corrupt, whatever its CRC says.
  std::vector<std::uint8_t> bytes = ckpt_format::SerializeFactors(MakeState(0));
  CheckpointState parsed;
  ASSERT_TRUE(ckpt_format::ParseFactors(bytes, &parsed).ok());
  std::fill(bytes.end() - 8, bytes.end(), 0xFF);  // best_error := -1
  EXPECT_EQ(ckpt_format::ParseFactors(bytes, &parsed).code(),
            StatusCode::kIoError);
}

TEST(CheckpointFormatTest, DeadMachineIdsMustFitAnInt) {
  // Dead-machine ids are stored as i64. One that does not fit an int would
  // wrap into range when narrowed (2^32 + 1 becomes machine 1) and resume
  // with the wrong machine dead.
  CheckpointState state = MakeState(0);
  state.dead_machines = {2};
  const std::vector<std::uint8_t> bytes = ckpt_format::SerializeDist(state);
  CheckpointState parsed;
  ASSERT_TRUE(ckpt_format::ParseDist(bytes, &parsed).ok());
  EXPECT_EQ(parsed.dead_machines, std::vector<int>{2});

  // The id follows the ledgers (8 + 6 words), the fault counters and the
  // dead-machine count.
  const std::size_t id_at =
      (8 + 6 + 1 + state.fault_delivery_counters.size() + 1) * 8;
  for (const std::int64_t id : {(std::int64_t{1} << 32) + 1,
                                std::int64_t{INT32_MAX} + 1,
                                std::int64_t{-1}}) {
    std::vector<std::uint8_t> hostile = bytes;
    for (int b = 0; b < 8; ++b) {
      hostile[id_at + b] =
          static_cast<std::uint8_t>(static_cast<std::uint64_t>(id) >> (8 * b));
    }
    EXPECT_EQ(ckpt_format::ParseDist(hostile, &parsed).code(),
              StatusCode::kIoError)
        << "id " << id;
  }
}

TEST(CheckpointFormatTest, MatrixWithPaddingBitsSetIsRejected) {
  // A 4-column matrix uses 4 bits of its row word; the other 60 are padding
  // and must stay zero, or whole-word row ops and operator== would see
  // entries that do not exist. A blob carrying one is corrupt.
  CheckpointState state = MakeState(0);
  state.progress.current.b.MutableRowData(2)[0] |= BitWord{1} << 63;
  CheckpointState parsed;
  EXPECT_EQ(ckpt_format::ParseFactors(ckpt_format::SerializeFactors(state),
                                      &parsed)
                .code(),
            StatusCode::kIoError);

  state = MakeState(0);
  state.shadows[2].content.MutableRowData(0)[0] |= BitWord{1} << 4;
  EXPECT_EQ(
      ckpt_format::ParseBcast(ckpt_format::SerializeBcast(state), &parsed)
          .code(),
      StatusCode::kIoError);
}

}  // namespace
}  // namespace dbtf
