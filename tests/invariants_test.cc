// Tests that the DBTF invariant checks (common/check.h call sites) actually
// trip when the runtime's contracts are violated: PVM-aligned partition
// blocks (Lemma 3) at the worker seam, and rank-width cache keys
// (Lemmas 1-2) on the lookup hot path.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dbtf/cache_table.h"
#include "dbtf/partition.h"
#include "dist/worker.h"
#include "tensor/bit_matrix.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace {

constexpr UnfoldShape kShape{/*rows=*/2, /*blocks=*/1, /*within=*/128};

/// A partition with one block that satisfies every Lemma 3 invariant for
/// kShape; tests corrupt one field at a time.
Partition ValidPartition() {
  PartitionBlock block;
  block.block_index = 0;
  block.within_begin = 0;
  block.within_end = 128;
  block.word_begin = 0;
  block.last_word_mask = ~BitWord{0};
  block.type = BlockType::kFullPvm;
  block.rows = BitMatrix(kShape.rows, 128);
  block.row_nnz.assign(static_cast<std::size_t>(kShape.rows), 0);

  Partition partition;
  partition.col_begin = 0;
  partition.col_end = 128;
  partition.blocks.push_back(std::move(block));
  return partition;
}

TEST(PartitionInvariantsTest, ValidPartitionIsAccepted) {
  Worker worker(0);
  worker.AdoptPartition(Mode::kOne, 0, ValidPartition(), kShape);
  EXPECT_EQ(worker.NumLocalPartitions(Mode::kOne), 1);
}

TEST(PartitionInvariantsDeathTest, MisalignedWithinBeginDies) {
  Worker worker(0);
  Partition bad = ValidPartition();
  bad.blocks[0].within_begin = 32;  // not a multiple of 64
  EXPECT_DEATH(worker.AdoptPartition(Mode::kOne, 0, std::move(bad), kShape),
               "within_begin % 64");
}

TEST(PartitionInvariantsDeathTest, WordBeginMismatchDies) {
  Worker worker(0);
  Partition bad = ValidPartition();
  bad.blocks[0].within_begin = 64;  // aligned, but word_begin still says 0
  bad.blocks[0].rows = BitMatrix(kShape.rows, 64);
  EXPECT_DEATH(worker.AdoptPartition(Mode::kOne, 0, std::move(bad), kShape),
               "word_begin == b.within_begin / 64 \\(0 vs. 1\\)");
}

TEST(PartitionInvariantsDeathTest, BlockIndexOutOfRangeDies) {
  Worker worker(0);
  Partition bad = ValidPartition();
  bad.blocks[0].block_index = kShape.blocks;  // one past the last PVM row
  EXPECT_DEATH(worker.AdoptPartition(Mode::kOne, 0, std::move(bad), kShape),
               "block_index < shape.blocks \\(1 vs. 1\\)");
}

TEST(PartitionInvariantsDeathTest, SliceWidthMismatchDies) {
  Worker worker(0);
  Partition bad = ValidPartition();
  bad.blocks[0].rows = BitMatrix(kShape.rows, 64);  // block claims width 128
  EXPECT_DEATH(worker.AdoptPartition(Mode::kOne, 0, std::move(bad), kShape),
               "rows.cols\\(\\) == b.width\\(\\) \\(64 vs. 128\\)");
}

TEST(CacheKeyInvariantsTest, KeyAboveRankDiesInDebug) {
#ifdef NDEBUG
  GTEST_SKIP() << "DBTF_DCHECK is compiled out under NDEBUG";
#else
  const BitMatrix ms_t(4, 128);  // rank 4: keys may only use bits [0, 4)
  auto cache = CacheTable::Build(ms_t, 8);
  ASSERT_TRUE(cache.ok());
  std::vector<BitWord> scratch(
      static_cast<std::size_t>(cache->words_per_row()));
  EXPECT_DEATH(
      cache->Lookup(std::uint64_t{1} << 5, 0, cache->words_per_row(),
                    MutableBitSpan(scratch.data(),
                                   scratch.size() * kBitsPerWord)),
      "cache key has bits above rank 4");
#endif
}

}  // namespace
}  // namespace dbtf
