#include "dist/worker.h"

#include <algorithm>
#include <utility>

#include "common/bitspan.h"
#include "common/check.h"
#include "common/kernels/kernels.h"

namespace dbtf {
namespace {

/// Lemma 3 invariants of a partition block, enforced whenever a partition
/// enters a worker (AdoptPartition). Every block must be a word-aligned
/// slice of one PVM product: that alignment is what makes the cached S-bit
/// row summations directly comparable against the block's packed rows
/// (cache base + word_begin, final word masked). A block that violates these
/// would silently read the wrong cache words, so the checks are always on —
/// partition install is cold code.
void CheckBlockInvariants(const PartitionBlock& b, const UnfoldShape& shape) {
  DBTF_CHECK_LE(0, b.block_index);
  DBTF_CHECK_LT(b.block_index, shape.blocks);
  DBTF_CHECK_EQ(b.within_begin % 64, 0);
  DBTF_CHECK_EQ(b.word_begin, b.within_begin / 64);
  DBTF_CHECK_LT(b.within_begin, b.within_end);
  DBTF_CHECK_LE(b.within_end, shape.within);
  DBTF_CHECK_EQ(b.rows.cols(), b.width());
  DBTF_CHECK_EQ(b.rows.rows(), shape.rows);
  DBTF_CHECK_EQ(static_cast<std::int64_t>(b.row_nnz.size()), shape.rows);
}

/// Error contribution of one block for one row under one cache key: the
/// number of positions where the cached Boolean row summation differs from
/// the block's slice of X(n).
std::int64_t BlockError(const PartitionBlock& block, std::int64_t row,
                        std::uint64_t key, const CacheTable& cache,
                        MutableBitSpan scratch) {
  if (key == 0) {
    // Empty summation: the error is exactly the slice's non-zero count.
    return block.row_nnz[static_cast<std::size_t>(row)];
  }
  const std::int64_t wc = block.rows.words_per_row();
  const BitSpan sum = cache.Lookup(key, block.word_begin, wc, scratch);
  // Narrowing the summation to the block width makes the kernel mask the
  // cache row's live padding; the X slice's own padding is zero by the
  // BitMatrix invariant, so this equals the old explicit last_word_mask.
  return Kernels().xor_popcount(
      sum.Prefix(static_cast<std::size_t>(block.width())),
      block.rows.Row(row));
}

}  // namespace

void Worker::AdoptPartition(Mode mode, std::int64_t index, Partition partition,
                            const UnfoldShape& shape) {
  for (const PartitionBlock& block : partition.blocks) {
    CheckBlockInvariants(block, shape);
  }
  ModeState& st = state(mode);
  st.shape = shape;
  LocalPartition lp;
  lp.index = index;
  lp.data = std::move(partition);
  st.partitions.push_back(std::move(lp));
}

std::int64_t Worker::NumLocalPartitions(Mode mode) const {
  return static_cast<std::int64_t>(state(mode).partitions.size());
}

std::vector<std::int64_t> Worker::LocalPartitionIndexes(Mode mode) const {
  const ModeState& st = state(mode);
  std::vector<std::int64_t> indexes;
  indexes.reserve(st.partitions.size());
  for (const LocalPartition& lp : st.partitions) indexes.push_back(lp.index);
  return indexes;
}

Status Worker::ApplyMatrixDelta(const MatrixDelta& d) {
  DBTF_CHECK_LE(0, d.slot);
  DBTF_CHECK_LT(d.slot, 3);
  CachedFactor& cf = factors_[static_cast<std::size_t>(d.slot)];
  // Generations are globally unique, so equality means the resident copy is
  // byte-identical to what this delta produces: re-delivery (retry, recovery
  // rebroadcast) is a no-op.
  if (cf.valid && cf.generation == d.generation) return Status::OK();
  if (d.full) {
    if (d.dense.rows() != d.rows || d.dense.cols() != d.cols) {
      return Status::Internal("full factor payload does not match its shape");
    }
    cf.matrix = d.dense;
    cf.generation = d.generation;
    cf.valid = true;
    return Status::OK();
  }
  if (!cf.valid || cf.generation != d.base_generation) {
    return Status::FailedPrecondition(
        "column delta does not apply to the resident factor generation");
  }
  if (cf.matrix.rows() != d.rows || cf.matrix.cols() != d.cols) {
    return Status::FailedPrecondition(
        "column delta shape does not match the resident factor");
  }
  DBTF_CHECK_EQ(d.columns.size(), d.column_bits.size());
  const std::size_t words_per_column =
      static_cast<std::size_t>((d.rows + 63) / 64);
  for (std::size_t i = 0; i < d.columns.size(); ++i) {
    const std::int64_t c = d.columns[i];
    DBTF_CHECK_LE(0, c);
    DBTF_CHECK_LT(c, d.cols);
    const std::vector<BitWord>& bits = d.column_bits[i];
    DBTF_CHECK_EQ(bits.size(), words_per_column);
    const BitSpan column(bits.data(), static_cast<std::size_t>(d.rows));
    for (std::int64_t r = 0; r < d.rows; ++r) {
      cf.matrix.Set(r, c, column.Get(static_cast<std::size_t>(r)));
    }
  }
  cf.generation = d.generation;
  return Status::OK();
}

Status Worker::Handle(const FactorDelta& msg) {
  for (const MatrixDelta& d : msg.updates) {
    DBTF_RETURN_IF_ERROR(ApplyMatrixDelta(d));
  }
  // Serving-path broadcasts stop at the factor caches: no factor update
  // follows, so the M_f masks and M_s^T cache tables (which may target
  // slots that were never shipped) must not be touched.
  if (msg.apply_only) return Status::OK();

  ModeState& st = state(msg.mode);
  st.rows = msg.rows;
  DBTF_CHECK_LE(0, msg.mf_slot);
  DBTF_CHECK_LT(msg.mf_slot, 3);
  DBTF_CHECK_LE(0, msg.ms_slot);
  DBTF_CHECK_LT(msg.ms_slot, 3);
  const CachedFactor& mf = factors_[static_cast<std::size_t>(msg.mf_slot)];
  const CachedFactor& ms = factors_[static_cast<std::size_t>(msg.ms_slot)];
  if (!mf.valid || !ms.valid) {
    return Status::FailedPrecondition(
        "factor update before the operand factors were shipped");
  }
  st.rank = mf.matrix.cols();

  // Row masks of M_f, used to derive cache keys per block. Rebuilt only when
  // the resident M_f content actually moved.
  if (st.built_mf_generation != mf.generation) {
    st.mf_masks.resize(static_cast<std::size_t>(mf.matrix.rows()));
    for (std::int64_t q = 0; q < mf.matrix.rows(); ++q) {
      st.mf_masks[static_cast<std::size_t>(q)] = mf.matrix.RowMask64(q);
    }
    st.built_mf_generation = mf.generation;
  }

  // Cache tables of Boolean row summations of M_s^T (Algorithm 5). Rebuilt
  // when the resident M_s content or the cache parameters moved; freshly
  // adopted partitions (recovery hand-off) have no table yet and get one
  // even when the generation is unchanged.
  const bool rebuild_all = st.built_ms_generation != ms.generation ||
                           st.built_cache_group_size != msg.cache_group_size ||
                           st.built_caching != msg.enable_caching;
  BitMatrix ms_t;
  bool transposed = false;
  for (LocalPartition& lp : st.partitions) {
    if (!rebuild_all && lp.cache != nullptr) continue;
    if (!transposed) {
      ms_t = ms.matrix.Transpose();
      transposed = true;
    }
    DBTF_ASSIGN_OR_RETURN(
        CacheTable cache,
        CacheTable::Build(ms_t, msg.cache_group_size, msg.enable_caching));
    lp.cache = std::make_unique<CacheTable>(std::move(cache));
  }
  st.built_ms_generation = ms.generation;
  st.built_cache_group_size = msg.cache_group_size;
  st.built_caching = msg.enable_caching;

  // Cache-lookup scratch, (re)sized when stale.
  const std::size_t scratch_words =
      static_cast<std::size_t>((ms.matrix.rows() + 63) / 64);
  for (LocalPartition& lp : st.partitions) {
    if (lp.scratch.size() != scratch_words) {
      lp.scratch.assign(scratch_words, 0);
    }
  }
  return Status::OK();
}

Status Worker::Handle(const RunUpdateColumn& run,
                      const CollectErrorsRequest& req,
                      CollectErrorsResponse* response) {
  DBTF_CHECK(response != nullptr);
  ModeState& st = state(run.mode);
  if (req.mode != run.mode || req.rows != run.rows || run.rows != st.rows ||
      static_cast<std::int64_t>(run.row_masks.size()) != run.rows) {
    return Status::FailedPrecondition(
        "column exchange does not match the broadcast factor shape");
  }
  if (run.column < 0 || run.column >= st.rank) {
    return Status::InvalidArgument(
        "column index outside the resident factor rank");
  }
  *response = CollectErrorsResponse();
  response->diffs.assign(static_cast<std::size_t>(st.rows), 0);
  std::int64_t* diffs = response->diffs.data();
  const std::uint64_t* masks = run.row_masks.data();
  const std::uint64_t bit = std::uint64_t{1}
                            << static_cast<unsigned>(run.column);
  // Only the update's last column reports the all-zero error total: the
  // driver reads it there alone, and a resumed update always runs it.
  const bool final_column = run.column == st.rank - 1;
  for (LocalPartition& lp : st.partitions) {
    if (lp.cache == nullptr) {
      return Status::FailedPrecondition(
          "column exchange before the factor broadcast");
    }
    const CacheTable& cache = *lp.cache;
    const MutableBitSpan scr(lp.scratch.data(),
                             lp.scratch.size() * kBitsPerWord);
    std::int64_t base_error = 0;
    for (const PartitionBlock& block : lp.data.blocks) {
      const std::uint64_t fmask =
          st.mf_masks[static_cast<std::size_t>(block.block_index)];
      // A block whose M_f row lacks the candidate bit masks the candidate
      // out of every key: err1 == err0 for every row, so it adds nothing
      // to any diff and is visited only for the final column's base error.
      const bool candidate = (fmask & bit) != 0;
      if (!candidate && !final_column) continue;
      const std::uint64_t keep = fmask & ~bit;
      for (std::int64_t r = 0; r < st.rows; ++r) {
        const std::uint64_t k0 = masks[r] & keep;
        const std::int64_t e0 = BlockError(block, r, k0, cache, scr);
        if (candidate) {
          // Setting the entry adds M_f's PVM row to the summation.
          diffs[r] += BlockError(block, r, k0 | bit, cache, scr) - e0;
        }
        base_error += e0;
      }
    }
    if (final_column) response->base_error += base_error;
    if (req.want_stats) {
      response->cache_entries += cache.total_entries();
      response->cache_bytes += cache.memory_bytes();
    }
  }
  return Status::OK();
}

const BitMatrix& Worker::ServeTransposed(int slot) {
  DBTF_CHECK_LE(0, slot);
  DBTF_CHECK_LT(slot, 3);
  const CachedFactor& cf = factors_[static_cast<std::size_t>(slot)];
  DBTF_CHECK(cf.valid);
  ServeView& view = serve_views_[static_cast<std::size_t>(slot)];
  if (!view.valid || view.built_generation != cf.generation) {
    view.transposed = cf.matrix.Transpose();
    view.built_generation = cf.generation;
    view.valid = true;
  }
  return view.transposed;
}

Status Worker::Handle(const QueryRequest& msg, QueryResponse* response) {
  DBTF_CHECK(response != nullptr);
  for (const CachedFactor& cf : factors_) {
    if (!cf.valid) {
      return Status::FailedPrecondition(
          "query before the factors were broadcast");
    }
  }
  const BitMatrix& a = factors_[0].matrix;
  const BitMatrix& b = factors_[1].matrix;
  const BitMatrix& c = factors_[2].matrix;

  *response = QueryResponse();
  response->id = msg.id;
  response->generations = {factors_[0].generation, factors_[1].generation,
                           factors_[2].generation};

  switch (msg.kind) {
    case QueryKind::kMembership: {
      if (msg.i < 0 || msg.j < 0 || msg.k < 0 || msg.i >= a.rows() ||
          msg.j >= b.rows() || msg.k >= c.rows()) {
        return Status::InvalidArgument(
            "membership coordinates outside the factor shapes");
      }
      // A cell is covered by concept r iff all three factors set column r at
      // their coordinate; the rank fits one word (cols <= 64), so the
      // explain set is the AND of three row masks.
      response->explain_mask =
          a.RowMask64(msg.i) & b.RowMask64(msg.j) & c.RowMask64(msg.k);
      response->member = response->explain_mask != 0;
      return Status::OK();
    }
    case QueryKind::kFiber: {
      // The free mode's factor, read column-wise through the serve view, and
      // the row masks of the two fixed coordinates (cyclic mode order).
      const BitMatrix* free_factor = nullptr;
      std::uint64_t concepts = 0;
      switch (msg.mode) {
        case Mode::kOne:
          if (msg.j < 0 || msg.k < 0 || msg.j >= b.rows() || msg.k >= c.rows()) {
            return Status::InvalidArgument("fiber coordinates out of range");
          }
          concepts = b.RowMask64(msg.j) & c.RowMask64(msg.k);
          free_factor = &ServeTransposed(0);
          break;
        case Mode::kTwo:
          if (msg.k < 0 || msg.i < 0 || msg.k >= c.rows() || msg.i >= a.rows()) {
            return Status::InvalidArgument("fiber coordinates out of range");
          }
          concepts = c.RowMask64(msg.k) & a.RowMask64(msg.i);
          free_factor = &ServeTransposed(1);
          break;
        case Mode::kThree:
          if (msg.i < 0 || msg.j < 0 || msg.i >= a.rows() || msg.j >= b.rows()) {
            return Status::InvalidArgument("fiber coordinates out of range");
          }
          concepts = a.RowMask64(msg.i) & b.RowMask64(msg.j);
          free_factor = &ServeTransposed(2);
          break;
      }
      const std::int64_t len = free_factor->cols();
      response->fiber_len = len;
      response->fiber_bits.assign(
          WordsForBits(static_cast<std::size_t>(len)), 0);
      const MutableBitSpan fiber(response->fiber_bits.data(),
                                 static_cast<std::size_t>(len));
      // OR of the participating rank-1 columns: each set bit of `concepts`
      // contributes one whole transposed row through the kernel table.
      const BitSpan concept_span(&concepts, 64);
      ForEachSetBit(concept_span, [&](std::size_t r) {
        Kernels().or_into(fiber,
                          free_factor->Row(static_cast<std::int64_t>(r)));
      });
      return Status::OK();
    }
    case QueryKind::kTopConcepts: {
      const BitMatrix& scored = ServeTransposed(
          static_cast<int>(msg.mode) - 1);
      if (msg.top_r < 0) {
        return Status::InvalidArgument("top_r must be non-negative");
      }
      if (msg.slice_len != scored.cols() ||
          msg.slice_bits.size() !=
              WordsForBits(static_cast<std::size_t>(msg.slice_len))) {
        return Status::InvalidArgument(
            "query slice length does not match the factor dimension");
      }
      const BitSpan slice(msg.slice_bits.data(),
                          static_cast<std::size_t>(msg.slice_len));
      // Score every concept, then keep the best top_r: overlap descending,
      // concept index ascending on ties — a total order, so every replica
      // answers byte-identically.
      std::vector<std::pair<std::int64_t, std::int64_t>> ranked;
      ranked.reserve(static_cast<std::size_t>(scored.rows()));
      for (std::int64_t r = 0; r < scored.rows(); ++r) {
        ranked.emplace_back(Kernels().and_popcount(slice, scored.Row(r)), r);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& lhs, const auto& rhs) {
                  if (lhs.first != rhs.first) return lhs.first > rhs.first;
                  return lhs.second < rhs.second;
                });
      const std::size_t keep = std::min(ranked.size(),
                                        static_cast<std::size_t>(msg.top_r));
      response->concept_ids.reserve(keep);
      response->concept_scores.reserve(keep);
      for (std::size_t r = 0; r < keep; ++r) {
        response->concept_ids.push_back(ranked[r].second);
        response->concept_scores.push_back(ranked[r].first);
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

}  // namespace dbtf
