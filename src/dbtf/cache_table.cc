#include "dbtf/cache_table.h"

#include <bit>
#include <cstring>

#include "common/bitspan.h"
#include "common/check.h"
#include "common/kernels/kernels.h"
#include "common/rank.h"

namespace dbtf {
namespace {

bool IsBuilt(const std::vector<BitWord>& built, std::uint64_t sub) {
  return BitSpan(built.data(), built.size() * kBitsPerWord).Get(sub);
}

void MarkBuilt(std::vector<BitWord>* built, std::uint64_t sub) {
  MutableBitSpan(built->data(), built->size() * kBitsPerWord).Set(sub, true);
}

}  // namespace

Result<CacheTable> CacheTable::Build(const BitMatrix& ms_t, int v,
                                     bool enabled) {
  if (ms_t.rows() > kMaxRank) {
    return Status::InvalidArgument("cache table rank must be <= 64");
  }
  if (v < 1 || v > 24) {
    return Status::InvalidArgument("cache group size V must be in [1, 24]");
  }

  CacheTable out;
  out.ms_t_ = ms_t;
  out.words_per_row_ = ms_t.words_per_row();
  out.enabled_ = enabled;
  out.rank_ = static_cast<int>(ms_t.rows());
  if (!enabled) return out;

  const int rank = out.rank_;
  const std::int64_t words = out.words_per_row_;
  for (int first = 0; first < rank; first += v) {
    Group g;
    g.first_row = first;
    g.size = std::min(v, rank - first);
    g.mask = LowBitsMask(static_cast<std::size_t>(g.size))
             << static_cast<unsigned>(first);
    const std::int64_t entries = std::int64_t{1} << g.size;
    // Storage is reserved but deliberately left uninitialized; entries are
    // materialized on first probe. Entry 0 (the empty summation) is always
    // live so the all-zero fast path never recurses.
    g.table = std::make_unique_for_overwrite<BitWord[]>(
        static_cast<std::size_t>(entries * words));
    g.built.assign(WordsForBits(static_cast<std::size_t>(entries)), 0);
    std::memset(g.table.get(), 0,
                static_cast<std::size_t>(words) * sizeof(BitWord));
    MarkBuilt(&g.built, 0);
    ++out.entries_built_;
    out.total_entries_ += entries;
    out.groups_.push_back(std::move(g));
  }
  return out;
}

const BitWord* CacheTable::Materialize(const Group& g,
                                       std::uint64_t sub) const {
  if (IsBuilt(g.built, sub)) return EntrySlot(g, sub);
  // Collect the chain of missing ancestors (each clears the lowest bit),
  // then build top-down: entry m = entry(m & (m-1)) OR one ms_t row.
  std::uint64_t chain[kMaxRank];
  int depth = 0;
  std::uint64_t cursor = sub;
  while (!IsBuilt(g.built, cursor)) {
    chain[depth++] = cursor;
    cursor &= cursor - 1;
  }
  auto* mutable_group = const_cast<Group*>(&g);
  for (int d = depth - 1; d >= 0; --d) {
    const std::uint64_t m = chain[d];
    const int bit = std::countr_zero(m);
    const std::size_t row_bits =
        static_cast<std::size_t>(words_per_row_) * kBitsPerWord;
    const BitSpan parent(EntrySlot(g, m & (m - 1)), row_bits);
    const BitSpan extra(ms_t_.RowData(g.first_row + bit), row_bits);
    Kernels().or_out(MutableBitSpan(EntrySlot(g, m), row_bits), parent, extra);
    MarkBuilt(&mutable_group->built, m);
    ++entries_built_;
  }
  return EntrySlot(g, sub);
}

BitSpan CacheTable::Lookup(std::uint64_t key, std::int64_t word_begin,
                           std::int64_t word_count,
                           MutableBitSpan scratch) const {
  // Lemmas 1-2: a key is an R-bit row-subset mask; bits at or above the rank
  // select rows that do not exist. Debug-only — Lookup is the hot path.
  DBTF_DCHECK(rank_ >= kMaxRank || (key >> rank_) == 0,
              "cache key has bits above rank %d", rank_);
  DBTF_DCHECK_LE(0, word_begin);
  DBTF_DCHECK_LE(word_begin + word_count, words_per_row_);
  DBTF_DCHECK_LE(static_cast<std::size_t>(word_count), scratch.words());
  if (!enabled_) {
    return ComputeUncached(key, word_begin, word_count, scratch);
  }

  // Find the groups whose key bits are non-zero.
  const Group* single = nullptr;
  int live_groups = 0;
  for (const Group& g : groups_) {
    if ((key & g.mask) != 0) {
      ++live_groups;
      single = &g;
    }
  }
  const std::size_t slice_bits =
      static_cast<std::size_t>(word_count) * kBitsPerWord;
  if (live_groups == 0) {
    // All-zero summation: entry 0 of any group is an all-zero row; with no
    // groups (rank 0) fall back to zeroing the scratch buffer.
    if (!groups_.empty()) {
      return BitSpan(EntrySlot(groups_.front(), 0) + word_begin, slice_bits);
    }
    std::memset(scratch.data(), 0,
                static_cast<std::size_t>(word_count) * sizeof(BitWord));
    return BitSpan(scratch.data(), slice_bits);
  }
  if (live_groups == 1) {
    const std::uint64_t sub =
        (key & single->mask) >> static_cast<unsigned>(single->first_row);
    return BitSpan(Materialize(*single, sub) + word_begin, slice_bits);
  }

  // Multi-group key: OR one entry per live group into the scratch buffer
  // (the additional summation cost Lemma 4 accounts for when R > V).
  const MutableBitSpan acc(scratch.data(), slice_bits);
  bool first = true;
  for (const Group& g : groups_) {
    const std::uint64_t sub =
        (key & g.mask) >> static_cast<unsigned>(g.first_row);
    if (sub == 0) continue;
    const BitWord* row = Materialize(g, sub) + word_begin;
    if (first) {
      std::memcpy(acc.data(), row,
                  static_cast<std::size_t>(word_count) * sizeof(BitWord));
      first = false;
    } else {
      Kernels().or_into(acc, BitSpan(row, slice_bits));
    }
  }
  return acc;
}

BitSpan CacheTable::ComputeUncached(std::uint64_t key,
                                    std::int64_t word_begin,
                                    std::int64_t word_count,
                                    MutableBitSpan scratch) const {
  std::memset(scratch.data(), 0,
              static_cast<std::size_t>(word_count) * sizeof(BitWord));
  const std::size_t slice_bits =
      static_cast<std::size_t>(word_count) * kBitsPerWord;
  const MutableBitSpan acc(scratch.data(), slice_bits);
  ForEachSetBit(BitSpan(&key, static_cast<std::size_t>(rank_)),
                [&](std::size_t r) {
    const BitWord* row = ms_t_.RowData(static_cast<std::int64_t>(r)) +
                         word_begin;
    Kernels().or_into(acc, BitSpan(row, slice_bits));
  });
  return acc;
}

}  // namespace dbtf
