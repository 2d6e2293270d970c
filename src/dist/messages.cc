#include "dist/messages.h"

#include <utility>

#include "common/serde.h"

namespace dbtf {

MatrixDelta MatrixDelta::Full(int slot, std::uint64_t generation,
                              BitMatrix matrix) {
  MatrixDelta d;
  d.slot = slot;
  d.generation = generation;
  d.full = true;
  d.rows = matrix.rows();
  d.cols = matrix.cols();
  d.dense = std::move(matrix);
  return d;
}

std::int64_t MatrixDelta::WireBytes() const {
  if (full) {
    return rows * ((cols + 63) / 64) *
           static_cast<std::int64_t>(sizeof(BitWord));
  }
  // Per changed column: an 8-byte column index plus the packed column bits.
  const std::int64_t words_per_column = (rows + 63) / 64;
  return static_cast<std::int64_t>(columns.size()) *
         (static_cast<std::int64_t>(sizeof(std::int64_t)) +
          words_per_column * static_cast<std::int64_t>(sizeof(BitWord)));
}

std::int64_t FactorDelta::WireBytes() const {
  std::int64_t bytes = 0;
  for (const MatrixDelta& d : updates) bytes += d.WireBytes();
  return bytes;
}

void CollectErrorsResponse::MergeFrom(const CollectErrorsResponse& other) {
  if (diffs.size() < other.diffs.size()) diffs.resize(other.diffs.size(), 0);
  for (std::size_t r = 0; r < other.diffs.size(); ++r) {
    diffs[r] += other.diffs[r];
  }
  base_error += other.base_error;
  cache_entries += other.cache_entries;
  cache_bytes += other.cache_bytes;
}

std::int64_t CollectErrorsResponse::WireBytes() const {
  // Row count, diff-block length, the block of zigzag varints, then the
  // three zigzag scalars — the layout of EncodeCollectErrorsResponse.
  std::uint64_t block = 0;
  for (const std::int64_t d : diffs) block += VarintBytes(ZigZagEncode(d));
  return VarintBytes(diffs.size()) + VarintBytes(block) +
         static_cast<std::int64_t>(block) +
         VarintBytes(ZigZagEncode(base_error)) +
         VarintBytes(ZigZagEncode(cache_entries)) +
         VarintBytes(ZigZagEncode(cache_bytes));
}

std::int64_t StorePartitionRequest::WireBytes() const {
  std::int64_t bytes = 0;
  for (const PartitionBlock& block : partition.blocks) {
    bytes += block.rows.rows() * block.rows.words_per_row() *
             static_cast<std::int64_t>(sizeof(BitWord));
  }
  return bytes;
}

std::int64_t QueryRequest::WireBytes() const {
  // kind + id + mode + three coordinates + top_r + slice length prefix,
  // plus the packed slice words.
  return 1 + 8 + 1 + 3 * 8 + 8 + 8 +
         static_cast<std::int64_t>(slice_bits.size()) *
             static_cast<std::int64_t>(sizeof(BitWord));
}

std::int64_t QueryResponse::WireBytes() const {
  // id + member + explain mask + fiber length prefix + two ranked-list
  // length prefixes + the three generations, plus the variable payloads.
  return 8 + 1 + 8 + 8 + 8 + 8 + 3 * 8 +
         static_cast<std::int64_t>(fiber_bits.size()) *
             static_cast<std::int64_t>(sizeof(BitWord)) +
         static_cast<std::int64_t>(concept_ids.size()) * 8 +
         static_cast<std::int64_t>(concept_scores.size()) * 8;
}

}  // namespace dbtf
