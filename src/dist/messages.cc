#include "dist/messages.h"

#include <utility>

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

std::int64_t StorePartitionRequest::WireBytes() const {
  std::int64_t bytes = 0;
  for (const PartitionBlock& block : partition.blocks) {
    bytes += block.rows.rows() * block.rows.words_per_row() *
             static_cast<std::int64_t>(sizeof(BitWord));
  }
  return bytes;
}

}  // namespace dbtf
