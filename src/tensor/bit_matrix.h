#ifndef DBTF_TENSOR_BIT_MATRIX_H_
#define DBTF_TENSOR_BIT_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/bitspan.h"
#include "common/kernels/kernels.h"
#include "common/random.h"
#include "common/status.h"

namespace dbtf {

class ByteReader;
class ByteWriter;

/// Dense binary matrix with bit-packed rows (64 entries per word, row-major).
///
/// This is the workhorse representation for Boolean factor matrices and for
/// slices of unfolded tensors: Boolean summation of rows is a word-wise OR
/// and the Boolean reconstruction error between two rows is popcount(xor).
///
/// Rows are padded to whole words; padding bits are always kept zero so that
/// whole-row word operations (OR, XOR+popcount) need no masking.
class BitMatrix {
 public:
  /// Empty 0x0 matrix.
  BitMatrix() : rows_(0), cols_(0), words_per_row_(0) {}

  /// All-zero matrix of the given shape. Shape is a programmer-provided
  /// contract; negative values abort. Use Create() for untrusted input.
  BitMatrix(std::int64_t rows, std::int64_t cols);

  /// Validating factory for untrusted shapes.
  static Result<BitMatrix> Create(std::int64_t rows, std::int64_t cols);

  /// Matrix with independent Bernoulli(density) entries.
  static BitMatrix Random(std::int64_t rows, std::int64_t cols, double density,
                          Rng* rng);

  /// Builds a matrix from rows of '0'/'1' characters, e.g. {"010", "111"}.
  /// All strings must have equal length.
  static Result<BitMatrix> FromStrings(const std::vector<std::string>& rows);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t words_per_row() const { return words_per_row_; }

  bool Get(std::int64_t r, std::int64_t c) const {
    return (RowData(r)[WordIndex(c)] & BitMask(c)) != 0;
  }

  void Set(std::int64_t r, std::int64_t c, bool value) {
    if (value) {
      MutableRowData(r)[WordIndex(c)] |= BitMask(c);
    } else {
      MutableRowData(r)[WordIndex(c)] &= ~BitMask(c);
    }
  }

  /// Pointer to the packed words of row r. Serialization-layer accessor;
  /// compute call sites should take Row()/MutableRow() views instead.
  const BitWord* RowData(std::int64_t r) const {
    return data_.data() + r * words_per_row_;
  }
  BitWord* MutableRowData(std::int64_t r) {
    return data_.data() + r * words_per_row_;
  }

  /// Row r as a span of cols() logical bits (padding masked by kernels).
  BitSpan Row(std::int64_t r) const {
    return BitSpan(RowData(r), static_cast<std::size_t>(cols_));
  }
  MutableBitSpan MutableRow(std::int64_t r) {
    return MutableBitSpan(MutableRowData(r), static_cast<std::size_t>(cols_));
  }

  /// The whole packed storage as one word-aligned span (rows * words_per_row
  /// words). Padding bits are zero by invariant, so whole-matrix counts over
  /// this view equal counts over the logical entries.
  BitSpan Words() const {
    return BitSpan(data_.data(), data_.size() * kBitsPerWord);
  }

  /// Row r as a 64-bit mask. Requires cols() <= 64; used for factor-matrix
  /// rows, which are the cache keys of the DBTF algorithm (rank <= 64).
  std::uint64_t RowMask64(std::int64_t r) const;

  /// Overwrites row r from a 64-bit mask. Requires cols() <= 64.
  void SetRowMask64(std::int64_t r, std::uint64_t mask);

  /// Number of ones in the whole matrix.
  std::int64_t NumNonZeros() const;

  /// Number of ones in row r.
  std::int64_t RowNnz(std::int64_t r) const { return Kernels().popcount(Row(r)); }

  /// Sets every entry to zero.
  void Clear();

  /// Transposed copy.
  BitMatrix Transpose() const;

  /// Number of positions where this and other differ. Shapes must match.
  std::int64_t HammingDistance(const BitMatrix& other) const;

  bool operator==(const BitMatrix& other) const;
  bool operator!=(const BitMatrix& other) const { return !(*this == other); }

  /// Rows of '0'/'1' characters joined by newlines (debug aid).
  std::string ToString() const;

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t words_per_row_;
  std::vector<BitWord> data_;
};

/// The one byte codec of a BitMatrix, a field codec (common/fields.h):
/// rows and cols as i64, then every row's words as u64. Decoding fails with
/// kIoError on a shape outside [0, 2^32], a payload shorter than the shape
/// needs, or a set padding bit.
struct BitMatrixCodec {
  static constexpr std::size_t kMembers = 1;
  BitMatrix& matrix;
  void Encode(ByteWriter* writer) const;
  Status Decode(ByteReader* reader);
};

inline BitMatrixCodec CodecFor(BitMatrix& matrix) { return {matrix}; }

}  // namespace dbtf

#endif  // DBTF_TENSOR_BIT_MATRIX_H_
