#include "tensor/bit_matrix.h"

#include <utility>

#include "common/check.h"
#include "common/serde.h"

namespace dbtf {

BitMatrix::BitMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_(
          static_cast<std::int64_t>(WordsForBits(static_cast<std::size_t>(cols)))) {
  DBTF_CHECK(rows >= 0 && cols >= 0, "BitMatrix shape must be non-negative");
  data_.assign(static_cast<std::size_t>(rows_ * words_per_row_), 0);
}

Result<BitMatrix> BitMatrix::Create(std::int64_t rows, std::int64_t cols) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("BitMatrix shape must be non-negative");
  }
  return BitMatrix(rows, cols);
}

BitMatrix BitMatrix::Random(std::int64_t rows, std::int64_t cols,
                            double density, Rng* rng) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (rng->NextBool(density)) m.Set(r, c, true);
    }
  }
  return m;
}

Result<BitMatrix> BitMatrix::FromStrings(const std::vector<std::string>& rows) {
  const std::int64_t nrows = static_cast<std::int64_t>(rows.size());
  const std::int64_t ncols =
      rows.empty() ? 0 : static_cast<std::int64_t>(rows[0].size());
  BitMatrix m(nrows, ncols);
  for (std::int64_t r = 0; r < nrows; ++r) {
    if (static_cast<std::int64_t>(rows[r].size()) != ncols) {
      return Status::InvalidArgument("FromStrings: ragged rows");
    }
    for (std::int64_t c = 0; c < ncols; ++c) {
      const char ch = rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
      if (ch == '1') {
        m.Set(r, c, true);
      } else if (ch != '0') {
        return Status::InvalidArgument("FromStrings: entries must be 0 or 1");
      }
    }
  }
  return m;
}

std::uint64_t BitMatrix::RowMask64(std::int64_t r) const {
  DBTF_CHECK(cols_ <= 64, "RowMask64 requires at most 64 columns");
  if (cols_ == 0) return 0;
  return RowData(r)[0];
}

void BitMatrix::SetRowMask64(std::int64_t r, std::uint64_t mask) {
  DBTF_CHECK(cols_ <= 64, "SetRowMask64 requires at most 64 columns");
  if (cols_ == 0) return;
  MutableRowData(r)[0] = mask & LowBitsMask(static_cast<std::size_t>(cols_));
}

std::int64_t BitMatrix::NumNonZeros() const {
  return Kernels().popcount(Words());
}

void BitMatrix::Clear() { std::fill(data_.begin(), data_.end(), BitWord{0}); }

BitMatrix BitMatrix::Transpose() const {
  BitMatrix t(cols_, rows_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    ForEachSetBit(Row(r), [&](std::size_t c) {
      t.Set(static_cast<std::int64_t>(c), r, true);
    });
  }
  return t;
}

std::int64_t BitMatrix::HammingDistance(const BitMatrix& other) const {
  DBTF_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
             "HammingDistance requires equal shapes");
  return Kernels().xor_popcount(Words(), other.Words());
}

bool BitMatrix::operator==(const BitMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         Kernels().equal(Words(), other.Words());
}

std::string BitMatrix::ToString() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(rows_ * (cols_ + 1)));
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t c = 0; c < cols_; ++c) out += Get(r, c) ? '1' : '0';
    if (r + 1 < rows_) out += '\n';
  }
  return out;
}

void BitMatrixCodec::Encode(ByteWriter* writer) const {
  const BitMatrix& m = matrix;
  writer->WriteI64(m.rows());
  writer->WriteI64(m.cols());
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    const BitWord* row = m.RowData(r);
    for (std::int64_t w = 0; w < m.words_per_row(); ++w) {
      writer->WriteU64(row[w]);
    }
  }
}

Status BitMatrixCodec::Decode(ByteReader* reader) {
  // The dimension cap keeps every size computation below inside u64; the
  // byte bound is a division because rows * words_per_row * 8 wraps u64 on
  // hostile shapes (fuzz_ckpt_manifest found a wild write through a matrix
  // sized by the wrapped product; the inputs are pinned under fuzz/crashes/).
  constexpr std::int64_t kMaxDim = std::int64_t{1} << 32;
  DBTF_ASSIGN_OR_RETURN(const std::int64_t rows, reader->ReadI64());
  DBTF_ASSIGN_OR_RETURN(const std::int64_t cols, reader->ReadI64());
  if (rows < 0 || cols < 0 || rows > kMaxDim || cols > kMaxDim) {
    return Status::IoError("bit matrix: shape out of range");
  }
  const std::uint64_t row_bytes =
      WordsForBits(static_cast<std::size_t>(cols)) * sizeof(BitWord);
  if (row_bytes > 0 &&
      static_cast<std::uint64_t>(rows) > reader->remaining() / row_bytes) {
    return Status::IoError("bit matrix: payload truncated");
  }
  DBTF_ASSIGN_OR_RETURN(BitMatrix m, BitMatrix::Create(rows, cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    BitWord* row = m.MutableRowData(r);
    for (std::int64_t w = 0; w < m.words_per_row(); ++w) {
      DBTF_ASSIGN_OR_RETURN(row[w], reader->ReadU64());
    }
    if (!TailPaddingZero(m.Row(r))) {
      return Status::IoError("bit matrix: padding bits set");
    }
  }
  matrix = std::move(m);
  return Status::OK();
}

}  // namespace dbtf
