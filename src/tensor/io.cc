#include "tensor/io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

namespace dbtf {

Status WriteTensorText(const SparseTensor& tensor, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << tensor.dim_i() << ' ' << tensor.dim_j() << ' ' << tensor.dim_k()
      << ' ' << tensor.NumNonZeros() << '\n';
  for (const Coord& c : tensor.entries()) {
    out << c.i << ' ' << c.j << ' ' << c.k << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<SparseTensor> ReadTensorText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return ParseTensorText(in, path);
}

Result<SparseTensor> ParseTensorText(std::istream& in,
                                     const std::string& source) {
  // Coordinates are stored as 32 bits and a dimension is coordinate + 1, so
  // anything from here up would wrap.
  constexpr long long kCoordLimit = std::numeric_limits<std::uint32_t>::max();
  std::vector<Coord> coords;
  std::int64_t dim_i = 0;
  std::int64_t dim_j = 0;
  std::int64_t dim_k = 0;
  bool have_header = false;

  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    long long a = 0;
    long long b = 0;
    long long c = 0;
    long long d = 0;
    ls >> a >> b >> c;
    if (!ls) return Status::IoError("malformed line in " + source);
    if (first && (ls >> d)) {
      // Four numbers on the first line: "I J K nnz" header.
      have_header = true;
      dim_i = a;
      dim_j = b;
      dim_k = c;
      first = false;
      continue;
    }
    first = false;
    if (a < 0 || b < 0 || c < 0) {
      return Status::IoError("negative coordinate in " + source);
    }
    if (a >= kCoordLimit || b >= kCoordLimit || c >= kCoordLimit) {
      return Status::IoError("coordinate does not fit 32 bits in " + source);
    }
    coords.push_back(Coord{static_cast<std::uint32_t>(a),
                           static_cast<std::uint32_t>(b),
                           static_cast<std::uint32_t>(c)});
    if (!have_header) {
      dim_i = std::max<std::int64_t>(dim_i, a + 1);
      dim_j = std::max<std::int64_t>(dim_j, b + 1);
      dim_k = std::max<std::int64_t>(dim_k, c + 1);
    }
  }

  DBTF_ASSIGN_OR_RETURN(SparseTensor tensor,
                        SparseTensor::Create(dim_i, dim_j, dim_k));
  tensor.Reserve(static_cast<std::int64_t>(coords.size()));
  for (const Coord& c : coords) {
    DBTF_RETURN_IF_ERROR(tensor.Add(c.i, c.j, c.k));
  }
  tensor.SortAndDedup();
  return tensor;
}

Status WriteMatrixText(const BitMatrix& matrix, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << matrix.rows() << ' ' << matrix.cols() << '\n';
  for (std::int64_t r = 0; r < matrix.rows(); ++r) {
    for (std::int64_t c = 0; c < matrix.cols(); ++c) {
      out << (matrix.Get(r, c) ? '1' : '0');
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<BitMatrix> ReadMatrixText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return ParseMatrixText(in, path);
}

Result<BitMatrix> ParseMatrixText(std::istream& in, const std::string& source) {
  // Each side stays within 2^32, as in BitMatrixCodec, so the shape's size
  // computations fit 64 bits.
  constexpr std::int64_t kMaxDim = std::int64_t{1} << 32;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  in >> rows >> cols;
  if (!in || rows < 0 || cols < 0 || rows > kMaxDim || cols > kMaxDim) {
    return Status::IoError("malformed matrix header in " + source);
  }
  std::string line;
  std::getline(in, line);  // Consume the rest of the header line.
  // Every row is read before the matrix is allocated, so a header claiming
  // more rows than the input holds fails here instead of sizing a buffer.
  std::vector<std::string> lines;
  for (std::int64_t r = 0; r < rows; ++r) {
    if (!std::getline(in, line) ||
        static_cast<std::int64_t>(line.size()) < cols) {
      return Status::IoError("truncated matrix row in " + source);
    }
    lines.push_back(std::move(line));
  }
  DBTF_ASSIGN_OR_RETURN(BitMatrix m, BitMatrix::Create(rows, cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::string& row = lines[static_cast<std::size_t>(r)];
    for (std::int64_t c = 0; c < cols; ++c) {
      const char bit = row[static_cast<std::size_t>(c)];
      if (bit == '1') {
        m.Set(r, c, true);
      } else if (bit != '0') {
        return Status::IoError("matrix entries must be 0/1 in " + source);
      }
    }
  }
  return m;
}

}  // namespace dbtf
