#ifndef DBTF_TENSOR_IO_H_
#define DBTF_TENSOR_IO_H_

#include <istream>
#include <string>

#include "common/status.h"
#include "tensor/bit_matrix.h"
#include "tensor/sparse_tensor.h"

namespace dbtf {

/// Writes a tensor as text: a header line "i j k nnz" followed by one
/// "i j k" line per non-zero (0-based coordinates).
Status WriteTensorText(const SparseTensor& tensor, const std::string& path);

/// Reads a tensor written by WriteTensorText. Also accepts header-less files
/// of "i j k" lines, inferring dimensions as max coordinate + 1. A
/// coordinate that does not fit a 32-bit dimension is kIoError.
Result<SparseTensor> ReadTensorText(const std::string& path);

/// ReadTensorText over an open stream; `source` names it in error messages.
Result<SparseTensor> ParseTensorText(std::istream& in,
                                     const std::string& source);

/// Writes a binary factor matrix as text: "rows cols" then one 0/1 row of
/// characters per line.
Status WriteMatrixText(const BitMatrix& matrix, const std::string& path);

/// Reads a matrix written by WriteMatrixText. A header claiming more rows
/// than the file holds is kIoError, found before the shape is allocated.
Result<BitMatrix> ReadMatrixText(const std::string& path);

/// ReadMatrixText over an open stream; `source` names it in error messages.
Result<BitMatrix> ParseMatrixText(std::istream& in, const std::string& source);

}  // namespace dbtf

#endif  // DBTF_TENSOR_IO_H_
