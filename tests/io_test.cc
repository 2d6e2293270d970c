#include "tensor/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "test_util.h"

namespace dbtf {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TensorIo, RoundTrip) {
  const SparseTensor t = dbtf::testing::RandomTensor(10, 12, 14, 0.1, 5);
  const std::string path = TempPath("tensor_roundtrip.txt");
  ASSERT_TRUE(WriteTensorText(t, path).ok());
  auto back = ReadTensorText(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, t);
  EXPECT_EQ(back->dim_i(), 10);
  EXPECT_EQ(back->dim_j(), 12);
  EXPECT_EQ(back->dim_k(), 14);
  std::remove(path.c_str());
}

TEST(TensorIo, EmptyTensorRoundTrip) {
  auto t = SparseTensor::Create(3, 3, 3);
  ASSERT_TRUE(t.ok());
  const std::string path = TempPath("tensor_empty.txt");
  ASSERT_TRUE(WriteTensorText(*t, path).ok());
  auto back = ReadTensorText(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumNonZeros(), 0);
  EXPECT_EQ(back->dim_i(), 3);
  std::remove(path.c_str());
}

TEST(TensorIo, HeaderlessInfersDimensions) {
  const std::string path = TempPath("tensor_headerless.txt");
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "0 1 2\n";
    out << "4 0 0\n";
  }
  auto t = ReadTensorText(path);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->dim_i(), 5);
  EXPECT_EQ(t->dim_j(), 2);
  EXPECT_EQ(t->dim_k(), 3);
  EXPECT_EQ(t->NumNonZeros(), 2);
  EXPECT_TRUE(t->Contains(0, 1, 2));
  std::remove(path.c_str());
}

TEST(TensorIo, MissingFileFails) {
  auto t = ReadTensorText(TempPath("does_not_exist.txt"));
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIoError);
}

TEST(TensorIo, MalformedLineFails) {
  const std::string path = TempPath("tensor_malformed.txt");
  {
    std::ofstream out(path);
    out << "1 2\n";
  }
  EXPECT_FALSE(ReadTensorText(path).ok());
  std::remove(path.c_str());
}

TEST(TensorIo, NegativeCoordinateFails) {
  const std::string path = TempPath("tensor_negative.txt");
  {
    std::ofstream out(path);
    out << "0 0 0\n";
    out << "-1 0 0\n";
  }
  EXPECT_FALSE(ReadTensorText(path).ok());
  std::remove(path.c_str());
}

TEST(TensorIo, CoordinatePast32BitsFails) {
  // Each coordinate would wrap to 0 if narrowed to 32 bits; with and
  // without a header the reader must reject it instead of reading a cell.
  for (const char* text : {"10 10 10 1\n4294967296 0 0\n",
                           "0 4294967296 0\n", "0 0 4294967295\n"}) {
    std::istringstream in(text);
    EXPECT_EQ(ParseTensorText(in, "text").status().code(),
              StatusCode::kIoError)
        << text;
  }
  std::istringstream in("4294967294 0 0\n");
  auto t = ParseTensorText(in, "text");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->dim_i(), 4294967295);
}

TEST(MatrixIo, RoundTrip) {
  auto m = BitMatrix::FromStrings({"0101", "1110", "0000"});
  ASSERT_TRUE(m.ok());
  const std::string path = TempPath("matrix_roundtrip.txt");
  ASSERT_TRUE(WriteMatrixText(*m, path).ok());
  auto back = ReadMatrixText(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, *m);
  std::remove(path.c_str());
}

TEST(MatrixIo, WideMatrixRoundTrip) {
  Rng rng(7);
  const BitMatrix m = BitMatrix::Random(5, 130, 0.3, &rng);
  const std::string path = TempPath("matrix_wide.txt");
  ASSERT_TRUE(WriteMatrixText(m, path).ok());
  auto back = ReadMatrixText(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
  std::remove(path.c_str());
}

TEST(MatrixIo, TruncatedRowFails) {
  const std::string path = TempPath("matrix_truncated.txt");
  {
    std::ofstream out(path);
    out << "2 4\n";
    out << "0101\n";
    out << "01\n";
  }
  EXPECT_FALSE(ReadMatrixText(path).ok());
  std::remove(path.c_str());
}

TEST(MatrixIo, BadCharacterFails) {
  const std::string path = TempPath("matrix_badchar.txt");
  {
    std::ofstream out(path);
    out << "1 3\n";
    out << "0x1\n";
  }
  EXPECT_FALSE(ReadMatrixText(path).ok());
  std::remove(path.c_str());
}

TEST(MatrixIo, HeaderClaimingMoreRowsThanTheFileHoldsFails) {
  // 16 bytes whose header asks for a 32 GB matrix: rejected before the
  // reader allocates the shape.
  const std::string path = TempPath("matrix_huge_header.txt");
  {
    std::ofstream out(path);
    out << "4000000000 64\n0\n";
  }
  EXPECT_EQ(ReadMatrixText(path).status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
  for (const char* text : {"3 2\n01\n10\n", "1 4294967296\n0\n",
                           "4294967297 0\n"}) {
    std::istringstream in(text);
    EXPECT_EQ(ParseMatrixText(in, "text").status().code(),
              StatusCode::kIoError)
        << text;
  }
}

TEST(MatrixIo, HeaderOnlyMatrixWithoutNewlineParses) {
  std::istringstream in("0 5");
  auto m = ParseMatrixText(in, "text");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows(), 0);
  EXPECT_EQ(m->cols(), 5);
}

TEST(MatrixIo, MissingFileFails) {
  EXPECT_FALSE(ReadMatrixText(TempPath("nope_matrix.txt")).ok());
}

}  // namespace
}  // namespace dbtf
