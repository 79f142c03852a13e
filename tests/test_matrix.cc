/**
 * @file
 * Unit tests for Matrix<T> and BinaryMatrix.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "numeric/binary_matrix.hh"
#include "numeric/matrix.hh"

namespace phi
{
namespace
{

TEST(Matrix, ShapeAndInit)
{
    Matrix<int> m(3, 4, 7);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.size(), 12u);
    for (size_t r = 0; r < 3; ++r)
        for (size_t c = 0; c < 4; ++c)
            EXPECT_EQ(m.at(r, c), 7);
}

TEST(Matrix, RowPointersFollowPaddedStride)
{
    Matrix<int> m(2, 3, 0);
    m(1, 2) = 42;
    EXPECT_EQ(m.rowPtr(1)[2], 42);
    EXPECT_EQ(m.data()[1 * m.stride() + 2], 42);
}

TEST(Matrix, RowsAreAlignedAndPadded)
{
    Matrix<int32_t> m(3, 5);
    // Stride rounds the row to a whole 64-byte cache line...
    EXPECT_EQ(m.stride(), 16u);
    EXPECT_EQ(m.paddedCols(), m.stride());
    EXPECT_EQ(m.size(), 15u); // ...but logical size excludes padding.
    for (size_t r = 0; r < m.rows(); ++r) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(m.rowPtr(r)) %
                      kSimdAlign,
                  0u);
        // Padding is zero-initialised (the SIMD kernels rely on it).
        for (size_t c = m.cols(); c < m.stride(); ++c)
            EXPECT_EQ(m.rowPtr(r)[c], 0);
    }
    // An exact multiple of the line width needs no padding.
    EXPECT_EQ(Matrix<int32_t>(1, 32).stride(), 32u);
}

TEST(Matrix, FillAndEqualityIgnorePadding)
{
    Matrix<int16_t> a(2, 3);
    Matrix<int16_t> b(2, 3);
    a.fill(9);
    b.fill(9);
    EXPECT_TRUE(a == b);
    // Scribbling in padding must not break logical equality.
    a.rowPtr(0)[a.cols()] = 77;
    EXPECT_TRUE(a == b);
}

TEST(BinaryMatrix, RowWordsAreAlignedAndPadded)
{
    BinaryMatrix m(2, 130); // 3 logical words -> 8-word stride
    EXPECT_EQ(m.numWordsPerRow(), 3u);
    EXPECT_EQ(m.wordsStride(), 8u);
    m.set(1, 129, true);
    for (size_t r = 0; r < m.rows(); ++r) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(m.rowWords(r)) %
                      kSimdAlign,
                  0u);
        for (size_t w = m.numWordsPerRow(); w < m.wordsStride(); ++w)
            EXPECT_EQ(m.rowWords(r)[w], 0u);
    }
    EXPECT_TRUE(m.tailBitsClear());
}

TEST(Matrix, OutOfBoundsPanics)
{
    detail::setThrowOnError(true);
    Matrix<int> m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::logic_error);
    EXPECT_THROW(m.at(0, 2), std::logic_error);
    detail::setThrowOnError(false);
}

TEST(Matrix, EqualityAndFill)
{
    Matrix<int> a(2, 2, 1);
    Matrix<int> b(2, 2, 1);
    EXPECT_TRUE(a == b);
    b.fill(2);
    EXPECT_FALSE(a == b);
}

TEST(BinaryMatrix, SetGetRoundTrip)
{
    BinaryMatrix m(3, 130); // spans three words
    m.set(0, 0, true);
    m.set(1, 64, true);
    m.set(2, 129, true);
    EXPECT_TRUE(m.get(0, 0));
    EXPECT_TRUE(m.get(1, 64));
    EXPECT_TRUE(m.get(2, 129));
    EXPECT_FALSE(m.get(0, 1));
    m.set(0, 0, false);
    EXPECT_FALSE(m.get(0, 0));
}

TEST(BinaryMatrix, ExtractWithinWord)
{
    BinaryMatrix m(1, 64);
    m.set(0, 3, true);
    m.set(0, 5, true);
    EXPECT_EQ(m.extract(0, 2, 4), 0b1010ull);
}

TEST(BinaryMatrix, ExtractAcrossWordBoundary)
{
    BinaryMatrix m(1, 128);
    m.set(0, 62, true);
    m.set(0, 65, true);
    EXPECT_EQ(m.extract(0, 60, 8), (1ull << 2) | (1ull << 5));
}

TEST(BinaryMatrix, ExtractPastEdgeReadsZero)
{
    BinaryMatrix m(1, 20);
    m.set(0, 19, true);
    // Asking for 16 bits starting at 10: only 10 valid columns remain.
    uint64_t bits = m.extract(0, 10, 16);
    EXPECT_EQ(bits, 1ull << 9);
    EXPECT_EQ(m.extract(0, 25, 16), 0ull);
}

TEST(BinaryMatrix, DepositRoundTrip)
{
    BinaryMatrix m(2, 40);
    m.deposit(0, 10, 16, 0xBEEF);
    EXPECT_EQ(m.extract(0, 10, 16), 0xBEEFull);
    m.deposit(0, 10, 16, 0x0);
    EXPECT_EQ(m.extract(0, 10, 16), 0ull);
}

TEST(BinaryMatrix, DepositClipsAtEdge)
{
    BinaryMatrix m(1, 12);
    m.deposit(0, 8, 16, 0xFF);
    // Only columns 8..11 exist.
    EXPECT_EQ(m.popcountRow(0), 4u);
}

TEST(BinaryMatrix, DepositMatchesPerBitReference)
{
    // Every (start, len) on the middle row of a 130-column matrix:
    // word straddles at 64 and 128, clipping at the edge, and values
    // with garbage bits above len. The reference writes one bit at a
    // time with set(); the rows around the target must not change.
    Rng rng(41);
    const size_t cols = 130;
    BinaryMatrix m = BinaryMatrix::random(3, cols, 0.5, rng);
    BinaryMatrix ref = m;
    for (size_t start = 0; start < cols + 70; ++start) {
        for (int len = 1; len <= 64; ++len) {
            const uint64_t value = rng.next();
            m.deposit(1, start, len, value);
            for (int i = 0; i < len && start + i < cols; ++i)
                ref.set(1, start + static_cast<size_t>(i),
                        (value >> i) & 1);
            ASSERT_TRUE(m == ref) << "start=" << start << " len=" << len;
            ASSERT_TRUE(m.tailBitsClear())
                << "start=" << start << " len=" << len;
        }
    }
}

TEST(BinaryMatrix, PopcountAndDensity)
{
    BinaryMatrix m(2, 10);
    m.set(0, 1, true);
    m.set(0, 2, true);
    m.set(1, 9, true);
    EXPECT_EQ(m.popcountRow(0), 2u);
    EXPECT_EQ(m.popcountRow(1), 1u);
    EXPECT_EQ(m.popcount(), 3u);
    EXPECT_DOUBLE_EQ(m.density(), 3.0 / 20.0);
}

TEST(BinaryMatrix, DenseRoundTrip)
{
    Matrix<int> dense(2, 5, 0);
    dense(0, 0) = 1;
    dense(1, 4) = 1;
    BinaryMatrix bm = BinaryMatrix::fromDense(dense);
    EXPECT_TRUE(bm.get(0, 0));
    EXPECT_TRUE(bm.get(1, 4));
    EXPECT_EQ(bm.toDense(), dense);
}

TEST(BinaryMatrix, RandomDensityApproximatesTarget)
{
    Rng rng(5);
    BinaryMatrix m = BinaryMatrix::random(200, 200, 0.25, rng);
    EXPECT_NEAR(m.density(), 0.25, 0.02);
}

TEST(BinaryMatrix, EqualityOperator)
{
    Rng rng(6);
    BinaryMatrix a = BinaryMatrix::random(10, 30, 0.5, rng);
    BinaryMatrix b = a;
    EXPECT_TRUE(a == b);
    b.set(0, 0, !b.get(0, 0));
    EXPECT_FALSE(a == b);
}

class ExtractSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ExtractSweep, ExtractMatchesBitwiseRead)
{
    const int k = GetParam();
    Rng rng(100 + static_cast<uint64_t>(k));
    BinaryMatrix m = BinaryMatrix::random(4, 150, 0.4, rng);
    for (size_t r = 0; r < m.rows(); ++r) {
        for (size_t start = 0; start < m.cols(); start += 7) {
            uint64_t got = m.extract(r, start, k);
            for (int b = 0; b < k; ++b) {
                size_t c = start + static_cast<size_t>(b);
                bool expect = c < m.cols() && m.get(r, c);
                EXPECT_EQ(((got >> b) & 1) != 0, expect)
                    << "r=" << r << " start=" << start << " b=" << b;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ExtractSweep,
                         ::testing::Values(1, 4, 8, 16, 32, 64));

} // namespace
} // namespace phi
