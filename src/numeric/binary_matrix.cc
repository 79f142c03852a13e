#include "numeric/binary_matrix.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "numeric/simd.hh"

namespace phi
{

namespace
{

/** Words per row rounded to a whole 64-byte cache line. */
size_t
paddedWordStride(size_t wordsPerRow)
{
    return roundUp(wordsPerRow, kSimdAlign / sizeof(uint64_t));
}

} // namespace

BinaryMatrix::BinaryMatrix(size_t rows, size_t cols)
    : nRows(rows), nCols(cols),
      wordsPerRow(ceilDiv(cols, static_cast<size_t>(64))),
      wordStride(paddedWordStride(wordsPerRow)),
      words(rows * wordStride, 0)
{
}

bool
BinaryMatrix::get(size_t r, size_t c) const
{
    phi_assert(r < nRows && c < nCols, "bit index (", r, ",", c,
               ") out of (", nRows, ",", nCols, ")");
    return (words[r * wordStride + c / 64] >> (c % 64)) & 1;
}

void
BinaryMatrix::set(size_t r, size_t c, bool v)
{
    phi_assert(r < nRows && c < nCols, "bit index (", r, ",", c,
               ") out of (", nRows, ",", nCols, ")");
    uint64_t& w = words[r * wordStride + c / 64];
    uint64_t mask = 1ull << (c % 64);
    if (v)
        w |= mask;
    else
        w &= ~mask;
}

uint64_t
BinaryMatrix::extract(size_t r, size_t start, int len) const
{
    phi_assert(r < nRows, "row ", r, " out of ", nRows);
    phi_assert(len >= 1 && len <= 64, "extract length must be in [1,64]");
    if (start >= nCols)
        return 0;

    const uint64_t* row = rowWords(r);
    size_t w0 = start / 64;
    int off = static_cast<int>(start % 64);
    uint64_t lo = row[w0] >> off;
    if (off != 0 && w0 + 1 < wordsPerRow)
        lo |= row[w0 + 1] << (64 - off);

    // Clip to both the requested length and the matrix edge.
    int avail = static_cast<int>(std::min<size_t>(len, nCols - start));
    return lo & lowMask(avail);
}

void
BinaryMatrix::deposit(size_t r, size_t start, int len, uint64_t value)
{
    phi_assert(r < nRows, "row ", r, " out of ", nRows);
    phi_assert(len >= 1 && len <= 64, "deposit length must be in [1,64]");
    if (start >= nCols)
        return;

    const int avail = static_cast<int>(std::min<size_t>(len, nCols - start));
    const uint64_t mask = lowMask(avail);
    const uint64_t bits = value & mask;
    uint64_t* row = words.data() + r * wordStride;
    const size_t w0 = start / 64;
    const int off = static_cast<int>(start % 64);
    row[w0] = (row[w0] & ~(mask << off)) | (bits << off);
    // A straddling deposit spills its high bits into the next word.
    if (off + avail > 64) {
        row[w0 + 1] = (row[w0 + 1] & ~(mask >> (64 - off))) |
                      (bits >> (64 - off));
    }
}

uint64_t
BinaryMatrix::tailMask() const
{
    const int rem = static_cast<int>(nCols % 64);
    return rem == 0 ? ~0ull : lowMask(rem);
}

bool
BinaryMatrix::tailBitsClear() const
{
    if (wordsPerRow == 0)
        return true;
    const uint64_t invalid = ~tailMask();
    for (size_t r = 0; r < nRows; ++r) {
        const uint64_t* row = rowWords(r);
        if (row[wordsPerRow - 1] & invalid)
            return false;
        for (size_t w = wordsPerRow; w < wordStride; ++w)
            if (row[w] != 0)
                return false;
    }
    return true;
}

size_t
BinaryMatrix::popcountRow(size_t r) const
{
    phi_assert(r < nRows, "row ", r, " out of ", nRows);
    // Padding words are zero, so counting the whole padded row is
    // branch-free and exact.
    return static_cast<size_t>(
        simd::kernels().popcountWords(rowWords(r), wordStride));
}

size_t
BinaryMatrix::popcount() const
{
    return static_cast<size_t>(
        simd::kernels().popcountWords(words.data(), words.size()));
}

double
BinaryMatrix::density() const
{
    if (nRows == 0 || nCols == 0)
        return 0.0;
    return static_cast<double>(popcount()) /
           static_cast<double>(nRows * nCols);
}

BinaryMatrix
BinaryMatrix::fromDense(const Matrix<int>& dense)
{
    BinaryMatrix m(dense.rows(), dense.cols());
    for (size_t r = 0; r < dense.rows(); ++r)
        for (size_t c = 0; c < dense.cols(); ++c)
            if (dense(r, c) != 0)
                m.set(r, c, true);
    return m;
}

Matrix<int>
BinaryMatrix::toDense() const
{
    Matrix<int> dense(nRows, nCols, 0);
    for (size_t r = 0; r < nRows; ++r)
        for (size_t c = 0; c < nCols; ++c)
            dense(r, c) = get(r, c) ? 1 : 0;
    return dense;
}

BinaryMatrix
BinaryMatrix::random(size_t rows, size_t cols, double density, Rng& rng)
{
    BinaryMatrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (rng.bernoulli(density))
                m.set(r, c, true);
    return m;
}

} // namespace phi
