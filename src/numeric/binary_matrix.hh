/**
 * @file
 * Bit-packed binary matrix representing SNN spike activations.
 *
 * Rows are packed into 64-bit words. The K dimension is partitioned into
 * tiles of k bits (k <= 64) for pattern matching, so the container offers
 * fast extraction of an arbitrary k-bit field of a row as a single word.
 *
 * Like Matrix, storage is SIMD-ready: each row's words start on a
 * 64-byte boundary and are padded to a whole cache line. Padding words
 * (and the bits of the last logical word beyond cols()) are always
 * zero, so word-parallel loops may consume whole padded rows without
 * per-bit column checks.
 */

#ifndef PHI_NUMERIC_BINARY_MATRIX_HH
#define PHI_NUMERIC_BINARY_MATRIX_HH

#include <cstdint>
#include <vector>

#include "common/aligned.hh"
#include "numeric/matrix.hh"

namespace phi
{

class Rng;

/** Dense 0/1 matrix packed 64 elements per word, row-major. */
class BinaryMatrix
{
  public:
    BinaryMatrix() : nRows(0), nCols(0), wordsPerRow(0), wordStride(0)
    {
    }

    /** Create an all-zero matrix of the given shape. */
    BinaryMatrix(size_t rows, size_t cols);

    size_t rows() const { return nRows; }
    size_t cols() const { return nCols; }

    /** Read bit (r, c). */
    bool get(size_t r, size_t c) const;

    /** Write bit (r, c). */
    void set(size_t r, size_t c, bool v);

    /**
     * Extract len bits (len in [1, 64]) of row r starting at column
     * start, packed with the element at 'start' in bit 0. Bits past the
     * matrix edge read as zero, which makes ragged final tiles behave as
     * zero-padded.
     */
    uint64_t extract(size_t r, size_t start, int len) const;

    /**
     * Deposit the low len bits (len in [1, 64]) of value at (r,
     * start..start+len), leaving every other bit of the row as it was.
     * Bits of value above len are ignored, and columns past the matrix
     * edge are clipped, so the tail bits stay clear for any input. One
     * masked read-modify-write of at most two words.
     */
    void deposit(size_t r, size_t start, int len, uint64_t value);

    /** Number of set bits in row r. */
    size_t popcountRow(size_t r) const;

    /** Number of set bits in the whole matrix. */
    size_t popcount() const;

    /** Fraction of one bits. */
    double density() const;

    /** 64-byte-aligned per-row word storage, for hot loops. */
    const uint64_t* rowWords(size_t r) const
    {
        return words.data() + r * wordStride;
    }

    /** Words holding logical bits per row (excludes padding words). */
    size_t numWordsPerRow() const { return wordsPerRow; }

    /**
     * Words between consecutive row starts (a multiple of 8, one
     * cache line). Words in [numWordsPerRow(), wordsStride()) of every
     * row are always zero, so whole-stride word loops see no phantom
     * bits.
     */
    size_t wordsStride() const { return wordStride; }

    /**
     * Mask of the valid bits in the last word of a row (all ones when
     * cols() is a multiple of 64). Invariant: bits of the last word
     * outside this mask are always zero — every mutator clips to
     * cols() — so hot loops may consume whole words without a per-bit
     * column check.
     */
    uint64_t tailMask() const;

    /** Verify the tail-bit and padding-word invariants everywhere. */
    bool tailBitsClear() const;

    bool operator==(const BinaryMatrix& o) const
    {
        // Same shape implies same stride, and padding is always zero,
        // so whole-buffer equality equals logical equality.
        return nRows == o.nRows && nCols == o.nCols && words == o.words;
    }

    /** Build from a dense 0/1 integer matrix. */
    static BinaryMatrix fromDense(const Matrix<int>& dense);

    /** Convert to a dense 0/1 integer matrix. */
    Matrix<int> toDense() const;

    /** iid Bernoulli(density) random matrix. */
    static BinaryMatrix random(size_t rows, size_t cols, double density,
                               Rng& rng);

  private:
    size_t nRows;
    size_t nCols;
    size_t wordsPerRow;
    size_t wordStride;
    AlignedVec<uint64_t> words;
};

} // namespace phi

#endif // PHI_NUMERIC_BINARY_MATRIX_HH
