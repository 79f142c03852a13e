/**
 * @file
 * Pattern-Weight Products (PWPs): the offline pre-computation of Level 1.
 *
 * PWP[p] = pattern_p x W_tile is computed once per (partition, pattern)
 * and retrieved at runtime instead of accumulating individual weight
 * rows. phiGemm() is the reference implementation of the full hierarchical
 * product and must equal the plain binary GEMM exactly.
 */

#ifndef PHI_CORE_PWP_HH
#define PHI_CORE_PWP_HH

#include <cstdint>

#include "common/aligned.hh"
#include "core/decompose.hh"
#include "core/pattern.hh"
#include "numeric/gemm.hh"
#include "numeric/matrix.hh"

namespace phi
{

/**
 * Storage width of PWP arena elements. PWP values are sums of at most
 * k (<= 64) int16 weights, so they always fit int32; when the actual
 * value range of a layer's PWPs fits a narrower type, storing them
 * quantized halves or quarters the bytes the serving loop moves —
 * losslessly, because the narrowing is exact by construction (the
 * arena builder range-checks every value and falls back to a wider
 * tier when any would not round-trip).
 *
 * Enumerator values are the on-disk encoding of the .phim layout
 * section; never renumber.
 */
enum class PwpTier : uint8_t
{
    Int32 = 0,
    Int16 = 1,
    Int8 = 2,
};

/** Bytes per arena element at a tier. */
constexpr size_t
pwpTierBytes(PwpTier tier)
{
    return tier == PwpTier::Int32 ? 4 : tier == PwpTier::Int16 ? 2 : 1;
}

/** Human-readable tier name ("int32"/"int16"/"int8"). */
const char* pwpTierName(PwpTier tier);

/**
 * Tiled contiguous PWP storage: every partition's PWP rows packed into
 * ONE aligned allocation, rows padded to whole cache lines at the
 * arena's element width. Partition p's pattern id (1-based) lives at
 * arena row rowBase()[p] + id - 1, so the serving kernel locates L1
 * rows with two loads instead of chasing per-partition Matrix objects
 * — and a quantized arena moves half or a quarter of the bytes.
 *
 * The requested tier is a ceiling, not a promise: the constructor
 * picks the narrowest tier at or above the request that represents
 * every PWP value exactly, so arena serving is always bit-identical to
 * the int32 reference. materialize() widens back to the exact int32
 * matrices for serialization.
 */
class PwpArena
{
  public:
    PwpArena() = default;

    /**
     * Pack per-partition PWP matrices (shape: patterns x n each) into
     * a contiguous arena. @p quant is the narrowest tier the caller
     * allows (Int32 = never quantize).
     */
    PwpArena(const std::vector<Matrix<int32_t>>& pwps, size_t n,
             PwpTier quant = PwpTier::Int32);

    PwpTier tier() const { return elemTier; }
    bool empty() const { return totalRows == 0; }
    size_t numPartitions() const
    {
        return base.empty() ? 0 : base.size() - 1;
    }
    size_t rows() const { return totalRows; }
    size_t cols() const { return logicalCols; }
    /** Elements per arena row (padded to whole cache lines). */
    size_t stride() const { return strideElems; }

    /** Per-partition first arena row; numPartitions()+1 entries. */
    const uint64_t* rowBase() const { return base.data(); }
    size_t rowsInPartition(size_t p) const
    {
        return base[p + 1] - base[p];
    }

    /** Typed arena base pointer; T must match tier(). */
    template <typename T>
    const T* data() const;

    /** Resident arena bytes (padding included). */
    size_t bytes() const
    {
        return totalRows * strideElems * pwpTierBytes(elemTier);
    }

    /** Widen back to exact per-partition int32 matrices (lossless by
     *  construction). */
    std::vector<Matrix<int32_t>> materialize() const;

  private:
    PwpTier elemTier = PwpTier::Int32;
    size_t logicalCols = 0;
    size_t strideElems = 0;
    size_t totalRows = 0;
    std::vector<uint64_t> base;
    // Exactly one of these is populated, matching elemTier; separate
    // typed buffers keep the accessors free of aliasing casts.
    AlignedVec<int32_t> data32;
    AlignedVec<int16_t> data16;
    AlignedVec<int8_t> data8;
};

template <>
inline const int32_t*
PwpArena::data<int32_t>() const
{
    return data32.data();
}

template <>
inline const int16_t*
PwpArena::data<int16_t>() const
{
    return data16.data();
}

template <>
inline const int8_t*
PwpArena::data<int8_t>() const
{
    return data8.data();
}

/**
 * Pre-compute PWPs for one partition: row i-1 of the result is
 * pattern (i) x W[kOffset .. kOffset+k). Patterns are swept in parallel
 * (each pattern owns its output row).
 *
 * @param ps       pattern set of the partition.
 * @param weights  full K x N weight matrix.
 * @param kOffset  first weight row covered by the partition.
 */
Matrix<int32_t> computePwp(const PatternSet& ps,
                           const Matrix<int16_t>& weights, size_t kOffset,
                           const ExecutionConfig& exec = {});

/** All partitions' PWPs for a layer, computed in parallel. */
std::vector<Matrix<int32_t>> computeLayerPwps(
    const PatternTable& table, const Matrix<int16_t>& weights,
    const ExecutionConfig& exec = {});

/**
 * Hierarchical product: for every partition, gather the assigned PWP row
 * (Level 1) and apply signed weight-row corrections (Level 2), reducing
 * over partitions. Must equal spikeGemm(acts, weights) exactly.
 *
 * The reference form of the offline path: it computes the layer's
 * PWPs, packs them into an int32 PwpArena and serves through
 * phiGemmWithArena.
 */
Matrix<int32_t> phiGemm(const LayerDecomposition& dec,
                        const PatternTable& table,
                        const Matrix<int16_t>& weights,
                        const ExecutionConfig& exec = {});

/**
 * Serve a decomposition from PWPs precomputed into a contiguous
 * PwpArena (any tier), writing into a caller-owned output matrix of
 * shape dec.m x weights.cols(). The offline form of the one gather
 * loop: each row's Level 1 ids and Level 2 corrections are read from
 * the decomposition's tiles, and the rows are swept in parallel in
 * natural order. Every row (padding included) is overwritten, so the
 * prior contents don't matter. Bit-identical to spikeGemm at every
 * tier and thread count.
 */
void phiGemmWithArenaInto(Matrix<int32_t>& out,
                          const LayerDecomposition& dec,
                          const PwpArena& arena,
                          const Matrix<int16_t>& weights,
                          const ExecutionConfig& exec = {});

/**
 * The fused serve kernel: match and gather in one pass over row
 * chunks, building no LayerDecomposition. Each (row, partition) takes
 * its RowAssignment from @p matcher, whose pattern bits are gathered
 * straight into the same loop phiGemmWithArenaInto runs. @p arena must
 * hold exactly the matcher's patterns per partition (PWPs of the same
 * pattern table); the output is overwritten and bit-identical to
 * spikeGemm(acts, weights).
 */
void phiServeInto(Matrix<int32_t>& out, const BinaryMatrix& acts,
                  const MatchTable& matcher, const PwpArena& arena,
                  const Matrix<int16_t>& weights,
                  const ExecutionConfig& exec = {});

/** Allocating wrapper over phiGemmWithArenaInto. */
Matrix<int32_t> phiGemmWithArena(const LayerDecomposition& dec,
                                 const PwpArena& arena,
                                 const Matrix<int16_t>& weights,
                                 const ExecutionConfig& exec = {});

/**
 * Bytes of PWP storage for a layer at the given output-tile width and
 * element size (paper: 16-bit PWP entries).
 */
size_t pwpBytes(const PatternTable& table, size_t n,
                size_t bytesPerElem = 2);

/**
 * Per-tier PWP footprint of a layer: bytes the same pattern table
 * would occupy stored at each arena tier (padding excluded — this is
 * the bytes-moved metric, not the resident-allocation metric).
 * Index with static_cast<size_t>(PwpTier).
 */
struct PwpTierFootprint
{
    size_t bytes[3] = {0, 0, 0};

    size_t at(PwpTier tier) const
    {
        return bytes[static_cast<size_t>(tier)];
    }
};

PwpTierFootprint pwpTierFootprint(const PatternTable& table, size_t n);

} // namespace phi

#endif // PHI_CORE_PWP_HH
