/**
 * @file
 * Phi hierarchical sparsity decomposition (Sec. 3.1 of the paper).
 *
 * For every k-bit row-tile of the activation matrix, the assigner picks
 * the pattern minimising the Hamming distance. If the best pattern is no
 * better than the row's own popcount, no pattern is assigned and Level 2
 * holds the raw +1 bits; otherwise Level 1 records the pattern id and
 * Level 2 holds the bidirectional {+1, -1} correction so that
 * L1 + L2 == activation exactly.
 */

#ifndef PHI_CORE_DECOMPOSE_HH
#define PHI_CORE_DECOMPOSE_HH

#include <cstdint>
#include <vector>

#include "common/parallel.hh"
#include "core/pattern.hh"
#include "numeric/binary_matrix.hh"

namespace phi
{

namespace simd
{
struct Kernels;
} // namespace simd

/** One Level 2 correction element within a partition (col in [0, k)). */
struct L2Entry
{
    uint16_t col;
    int8_t sign; // +1 or -1
};

/** Result of assigning one row-tile to a pattern. */
struct RowAssignment
{
    uint16_t patternId = 0; // 0 = no pattern
    uint64_t posMask = 0;   // +1 correction positions
    uint64_t negMask = 0;   // -1 correction positions

    int nnzPos() const { return popcount64(posMask); }
    int nnzNeg() const { return popcount64(negMask); }
    int nnz() const { return nnzPos() + nnzNeg(); }
};

/**
 * The pattern matcher (Fig. 4a): assigns a row-tile to the pattern of
 * minimum Hamming distance. The one argmin of the codebase — the
 * serving decomposition, PAFT, the cluster metrics and the hardware
 * model (PatternMatcher) all delegate here.
 *
 * Stateless and allocation-free, so one assigner may be shared by any
 * number of threads. Distances come from the SIMD hammingScan kernel
 * of the chosen backend; the argmin over them is exact integer work,
 * so every backend yields the same assignment.
 */
class PatternAssigner
{
  public:
    explicit PatternAssigner(const PatternSet& ps,
                             SimdIsa isa = SimdIsa::Auto);

    /**
     * Best assignment for a k-bit row value. A pattern must beat the
     * row's own popcount strictly (a tie would add an L1 PWP
     * accumulation without reducing L2 work); among equally good
     * patterns the earliest wins.
     */
    RowAssignment assign(uint64_t row) const;

    const PatternSet& patternSet() const { return set; }

  private:
    PatternSet set;
    const simd::Kernels* kr;
};

/** Decomposition of one (M x k) activation partition. */
struct TileDecomposition
{
    size_t partition = 0;   // index along K
    int k = 16;

    /** Per-row pattern id (0 = none). */
    std::vector<uint16_t> patternIds;

    /** CSR layout of Level 2 entries: row r owns
     *  l2Entries[l2Offsets[r] .. l2Offsets[r+1]). */
    std::vector<uint32_t> l2Offsets;
    std::vector<L2Entry> l2Entries;

    size_t numRows() const { return patternIds.size(); }
    size_t l2Nnz() const { return l2Entries.size(); }

    /** Level 2 entries of row r as an index range. */
    std::pair<uint32_t, uint32_t>
    rowRange(size_t r) const
    {
        return {l2Offsets[r], l2Offsets[r + 1]};
    }
};

/** Full-layer decomposition: one tile per K partition. */
struct LayerDecomposition
{
    size_t m = 0;      // activation rows
    size_t kTotal = 0; // activation columns
    int k = 16;        // partition width

    std::vector<TileDecomposition> tiles;

    /**
     * Row-major serving index, derived from tiles by buildRowIndex():
     * rowPatternIds[r * tiles.size() + t] mirrors
     * tiles[t].patternIds[r], and rowL2Counts[r * tiles.size() + t]
     * is the row's Level 2 entry count in tile t (counts fit uint8_t
     * because a partition holds at most k <= 64 columns).
     *
     * The tile-major layout is what decomposition and serialization
     * produce, but the phiGemm hot loop walks one output row across
     * every tile — with tile-major storage that is tiles-many scattered
     * loads per row; with this index it is one contiguous line. Not
     * serialized: loaders rebuild it.
     */
    std::vector<uint16_t> rowPatternIds;
    std::vector<uint8_t> rowL2Counts;

    /**
     * Per-tile maxima, cached by buildRowIndex(): the largest pattern
     * id and Level 2 column each tile holds. The serving loops check
     * these against the PWP storage and weight matrix once per call
     * to prove every gather in-bounds; caching them here keeps that
     * proof O(tiles) instead of a full O(m + nnz) rescan per batch.
     */
    std::vector<uint16_t> tileMaxPatternId;
    std::vector<uint16_t> tileMaxL2Col;

    size_t numPartitions() const { return tiles.size(); }

    /** True when the row-major index matches the tile data shape. */
    bool
    hasRowIndex() const
    {
        return !tiles.empty() &&
               rowPatternIds.size() == m * tiles.size() &&
               rowL2Counts.size() == m * tiles.size();
    }

    /** True when the per-tile maxima are cached for every tile. */
    bool
    hasTileMaxima() const
    {
        return !tiles.empty() &&
               tileMaxPatternId.size() == tiles.size() &&
               tileMaxL2Col.size() == tiles.size();
    }

    /** (Re)build the row-major serving index from the tiles. */
    void buildRowIndex();

    /** Total Level 2 nonzeros across partitions. */
    size_t totalL2Nnz() const;

    /** Total assigned (nonzero) pattern ids. */
    size_t totalAssigned() const;
};

/**
 * Fill row-major pattern-id/L2-count arrays from a decomposition's
 * tile-major data — the one transpose shared by
 * LayerDecomposition::buildRowIndex and phiGemm's fallback for
 * hand-assembled decompositions. Fatal if any row-tile holds more
 * than k Level 2 entries (legit rows have at most k distinct
 * correction columns; more would also overflow the uint8_t counts).
 */
void buildRowIndexInto(const LayerDecomposition& dec,
                       std::vector<uint16_t>& rowIds,
                       std::vector<uint8_t>& rowCounts);

/**
 * Decompose one partition of the activation matrix. Rows are swept in
 * parallel over fixed-size chunks; per-chunk Level 2 buffers are
 * concatenated in chunk order, so the result is bit-identical at any
 * thread count. Each chunk memoises its row values: SNN activations
 * are heavily clustered, so most rows repeat a value already matched.
 */
TileDecomposition decomposeTile(const BinaryMatrix& acts, size_t partition,
                                const PatternAssigner& assigner,
                                const ExecutionConfig& exec = {});

/** Decompose a whole layer against its calibrated pattern table,
 *  matching on the exec.isa backend. */
LayerDecomposition decomposeLayer(const BinaryMatrix& acts,
                                  const PatternTable& table,
                                  const ExecutionConfig& exec = {});

/**
 * Rebuild the activation matrix from L1 + L2. The result must equal the
 * original activation bit-for-bit; tests enforce this invariant.
 */
BinaryMatrix reconstructActivations(const LayerDecomposition& dec,
                                    const PatternTable& table);

} // namespace phi

#endif // PHI_CORE_DECOMPOSE_HH
