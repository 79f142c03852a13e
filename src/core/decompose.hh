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
 *
 * The serve path never stores a decomposition: MatchTable caches the
 * assigner's answers and the fused kernel (phiServeInto) gathers from
 * them directly. LayerDecomposition is the offline representation.
 */

#ifndef PHI_CORE_DECOMPOSE_HH
#define PHI_CORE_DECOMPOSE_HH

#include <atomic>
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
 * serving decomposition, the serve kernel's MatchTable, PAFT and the
 * cluster metrics all delegate here.
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

/**
 * The serve path's matcher: per partition, a lazily filled table from
 * a k-bit tile value to the pattern id PatternAssigner::assign picks
 * for it, so a warm lookup is one byte load.
 *
 * A slot holds id + 1; 0 means "not matched yet". The table therefore
 * needs no initialisation: it is taken zero-filled from one anonymous
 * mapping, and pages that serving never writes stay non-resident. A
 * slot's value depends only on (partition, bits), so racing fills store
 * the same byte; relaxed std::atomic_ref accesses keep the race
 * defined. Assignment is exact integer work on every backend, so the
 * table does not depend on the ISA.
 *
 * Slots are ordered by popcount, then by colex rank among values of
 * that popcount, rather than by value. Spike tiles are sparse, so the
 * values traffic hits share a few pages per partition instead of
 * touching all sixteen: fewer page faults on a cold table, less
 * resident memory and fewer TLB misses on a warm one.
 *
 * Tables exist only while 2^k slots per partition stay small
 * (k <= kMaxTableK) and every id + 1 fits a byte (q <= kMaxTablePatterns);
 * otherwise each lookup calls assign inline.
 *
 * Construction checks what makes the fused serve kernel's gathers
 * in-bounds: the table covers every partition of a kTotal-column
 * activation, and no pattern sets a bit at or past column kTotal.
 */
class MatchTable
{
  public:
    static constexpr int kMaxTableK = 16;
    static constexpr size_t kMaxTablePatterns = 254;

    /** Matcher for the partitions of @p table that a kTotal-column
     *  activation spans. */
    MatchTable(const PatternTable& table, size_t kTotal);
    ~MatchTable();
    MatchTable(const MatchTable&) = delete;
    MatchTable& operator=(const MatchTable&) = delete;

    int k() const { return kBits; }
    size_t kTotal() const { return cols; }
    size_t numPartitions() const { return assigners.size(); }

    /** Patterns in partition p. */
    size_t
    numPatterns(size_t p) const
    {
        return assigners[p].patternSet().size();
    }

    /** True when lookups go through the table, not inline assign. */
    bool tabled() const { return slots != nullptr; }

    /** assigners[p].assign(bits) for a k-bit tile value. */
    RowAssignment
    assign(size_t p, uint64_t bits) const
    {
        if (slots == nullptr)
            return assigners[p].assign(bits);
        std::atomic_ref<uint8_t> slot(slots[(p << kBits) + slotOf(bits)]);
        const uint8_t v = slot.load(std::memory_order_relaxed);
        const uint16_t id =
            v != 0 ? static_cast<uint16_t>(v - 1) : fill(slot, p, bits);
        const uint64_t pat = id != 0 ? patternBits[p][id - 1] : 0;
        RowAssignment a;
        a.patternId = id;
        a.posMask = bits & ~pat;
        a.negMask = pat & ~bits;
        return a;
    }

  private:
    /** Per byte value v: its set-bit count, and the colex rank of its
     *  set bits as bits 0-7 (lo[v]) or as bits 8-15 above s set lower
     *  bits (hi[v][s]). */
    struct RankTables
    {
        uint8_t ones[256];
        uint16_t lo[256];
        uint16_t hi[256][9];
    };
    static const RankTables kRank;

    /** Slot of a k-bit value within its partition: values of lower
     *  popcount first, colex order among equal popcounts. */
    size_t
    slotOf(uint64_t bits) const
    {
        const size_t lo = bits & 0xFF;
        const size_t hi = (bits >> 8) & 0xFF;
        const uint8_t below = kRank.ones[lo];
        return popBase[below + kRank.ones[hi]] + kRank.lo[lo] +
               kRank.hi[hi][below];
    }

    uint16_t fill(std::atomic_ref<uint8_t> slot, size_t p,
                  uint64_t bits) const;

    std::vector<PatternAssigner> assigners;
    /** Each partition's pattern array, as assign() reads it. */
    std::vector<const uint64_t*> patternBits;
    /** First slot of each popcount: sum of C(k, j) for j < c. */
    uint32_t popBase[kMaxTableK + 1] = {};
    int kBits;
    size_t cols;
    uint8_t* slots = nullptr;
    size_t mappedBytes = 0;
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

    size_t numPartitions() const { return tiles.size(); }

    /** Total Level 2 nonzeros across partitions. */
    size_t totalL2Nnz() const;

    /** Total assigned (nonzero) pattern ids. */
    size_t totalAssigned() const;
};

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
