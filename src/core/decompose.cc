#include "core/decompose.hh"

#include <algorithm>
#include <bit>
#include <new>
#include <unordered_map>

#include <sys/mman.h>

#include "numeric/simd.hh"

namespace phi
{

namespace
{

/** Rows per decomposition chunk; fixed so chunk boundaries (and with
 *  them the per-chunk memo caches) never depend on the thread count. */
constexpr size_t kDecomposeRowGrain = 256;

/** Append row's merged-sign Level 2 entries in ascending column order. */
void
emitL2Entries(const RowAssignment& a, std::vector<L2Entry>& entries)
{
    uint64_t pos = a.posMask;
    uint64_t neg = a.negMask;
    while (pos || neg) {
        int pb = pos ? std::countr_zero(pos) : 65;
        int nb = neg ? std::countr_zero(neg) : 65;
        if (pb < nb) {
            entries.push_back({static_cast<uint16_t>(pb), int8_t{1}});
            pos &= pos - 1;
        } else {
            entries.push_back({static_cast<uint16_t>(nb), int8_t{-1}});
            neg &= neg - 1;
        }
    }
}

} // namespace

PatternAssigner::PatternAssigner(const PatternSet& ps, SimdIsa isa)
    : set(ps), kr(&simd::kernels(isa))
{
}

RowAssignment
PatternAssigner::assign(uint64_t row) const
{
    RowAssignment best;
    best.posMask = row;
    // An all-zero row can never be improved; the scan would only
    // produce negative corrections.
    if (row == 0)
        return best;

    // Distances for a block of patterns land in a stack buffer. The
    // block minimum is a branch-free (vectorisable) reduction; only a
    // block that strictly improves on the best so far is searched for
    // the first pattern reaching it, so the earliest pattern wins ties.
    // An exact match ends the scan since nothing can beat it.
    constexpr size_t kScanBlock = 64;
    uint8_t dist[kScanBlock] = {};
    const uint64_t* pats = set.patterns().data();
    const size_t q = set.size();
    uint8_t bestNnz = static_cast<uint8_t>(popcount64(row));
    size_t bestIdx = q;
    for (size_t b0 = 0; b0 < q && bestNnz > 0; b0 += kScanBlock) {
        const size_t len = std::min(kScanBlock, q - b0);
        kr->hammingScan(row, pats + b0, len, dist);
        uint8_t blockMin = bestNnz;
        for (size_t i = 0; i < len; ++i)
            blockMin = std::min(blockMin, dist[i]);
        if (blockMin < bestNnz) {
            size_t i = 0;
            while (dist[i] != blockMin)
                ++i;
            bestNnz = blockMin;
            bestIdx = b0 + i;
        }
    }
    if (bestIdx != q) {
        const uint64_t pat = pats[bestIdx];
        best.patternId = static_cast<uint16_t>(bestIdx + 1);
        best.posMask = row & ~pat; // 1 in row, 0 in pattern -> +1
        best.negMask = pat & ~row; // 0 in row, 1 in pattern -> -1
    }
    return best;
}

namespace
{

constexpr uint32_t
binomial(int n, int r)
{
    if (r < 0 || r > n)
        return 0;
    uint32_t c = 1;
    for (int i = 1; i <= r; ++i)
        c = c * static_cast<uint32_t>(n - r + i) / static_cast<uint32_t>(i);
    return c;
}

} // namespace

// Colex rank of a value whose set bits sit at positions p_0 < p_1 < ...
// is sum_i C(p_i, i + 1); split per byte, the high byte's terms shift
// by the number of bits set below it.
constinit const MatchTable::RankTables MatchTable::kRank = [] {
    RankTables t{};
    for (int v = 0; v < 256; ++v) {
        t.ones[v] = static_cast<uint8_t>(std::popcount(
            static_cast<unsigned>(v)));
        int i = 0;
        for (int b = 0; b < 8; ++b)
            if ((v >> b) & 1)
                t.lo[v] = static_cast<uint16_t>(t.lo[v] +
                                                binomial(b, ++i));
        for (int below = 0; below <= 8; ++below) {
            int j = below;
            uint32_t r = 0;
            for (int b = 0; b < 8; ++b)
                if ((v >> b) & 1)
                    r += binomial(8 + b, ++j);
            t.hi[v][below] = static_cast<uint16_t>(r);
        }
    }
    return t;
}();

MatchTable::MatchTable(const PatternTable& table, size_t kTotal)
    : kBits(table.k()), cols(kTotal)
{
    const size_t k = static_cast<size_t>(kBits);
    const size_t partitions = ceilDiv(kTotal, k);
    phi_assert(table.numPartitions() >= partitions, "pattern table has ",
               table.numPartitions(), " partitions, ", kTotal,
               " columns need ", partitions);
    bool fits = kBits <= kMaxTableK;
    assigners.reserve(partitions);
    for (size_t p = 0; p < partitions; ++p) {
        const PatternSet& ps = table.partition(p);
        // Only the final partition can be ragged; a pattern bit past
        // the activation edge would name a column with no weight row.
        const uint64_t inside = lowMask(
            static_cast<int>(std::min(k, kTotal - p * k)));
        for (uint64_t pat : ps.patterns())
            phi_assert((pat & ~inside) == 0, "partition ", p,
                       " pattern sets a bit past column ", kTotal);
        fits = fits && ps.size() <= kMaxTablePatterns;
        assigners.emplace_back(ps);
    }
    if (!fits || partitions == 0)
        return;
    for (const PatternAssigner& a : assigners)
        patternBits.push_back(a.patternSet().patterns().data());
    for (int c = 1; c <= kBits; ++c)
        popBase[c] = popBase[c - 1] + binomial(kBits, c - 1);
    // Anonymous memory arrives zeroed, i.e. every slot "unknown", and
    // is only made resident page by page as fills write it. Huge pages
    // would turn one fill into a 2 MiB resident block.
    mappedBytes = partitions << kBits;
    void* mem = ::mmap(nullptr, mappedBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
    ::madvise(mem, mappedBytes, MADV_NOHUGEPAGE);
#endif
    slots = static_cast<uint8_t*>(mem);
}

MatchTable::~MatchTable()
{
    if (slots != nullptr)
        ::munmap(slots, mappedBytes);
}

uint16_t
MatchTable::fill(std::atomic_ref<uint8_t> slot, size_t p,
                 uint64_t bits) const
{
    const uint16_t id = assigners[p].assign(bits).patternId;
    slot.store(static_cast<uint8_t>(id + 1), std::memory_order_relaxed);
    return id;
}

TileDecomposition
decomposeTile(const BinaryMatrix& acts, size_t partition,
              const PatternAssigner& assigner,
              const ExecutionConfig& exec)
{
    const int k = assigner.patternSet().k();
    const size_t start = partition * static_cast<size_t>(k);
    phi_assert(start < acts.cols(), "partition ", partition,
               " beyond activation width ", acts.cols());

    const size_t rows = acts.rows();
    TileDecomposition tile;
    tile.partition = partition;
    tile.k = k;
    tile.patternIds.resize(rows);
    tile.l2Offsets.resize(rows + 1, 0);

    // Parallel sweep: pattern ids and per-row entry counts are disjoint
    // writes; Level 2 entries land in per-chunk buffers concatenated in
    // chunk order below, so the layout equals the sequential one.
    const size_t chunks = numChunks(0, rows, kDecomposeRowGrain);
    std::vector<std::vector<L2Entry>> chunkEntries(chunks);
    parallelForChunks(
        exec, 0, rows, kDecomposeRowGrain,
        [&](size_t chunk, size_t r0, size_t r1) {
            std::unordered_map<uint64_t, RowAssignment> memo;
            std::vector<L2Entry>& entries = chunkEntries[chunk];
            for (size_t r = r0; r < r1; ++r) {
                const uint64_t row = acts.extract(r, start, k);
                auto it = memo.find(row);
                if (it == memo.end())
                    it = memo.emplace(row, assigner.assign(row)).first;
                const RowAssignment& a = it->second;
                tile.patternIds[r] = a.patternId;
                const size_t before = entries.size();
                emitL2Entries(a, entries);
                tile.l2Offsets[r + 1] =
                    static_cast<uint32_t>(entries.size() - before);
            }
        });

    // Row counts -> CSR offsets, then stitch the chunks back together.
    for (size_t r = 0; r < rows; ++r)
        tile.l2Offsets[r + 1] += tile.l2Offsets[r];
    tile.l2Entries.reserve(tile.l2Offsets[rows]);
    for (const auto& entries : chunkEntries)
        tile.l2Entries.insert(tile.l2Entries.end(), entries.begin(),
                              entries.end());
    return tile;
}

LayerDecomposition
decomposeLayer(const BinaryMatrix& acts, const PatternTable& table,
               const ExecutionConfig& exec)
{
    const int k = table.k();
    const size_t partitions =
        ceilDiv(acts.cols(), static_cast<size_t>(k));
    phi_assert(table.numPartitions() >= partitions,
               "pattern table has ", table.numPartitions(),
               " partitions, layer needs ", partitions);

    LayerDecomposition dec;
    dec.m = acts.rows();
    dec.kTotal = acts.cols();
    dec.k = k;
    dec.tiles.reserve(partitions);
    for (size_t p = 0; p < partitions; ++p) {
        PatternAssigner assigner(table.partition(p), exec.isa);
        dec.tiles.push_back(decomposeTile(acts, p, assigner, exec));
    }
    return dec;
}

size_t
LayerDecomposition::totalL2Nnz() const
{
    size_t n = 0;
    for (const auto& t : tiles)
        n += t.l2Nnz();
    return n;
}

size_t
LayerDecomposition::totalAssigned() const
{
    size_t n = 0;
    for (const auto& t : tiles)
        for (uint16_t id : t.patternIds)
            if (id != 0)
                ++n;
    return n;
}

BinaryMatrix
reconstructActivations(const LayerDecomposition& dec,
                       const PatternTable& table)
{
    BinaryMatrix acts(dec.m, dec.kTotal);
    for (const auto& tile : dec.tiles) {
        const size_t start = tile.partition * static_cast<size_t>(dec.k);
        const PatternSet& ps = table.partition(tile.partition);
        for (size_t r = 0; r < tile.numRows(); ++r) {
            // Signed sum of L1 pattern bits and L2 corrections must land
            // back in {0, 1}; anything else is a decomposition bug.
            int64_t value[64] = {};
            if (tile.patternIds[r] != 0) {
                uint64_t bits = ps.bitsOf(tile.patternIds[r]);
                while (bits) {
                    int b = std::countr_zero(bits);
                    bits &= bits - 1;
                    value[b] += 1;
                }
            }
            auto [lo, hi] = tile.rowRange(r);
            for (uint32_t e = lo; e < hi; ++e)
                value[tile.l2Entries[e].col] += tile.l2Entries[e].sign;

            for (int b = 0; b < dec.k; ++b) {
                size_t col = start + static_cast<size_t>(b);
                if (col >= dec.kTotal) {
                    phi_assert(value[b] == 0,
                               "nonzero reconstruction past layer edge");
                    continue;
                }
                phi_assert(value[b] == 0 || value[b] == 1,
                           "reconstruction value ", value[b],
                           " not binary at row ", r, " col ", col);
                if (value[b] == 1)
                    acts.set(r, col, true);
            }
        }
    }
    return acts;
}

} // namespace phi
