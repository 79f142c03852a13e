#include "core/decompose.hh"

#include <algorithm>
#include <unordered_map>

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
    dec.buildRowIndex();
    return dec;
}

void
buildRowIndexInto(const LayerDecomposition& dec,
                  std::vector<uint16_t>& rowIds,
                  std::vector<uint8_t>& rowCounts)
{
    const size_t numTiles = dec.tiles.size();
    rowIds.assign(dec.m * numTiles, 0);
    rowCounts.assign(dec.m * numTiles, 0);
    // One sequential pass per tile; the strided writes transpose the
    // tile-major arrays into the row-major index.
    for (size_t t = 0; t < numTiles; ++t) {
        const TileDecomposition& tile = dec.tiles[t];
        phi_assert(tile.patternIds.size() == dec.m,
                   "tile ", t, " holds ", tile.patternIds.size(),
                   " rows, layer has ", dec.m);
        for (size_t r = 0; r < dec.m; ++r) {
            rowIds[r * numTiles + t] = tile.patternIds[r];
            auto [lo, hi] = tile.rowRange(r);
            phi_assert(hi - lo <= static_cast<uint32_t>(tile.k),
                       "row ", r, " holds ", hi - lo,
                       " L2 entries, more than partition width ",
                       tile.k);
            rowCounts[r * numTiles + t] =
                static_cast<uint8_t>(hi - lo);
        }
    }
}

void
LayerDecomposition::buildRowIndex()
{
    buildRowIndexInto(*this, rowPatternIds, rowL2Counts);
    const size_t numTiles = tiles.size();
    tileMaxPatternId.assign(numTiles, 0);
    tileMaxL2Col.assign(numTiles, 0);
    for (size_t t = 0; t < numTiles; ++t) {
        for (uint16_t id : tiles[t].patternIds)
            tileMaxPatternId[t] = std::max(tileMaxPatternId[t], id);
        for (const L2Entry& e : tiles[t].l2Entries)
            tileMaxL2Col[t] = std::max(tileMaxL2Col[t], e.col);
    }
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
