#include "core/pwp.hh"

#include <algorithm>
#include <utility>

#include "numeric/simd.hh"

namespace phi
{

namespace
{

/** Patterns per PWP chunk and rows per phiGemm chunk; fixed grains keep
 *  chunking independent of the thread count (determinism contract). */
constexpr size_t kPwpPatternGrain = 16;
constexpr size_t kPhiGemmRowGrain = 32;

/** Cast-copy one PWP matrix set into a typed arena buffer. Padding
 *  columns keep the zero from the buffer's value-initialisation. */
template <typename Elem>
void
packArena(AlignedVec<Elem>& dst,
          const std::vector<Matrix<int32_t>>& pwps, const uint64_t* base,
          size_t totalRows, size_t n, size_t stride)
{
    dst.resize(totalRows * stride);
    for (size_t p = 0; p < pwps.size(); ++p) {
        for (size_t r = 0; r < pwps[p].rows(); ++r) {
            const int32_t* src = pwps[p].rowPtr(r);
            Elem* out = dst.data() + (base[p] + r) * stride;
            for (size_t c = 0; c < n; ++c)
                out[c] = static_cast<Elem>(src[c]);
        }
    }
}

/** Widen one typed arena back into per-partition int32 matrices. */
template <typename Elem>
void
widenArena(std::vector<Matrix<int32_t>>& pwps, const Elem* src,
           const uint64_t* base, size_t n, size_t stride)
{
    for (size_t p = 0; p < pwps.size(); ++p) {
        const size_t rows = base[p + 1] - base[p];
        Matrix<int32_t> m(rows, n);
        for (size_t r = 0; r < rows; ++r) {
            const Elem* in = src + (base[p] + r) * stride;
            int32_t* out = m.rowPtr(r);
            for (size_t c = 0; c < n; ++c)
                out[c] = static_cast<int32_t>(in[c]);
        }
        pwps[p] = std::move(m);
    }
}

} // namespace

const char*
pwpTierName(PwpTier tier)
{
    switch (tier) {
    case PwpTier::Int16:
        return "int16";
    case PwpTier::Int8:
        return "int8";
    default:
        return "int32";
    }
}

PwpArena::PwpArena(const std::vector<Matrix<int32_t>>& pwps, size_t n,
                   PwpTier quant)
    : logicalCols(n)
{
    base.resize(pwps.size() + 1, 0);
    for (size_t p = 0; p < pwps.size(); ++p) {
        phi_assert(pwps[p].rows() == 0 || pwps[p].cols() == n,
                   "partition ", p, " PWP width ", pwps[p].cols(),
                   " != arena width ", n);
        base[p + 1] = base[p] + pwps[p].rows();
    }
    totalRows = base[pwps.size()];

    // Narrowest exact tier at or above the request: one min/max sweep
    // proves whether every value round-trips through the narrower
    // type, so quantization can never change a serving result.
    elemTier = PwpTier::Int32;
    if (quant != PwpTier::Int32 && totalRows > 0) {
        int32_t lo = 0;
        int32_t hi = 0;
        for (const auto& pwp : pwps) {
            for (size_t r = 0; r < pwp.rows(); ++r) {
                const int32_t* row = pwp.rowPtr(r);
                for (size_t c = 0; c < n; ++c) {
                    lo = std::min(lo, row[c]);
                    hi = std::max(hi, row[c]);
                }
            }
        }
        if (quant == PwpTier::Int8 && lo >= INT8_MIN && hi <= INT8_MAX)
            elemTier = PwpTier::Int8;
        else if (lo >= INT16_MIN && hi <= INT16_MAX)
            elemTier = PwpTier::Int16;
    }

    // Row pitch is padded to whole cache lines only. An earlier draft
    // also padded 4 KiB-multiple pitches by one extra line to stagger
    // rows across cache sets; measured on AVX-512 hosts it was a ~40%
    // regression at n=1024 — every row straddled two pages, doubling
    // TLB touches per gathered row — so rows stay page-packed.
    const size_t lineElems = kSimdAlign / pwpTierBytes(elemTier);
    strideElems = roundUp(n, lineElems);
    switch (elemTier) {
    case PwpTier::Int32:
        packArena(data32, pwps, base.data(), totalRows, n, strideElems);
        break;
    case PwpTier::Int16:
        packArena(data16, pwps, base.data(), totalRows, n, strideElems);
        break;
    case PwpTier::Int8:
        packArena(data8, pwps, base.data(), totalRows, n, strideElems);
        break;
    }
}

std::vector<Matrix<int32_t>>
PwpArena::materialize() const
{
    std::vector<Matrix<int32_t>> pwps(numPartitions());
    switch (elemTier) {
    case PwpTier::Int32:
        widenArena(pwps, data32.data(), base.data(), logicalCols,
                   strideElems);
        break;
    case PwpTier::Int16:
        widenArena(pwps, data16.data(), base.data(), logicalCols,
                   strideElems);
        break;
    case PwpTier::Int8:
        widenArena(pwps, data8.data(), base.data(), logicalCols,
                   strideElems);
        break;
    }
    return pwps;
}

Matrix<int32_t>
computePwp(const PatternSet& ps, const Matrix<int16_t>& weights,
           size_t kOffset, const ExecutionConfig& exec)
{
    const size_t n = weights.cols();
    // Each PWP row is produced by exactly one overwriting batched
    // reduction over whole padded rows (weight-row padding is zero, so
    // the vector loop runs tail-free over the stride, and an empty
    // pattern stores zeros) — the output storage needs no pre-zeroing.
    // A pattern has at most 64 bits, so all its weight rows fit one
    // gathered batch and the PWP row is stored once per column block.
    Matrix<int32_t> pwp = Matrix<int32_t>::uninitialized(ps.size(), n);
    const size_t span = pwp.paddedCols();
    const simd::Kernels& kr = simd::kernels(exec.isa);
    parallelFor(exec, 0, ps.size(), kPwpPatternGrain,
                [&](size_t i0, size_t i1) {
        const int16_t* gathered[64];
        for (size_t i = i0; i < i1; ++i) {
            uint64_t bits = ps.patterns()[i];
            size_t batch = 0;
            while (bits) {
                int b = std::countr_zero(bits);
                bits &= bits - 1;
                size_t kk = kOffset + static_cast<size_t>(b);
                if (kk >= weights.rows())
                    continue; // ragged final partition: zero-padded weights
                gathered[batch++] = weights.rowPtr(kk);
            }
            kr.storeRowsI16(pwp.rowPtr(i), gathered, batch, span);
        }
    });
    return pwp;
}

std::vector<Matrix<int32_t>>
computeLayerPwps(const PatternTable& table, const Matrix<int16_t>& weights,
                 const ExecutionConfig& exec)
{
    std::vector<Matrix<int32_t>> pwps(table.numPartitions());
    parallelFor(exec, 0, table.numPartitions(), 1,
                [&](size_t p0, size_t p1) {
        for (size_t p = p0; p < p1; ++p)
            pwps[p] = computePwp(table.partition(p), weights,
                                 p * static_cast<size_t>(table.k()), exec);
    });
    return pwps;
}

Matrix<int32_t>
phiGemm(const LayerDecomposition& dec, const PatternTable& table,
        const Matrix<int16_t>& weights, const ExecutionConfig& exec)
{
    const PwpArena arena(computeLayerPwps(table, weights, exec),
                         weights.cols());
    return phiGemmWithArena(dec, arena, weights, exec);
}

namespace
{

/**
 * Tier-generic body of phiGemmWithArenaInto. Per output row and column
 * block, the row's Level 2 corrections are gathered into signed
 * pointer batches, then one kernel call locates the Level 1 rows in the
 * contiguous arena by pattern id and reduces everything in registers.
 * Every output row is written exactly once, so results are
 * bit-identical at any tier and thread count (int32 accumulation is
 * exactly associative).
 */
template <typename Elem>
void
serveArena(Matrix<int32_t>& out, const LayerDecomposition& dec,
           const PwpArena& arena, const Matrix<int16_t>& weights,
           const ExecutionConfig& exec,
           void (*gather)(int32_t*, const Elem*, const uint64_t*,
                          const uint16_t*, size_t, size_t,
                          const int16_t* const*, size_t,
                          const int16_t* const*, size_t, size_t))
{
    const size_t n = weights.cols();
    const size_t numTiles = dec.tiles.size();
    const size_t tileN = exec.resolvedTileN(n);
    const size_t nPad = out.paddedCols();

    std::vector<uint16_t> localIds;
    std::vector<uint8_t> localCounts;
    const uint16_t* rowIds = dec.rowPatternIds.data();
    const uint8_t* rowCounts = dec.rowL2Counts.data();
    if (!dec.hasRowIndex() && numTiles > 0) {
        buildRowIndexInto(dec, localIds, localCounts);
        rowIds = localIds.data();
        rowCounts = localCounts.data();
    }

    // Per-tile tables hoisted out of the row loop: the tile's first
    // arena row, its Level 2 entry stream and its first weight row.
    // The per-tile maxima are checked once against the arena and the
    // weights, proving every gather in the call in-bounds.
    std::vector<uint64_t> tileRowBase(numTiles);
    std::vector<const L2Entry*> l2Entries(numTiles);
    std::vector<const uint32_t*> l2Offsets(numTiles);
    std::vector<const int16_t*> wBase(numTiles);
    const size_t wStride = weights.stride();
    const bool haveMaxima = dec.hasTileMaxima();
    for (size_t t = 0; t < numTiles; ++t) {
        const TileDecomposition& tile = dec.tiles[t];
        phi_assert(tile.partition < arena.numPartitions(),
                   "tile partition ", tile.partition,
                   " beyond arena partitions ", arena.numPartitions());
        const size_t k_off =
            tile.partition * static_cast<size_t>(dec.k);
        uint16_t maxCol = haveMaxima ? dec.tileMaxL2Col[t] : 0;
        uint16_t maxId = haveMaxima ? dec.tileMaxPatternId[t] : 0;
        if (!haveMaxima) {
            for (const L2Entry& e : tile.l2Entries)
                maxCol = std::max(maxCol, e.col);
            for (uint16_t id : tile.patternIds)
                maxId = std::max(maxId, id);
        }
        phi_assert(tile.l2Entries.empty() ||
                   k_off + maxCol < weights.rows(),
                   "L2 column beyond weight rows");
        phi_assert(maxId <= arena.rowsInPartition(tile.partition),
                   "pattern id ", maxId, " beyond arena partition ",
                   tile.partition, " with ",
                   arena.rowsInPartition(tile.partition), " rows");
        tileRowBase[t] = arena.rowBase()[tile.partition];
        l2Entries[t] = tile.l2Entries.data();
        l2Offsets[t] = tile.l2Offsets.empty() ? nullptr
                                              : tile.l2Offsets.data();
        wBase[t] = k_off < weights.rows() ? weights.rowPtr(k_off)
                                          : nullptr;
    }

    const Elem* arenaData = arena.data<Elem>();
    const size_t stride = arena.stride();

    parallelFor(exec, 0, dec.m, kPhiGemmRowGrain,
                [&](size_t r0, size_t r1) {
        // One up-front reservation: a row holds at most k entries per
        // tile, so the pointer batches never regrow mid-loop.
        std::vector<const int16_t*> l2pos;
        std::vector<const int16_t*> l2neg;
        l2pos.reserve(numTiles * static_cast<size_t>(dec.k));
        l2neg.reserve(numTiles * static_cast<size_t>(dec.k));

        for (size_t n0 = 0; n0 < n; n0 += tileN) {
            const size_t n1 = std::min(n, n0 + tileN);
            const size_t span = (n1 == n ? nPad : n1) - n0;
            // An empty arena (no patterns anywhere) serves pure
            // Level 2; its null base must not be offset.
            const Elem* arenaBlock =
                arena.empty() ? arenaData : arenaData + n0;

            for (size_t r = r0; r < r1; ++r) {
                const uint16_t* ids = rowIds + r * numTiles;
                const uint8_t* counts = rowCounts + r * numTiles;
                l2pos.clear();
                l2neg.clear();
                for (size_t t = 0; t < numTiles; ++t) {
                    const uint32_t cnt = counts[t];
                    if (cnt == 0)
                        continue;
                    const L2Entry* e = l2Entries[t] + l2Offsets[t][r];
                    for (uint32_t j = 0; j < cnt; ++j) {
                        const int16_t* w =
                            wBase[t] + e[j].col * wStride + n0;
                        if (e[j].sign > 0)
                            l2pos.push_back(w);
                        else
                            l2neg.push_back(w);
                    }
                }
                gather(out.rowPtr(r) + n0, arenaBlock,
                       tileRowBase.data(), ids, numTiles, stride,
                       l2pos.data(), l2pos.size(), l2neg.data(),
                       l2neg.size(), span);
            }
        }
    });
}

} // namespace

void
phiGemmWithArenaInto(Matrix<int32_t>& out, const LayerDecomposition& dec,
                     const PwpArena& arena,
                     const Matrix<int16_t>& weights,
                     const ExecutionConfig& exec)
{
    phi_assert(dec.kTotal == weights.rows(),
               "decomposition K ", dec.kTotal, " != weight rows ",
               weights.rows());
    phi_assert(dec.tiles.empty() || arena.cols() == weights.cols(),
               "arena width ", arena.cols(), " != weight cols ",
               weights.cols());
    phi_assert(out.rows() == dec.m && out.cols() == weights.cols(),
               "output shape ", out.rows(), "x", out.cols(),
               " != expected ", dec.m, "x", weights.cols());

    const simd::Kernels& kr = simd::kernels(exec.isa);
    switch (arena.tier()) {
    case PwpTier::Int32:
        serveArena<int32_t>(out, dec, arena, weights, exec,
                            kr.pwpGatherI32);
        break;
    case PwpTier::Int16:
        serveArena<int16_t>(out, dec, arena, weights, exec,
                            kr.pwpGatherI16);
        break;
    case PwpTier::Int8:
        serveArena<int8_t>(out, dec, arena, weights, exec,
                           kr.pwpGatherI8);
        break;
    }
}

Matrix<int32_t>
phiGemmWithArena(const LayerDecomposition& dec, const PwpArena& arena,
                 const Matrix<int16_t>& weights,
                 const ExecutionConfig& exec)
{
    Matrix<int32_t> out =
        Matrix<int32_t>::uninitialized(dec.m, weights.cols());
    phiGemmWithArenaInto(out, dec, arena, weights, exec);
    return out;
}

size_t
pwpBytes(const PatternTable& table, size_t n, size_t bytesPerElem)
{
    return table.totalPatterns() * n * bytesPerElem;
}

PwpTierFootprint
pwpTierFootprint(const PatternTable& table, size_t n)
{
    PwpTierFootprint fp;
    const size_t elems = table.totalPatterns() * n;
    fp.bytes[static_cast<size_t>(PwpTier::Int32)] = elems * 4;
    fp.bytes[static_cast<size_t>(PwpTier::Int16)] = elems * 2;
    fp.bytes[static_cast<size_t>(PwpTier::Int8)] = elems * 1;
    return fp;
}

} // namespace phi
