#include "core/pwp.hh"

#include <algorithm>
#include <bit>
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

template <typename Elem>
using GatherFn = void (*)(int32_t*, const Elem*, const uint64_t*,
                          const uint16_t*, size_t, size_t,
                          const int16_t* const*, size_t,
                          const int16_t* const*, size_t, size_t);

/**
 * The one gather loop of both serve paths. Slot t of a row covers
 * arena partition parts[t], whose weight rows start at parts[t] * k;
 * assignRow(r, row) fills row[t] with row r's RowAssignment in every
 * slot. Per output row and column block, the Level 2 masks become
 * signed weight-row pointer batches, then one kernel call locates the
 * Level 1 rows in the contiguous arena by pattern id and reduces
 * everything in registers.
 * Every output row is written exactly once, so results are
 * bit-identical at any tier and thread count (int32 accumulation is
 * exactly associative). The caller proves every id and mask bit
 * in-bounds.
 */
template <typename Elem, typename AssignFn>
void
gatherRows(Matrix<int32_t>& out, size_t m, const std::vector<size_t>& parts,
           int k, const PwpArena& arena, const Matrix<int16_t>& weights,
           const ExecutionConfig& exec, GatherFn<Elem> gather,
           const AssignFn& assignRow)
{
    const size_t n = weights.cols();
    const size_t numTiles = parts.size();
    const size_t tileN = exec.resolvedTileN(n);
    const size_t nPad = out.paddedCols();
    const size_t wStride = weights.stride();
    const int16_t* wData = weights.data();

    // Per-slot first arena row and first weight-row offset.
    std::vector<uint64_t> tileRowBase(numTiles);
    std::vector<size_t> wOff(numTiles);
    for (size_t t = 0; t < numTiles; ++t) {
        tileRowBase[t] = arena.rowBase()[parts[t]];
        wOff[t] = parts[t] * static_cast<size_t>(k) * wStride;
    }

    const Elem* arenaData = arena.data<Elem>();
    const size_t stride = arena.stride();

    parallelFor(exec, 0, m, kPhiGemmRowGrain, [&](size_t r0, size_t r1) {
        // A whole row is assigned before its pointers are built: the
        // lookups then run back to back, which measured faster than
        // interleaving them with the pointer batches. One up-front
        // reservation: a row holds at most k corrections per slot, so
        // the batches never regrow mid-loop.
        std::vector<RowAssignment> row(numTiles);
        std::vector<uint16_t> ids(numTiles);
        std::vector<const int16_t*> l2pos;
        std::vector<const int16_t*> l2neg;
        l2pos.reserve(numTiles * static_cast<size_t>(k));
        l2neg.reserve(numTiles * static_cast<size_t>(k));

        for (size_t n0 = 0; n0 < n; n0 += tileN) {
            const size_t n1 = std::min(n, n0 + tileN);
            const size_t span = (n1 == n ? nPad : n1) - n0;
            // An empty arena (no patterns anywhere) serves pure
            // Level 2; its null base must not be offset.
            const Elem* arenaBlock =
                arena.empty() ? arenaData : arenaData + n0;

            for (size_t r = r0; r < r1; ++r) {
                assignRow(r, row.data());
                l2pos.clear();
                l2neg.clear();
                for (size_t t = 0; t < numTiles; ++t) {
                    const RowAssignment& a = row[t];
                    ids[t] = a.patternId;
                    const int16_t* w = wData + wOff[t] + n0;
                    for (uint64_t b = a.posMask; b != 0; b &= b - 1)
                        l2pos.push_back(w + std::countr_zero(b) * wStride);
                    for (uint64_t b = a.negMask; b != 0; b &= b - 1)
                        l2neg.push_back(w + std::countr_zero(b) * wStride);
                }
                gather(out.rowPtr(r) + n0, arenaBlock, tileRowBase.data(),
                       ids.data(), numTiles, stride, l2pos.data(),
                       l2pos.size(), l2neg.data(), l2neg.size(), span);
            }
        }
    });
}

/** gatherRows on the kernel matching the arena's storage tier. */
template <typename AssignFn>
void
gatherLayer(Matrix<int32_t>& out, size_t m,
            const std::vector<size_t>& parts, int k,
            const PwpArena& arena, const Matrix<int16_t>& weights,
            const ExecutionConfig& exec, const AssignFn& assignRow)
{
    const simd::Kernels& kr = simd::kernels(exec.isa);
    switch (arena.tier()) {
    case PwpTier::Int32:
        gatherRows<int32_t>(out, m, parts, k, arena, weights, exec,
                            kr.pwpGatherI32, assignRow);
        break;
    case PwpTier::Int16:
        gatherRows<int16_t>(out, m, parts, k, arena, weights, exec,
                            kr.pwpGatherI16, assignRow);
        break;
    case PwpTier::Int8:
        gatherRows<int8_t>(out, m, parts, k, arena, weights, exec,
                           kr.pwpGatherI8, assignRow);
        break;
    }
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

    // A decomposition is plain data, so prove it in-bounds here: every
    // tile targets an arena partition inside the weights, every id a
    // stored pattern; Level 2 columns are checked as rows are read.
    const size_t numTiles = dec.tiles.size();
    std::vector<size_t> parts(numTiles);
    std::vector<uint32_t> colLimit(numTiles);
    std::vector<const uint16_t*> ids(numTiles);
    std::vector<const uint32_t*> offsets(numTiles);
    std::vector<const L2Entry*> entries(numTiles);
    for (size_t t = 0; t < numTiles; ++t) {
        const TileDecomposition& tile = dec.tiles[t];
        const size_t kOff = tile.partition * static_cast<size_t>(dec.k);
        phi_assert(tile.partition < arena.numPartitions() &&
                   kOff < weights.rows(),
                   "tile partition ", tile.partition,
                   " beyond arena partitions ", arena.numPartitions(),
                   " or weight rows ", weights.rows());
        phi_assert(tile.patternIds.size() == dec.m &&
                   (dec.m == 0 || tile.l2Offsets.size() == dec.m + 1),
                   "tile ", t, " does not hold ", dec.m, " rows");
        const uint16_t maxId =
            dec.m == 0 ? 0
                       : *std::max_element(tile.patternIds.begin(),
                                           tile.patternIds.end());
        phi_assert(maxId <= arena.rowsInPartition(tile.partition),
                   "pattern id ", maxId, " beyond arena partition ",
                   tile.partition, " with ",
                   arena.rowsInPartition(tile.partition), " rows");
        parts[t] = tile.partition;
        colLimit[t] = static_cast<uint32_t>(
            std::min<size_t>(dec.k, weights.rows() - kOff));
        ids[t] = tile.patternIds.data();
        offsets[t] = tile.l2Offsets.data();
        entries[t] = tile.l2Entries.data();
    }

    gatherLayer(out, dec.m, parts, dec.k, arena, weights, exec,
                [&](size_t r, RowAssignment* row) {
        bool inBounds = true;
        for (size_t t = 0; t < numTiles; ++t) {
            uint64_t pos = 0;
            uint64_t neg = 0;
            for (uint32_t e = offsets[t][r]; e < offsets[t][r + 1]; ++e) {
                const L2Entry& l2 = entries[t][e];
                const uint64_t bit = uint64_t{1} << (l2.col & 63);
                inBounds &= l2.col < colLimit[t] && ((pos | neg) & bit) == 0;
                (l2.sign > 0 ? pos : neg) |= bit;
            }
            row[t] = RowAssignment{ids[t][r], pos, neg};
        }
        phi_assert(inBounds, "row ", r,
                   " repeats an L2 column or names one past the weights");
    });
}

void
phiServeInto(Matrix<int32_t>& out, const BinaryMatrix& acts,
             const MatchTable& matcher, const PwpArena& arena,
             const Matrix<int16_t>& weights, const ExecutionConfig& exec)
{
    const size_t kTotal = acts.cols();
    phi_assert(kTotal == weights.rows() && kTotal == matcher.kTotal(),
               "activation K ", kTotal, " != weight rows ",
               weights.rows(), " or matcher K ", matcher.kTotal());
    phi_assert(out.rows() == acts.rows() && out.cols() == weights.cols(),
               "output shape ", out.rows(), "x", out.cols(),
               " != expected ", acts.rows(), "x", weights.cols());

    // The matcher's construction proved every pattern bit inside the
    // weights; ids stay inside the arena when each partition's arena
    // rows are exactly its patterns.
    const int k = matcher.k();
    const size_t numTiles = matcher.numPartitions();
    phi_assert(numTiles == 0 || arena.cols() == weights.cols(),
               "arena width ", arena.cols(), " != weight cols ",
               weights.cols());
    std::vector<size_t> parts(numTiles);
    std::vector<uint64_t> inside(numTiles);
    for (size_t t = 0; t < numTiles; ++t) {
        phi_assert(t < arena.numPartitions() &&
                   arena.rowsInPartition(t) == matcher.numPatterns(t),
                   "arena does not hold partition ", t, "'s patterns");
        parts[t] = t;
        inside[t] = lowMask(static_cast<int>(
            std::min<size_t>(k, kTotal - t * static_cast<size_t>(k))));
    }

    const size_t wordsPerRow = acts.numWordsPerRow();
    gatherLayer(out, acts.rows(), parts, k, arena, weights, exec,
                [&](size_t r, RowAssignment* row) {
        const uint64_t* words = acts.rowWords(r);
        for (size_t t = 0; t < numTiles; ++t) {
            // The k-bit tile at column t * k, clipped to the activation.
            const size_t start = t * static_cast<size_t>(k);
            const size_t w0 = start / 64;
            const int off = static_cast<int>(start % 64);
            uint64_t bits = words[w0] >> off;
            if (off != 0 && w0 + 1 < wordsPerRow)
                bits |= words[w0 + 1] << (64 - off);
            row[t] = matcher.assign(t, bits & inside[t]);
        }
    });
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
