/**
 * @file
 * Tests for the Phi hierarchical decomposition: assignment rules, the
 * matcher's agreement across SIMD backends, bidirectional correction,
 * and the losslessness invariant swept over densities, tile widths and
 * pattern counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "core/calibration.hh"
#include "core/decompose.hh"
#include "numeric/simd.hh"

namespace phi
{
namespace
{

TEST(PatternAssigner, ExactMatchHasEmptyL2)
{
    PatternSet ps(4, {0b0110, 0b1101});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0b0110);
    EXPECT_EQ(r.patternId, 1);
    EXPECT_EQ(r.posMask, 0u);
    EXPECT_EQ(r.negMask, 0u);
    EXPECT_EQ(r.nnz(), 0);
}

TEST(PatternAssigner, PaperFigure2Examples)
{
    // Fig. 2(b): patterns 1=0110, 2=1101 (ids per our 1-based order).
    PatternSet ps(4, {0b0110, 0b1101});
    PatternAssigner a(ps);

    // Row 2 = 1110 matches pattern 0110 with one +1 correction at the
    // bit where the row has 1 and the pattern 0 (paper: "1000").
    const RowAssignment& row2 = a.assign(0b1110);
    EXPECT_EQ(row2.patternId, 1);
    EXPECT_EQ(row2.posMask, 0b1000u);
    EXPECT_EQ(row2.negMask, 0u);

    // Row 1 = 1100 matches pattern 1101 with one -1 correction
    // (paper: "000-1" at the pattern's extra bit).
    const RowAssignment& row1 = a.assign(0b1100);
    EXPECT_EQ(row1.patternId, 2);
    EXPECT_EQ(row1.negMask, 0b0001u);
    EXPECT_EQ(row1.posMask, 0u);
}

TEST(PatternAssigner, KeepsBitSparsityWhenPatternsDontHelp)
{
    // Row 3 in Fig. 2: original bit sparsity beats every pattern, so
    // no pattern is assigned and L2 carries the raw bits.
    PatternSet ps(4, {0b0110, 0b1101});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0b0001);
    EXPECT_EQ(r.patternId, 0);
    EXPECT_EQ(r.posMask, 0b0001u);
    EXPECT_EQ(r.negMask, 0u);
}

TEST(PatternAssigner, TieGoesToNoPattern)
{
    // Row popcount 1; best pattern distance also 1: assigning would
    // add an L1 op without reducing L2 -> keep no pattern.
    PatternSet ps(4, {0b0011});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0b0010);
    EXPECT_EQ(r.patternId, 0);
}

TEST(PatternAssigner, ZeroRowNeedsNothing)
{
    PatternSet ps(4, {0b0110});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0);
    EXPECT_EQ(r.patternId, 0);
    EXPECT_EQ(r.nnz(), 0);
}

TEST(PatternAssigner, PicksMinimumHammingPattern)
{
    PatternSet ps(8, {0b11110000, 0b00001111, 0b10101010});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0b11110001);
    EXPECT_EQ(r.patternId, 1);
    EXPECT_EQ(r.nnz(), 1);
}

TEST(PatternAssigner, EqualPatternsGoToTheEarliest)
{
    // 0111 is one bit from both 0011 and 0110 (and three from empty):
    // the first pattern in table order wins the tie.
    PatternSet ps(4, {0b0011, 0b0110, 0b0011});
    PatternAssigner a(ps);
    EXPECT_EQ(a.assign(0b0111).patternId, 1);
    EXPECT_EQ(a.assign(0b0011).patternId, 1) << "duplicate pattern";
    EXPECT_EQ(a.assign(0b1110).patternId, 2);
}

TEST(PatternAssigner, ScansEveryBlockOfALargeTable)
{
    // 200 patterns span four 64-pattern scan blocks. Fill them with
    // far-away values, then plant the unique nearest pattern in the
    // third block and an exact match (twice) in the fourth.
    std::vector<uint64_t> pats(200, 0xFF00);
    pats[150] = 0x00F1;
    pats[190] = 0x00F3;
    pats[195] = 0x00F3;
    PatternSet ps(16, pats);
    for (SimdIsa isa : simd::availableIsas()) {
        PatternAssigner a(ps, isa);
        const RowAssignment near = a.assign(0x00F0);
        EXPECT_EQ(near.patternId, 151) << simdIsaName(isa);
        EXPECT_EQ(near.negMask, 0x0001u) << simdIsaName(isa);
        const RowAssignment exact = a.assign(0x00F3);
        EXPECT_EQ(exact.patternId, 191) << simdIsaName(isa);
        EXPECT_EQ(exact.nnz(), 0) << simdIsaName(isa);
    }
}

PatternSet
randomPatterns(int k, size_t q, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> pats;
    while (pats.size() < q) {
        uint64_t p = rng.next() & lowMask(k);
        if (p == 0 || isOneHot(p))
            continue;
        pats.push_back(p);
    }
    return PatternSet(k, pats);
}

/** Every backend's assignment equals the scalar assigner's. */
void
expectAgreesWithAssigner(const PatternSet& ps,
                         const std::vector<uint64_t>& rows)
{
    const PatternAssigner scalar(ps, SimdIsa::Scalar);
    for (SimdIsa isa : simd::availableIsas()) {
        const PatternAssigner onIsa(ps, isa);
        for (uint64_t row : rows) {
            const RowAssignment a = scalar.assign(row);
            const RowAssignment got = onIsa.assign(row);
            EXPECT_EQ(got.patternId, a.patternId)
                << simdIsaName(isa) << " row " << row;
            EXPECT_EQ(got.posMask, a.posMask) << simdIsaName(isa);
            EXPECT_EQ(got.negMask, a.negMask) << simdIsaName(isa);
        }
    }
}

TEST(Matcher, AgreesWithAssignerOnAllValues)
{
    // 8-bit tiles: check all 256 possible rows against 16 patterns.
    std::vector<uint64_t> rows(256);
    for (uint64_t row = 0; row < 256; ++row)
        rows[row] = row;
    expectAgreesWithAssigner(randomPatterns(8, 16, 1), rows);
}

TEST(Matcher, AgreesWithAssignerOn16BitSamples)
{
    Rng rng(3);
    std::vector<uint64_t> rows(5000);
    for (auto& row : rows)
        row = rng.next() & 0xffff;
    expectAgreesWithAssigner(randomPatterns(16, 128, 2), rows);
}

TEST(Matcher, DifferencePopcountIsMinimal)
{
    PatternSet ps = randomPatterns(16, 64, 4);
    Rng rng(5);
    std::vector<uint64_t> rows(2000);
    for (auto& row : rows)
        row = rng.next() & 0xffff;
    for (SimdIsa isa : simd::availableIsas()) {
        const PatternAssigner assigner(ps, isa);
        for (uint64_t row : rows) {
            const int chosen = assigner.assign(row).nnz();
            // No pattern (or baseline) may beat the chosen count.
            EXPECT_LE(chosen, popcount64(row)) << simdIsaName(isa);
            for (uint64_t p : ps.patterns())
                EXPECT_LE(chosen, hammingDistance(row, p))
                    << simdIsaName(isa);
        }
    }
}

TEST(Decompose, TileCsrLayoutIsConsistent)
{
    Rng rng(3);
    BinaryMatrix acts = BinaryMatrix::random(64, 16, 0.3, rng);
    PatternSet ps(16, {0xFF00, 0x00FF, 0xF0F0});
    PatternAssigner assigner(ps);
    TileDecomposition tile = decomposeTile(acts, 0, assigner);
    EXPECT_EQ(tile.numRows(), 64u);
    EXPECT_EQ(tile.l2Offsets.size(), 65u);
    EXPECT_EQ(tile.l2Offsets.back(), tile.l2Entries.size());
    for (size_t r = 0; r < 64; ++r) {
        auto [lo, hi] = tile.rowRange(r);
        EXPECT_LE(lo, hi);
        for (uint32_t e = lo; e < hi; ++e) {
            EXPECT_LT(tile.l2Entries[e].col, 16);
            EXPECT_TRUE(tile.l2Entries[e].sign == 1 ||
                        tile.l2Entries[e].sign == -1);
            if (e + 1 < hi) {
                EXPECT_LT(tile.l2Entries[e].col,
                          tile.l2Entries[e + 1].col)
                    << "entries must be column-sorted";
            }
        }
    }
}

TEST(Decompose, ReconstructionIsExact)
{
    Rng rng(5);
    BinaryMatrix acts = BinaryMatrix::random(128, 64, 0.25, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 32;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    BinaryMatrix rebuilt = reconstructActivations(dec, table);
    EXPECT_TRUE(rebuilt == acts);
}

TEST(Decompose, RaggedFinalPartition)
{
    // K not a multiple of k: the final tile is narrower.
    Rng rng(7);
    BinaryMatrix acts = BinaryMatrix::random(50, 27, 0.4, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 16;
    PatternTable table = calibrateLayer(acts, cfg);
    EXPECT_EQ(table.numPartitions(), 2u);
    LayerDecomposition dec = decomposeLayer(acts, table);
    EXPECT_TRUE(reconstructActivations(dec, table) == acts);
}

TEST(Decompose, CountersAreConsistent)
{
    Rng rng(9);
    BinaryMatrix acts = BinaryMatrix::random(100, 48, 0.2, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 16;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);

    size_t nnz = 0;
    size_t assigned = 0;
    for (const auto& t : dec.tiles) {
        nnz += t.l2Nnz();
        for (uint16_t id : t.patternIds)
            if (id)
                ++assigned;
    }
    EXPECT_EQ(dec.totalL2Nnz(), nnz);
    EXPECT_EQ(dec.totalAssigned(), assigned);
}

TEST(Decompose, L2NeverExceedsBitNnz)
{
    // The assignment rule guarantees per-row-tile L2 nnz <= popcount,
    // so Phi's online work never exceeds bit sparsity.
    Rng rng(11);
    BinaryMatrix acts = BinaryMatrix::random(200, 64, 0.3, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 64;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    for (const auto& tile : dec.tiles) {
        for (size_t r = 0; r < tile.numRows(); ++r) {
            auto [lo, hi] = tile.rowRange(r);
            const size_t start =
                tile.partition * static_cast<size_t>(dec.k);
            const uint64_t row = acts.extract(r, start, dec.k);
            EXPECT_LE(hi - lo,
                      static_cast<uint32_t>(popcount64(row)));
        }
    }
}

/**
 * Brute-force oracle for one decomposed layer: the assignment rule as
 * a plain loop (strict improvement over the row's popcount, earliest
 * pattern on ties) and the Level 2 entries it implies, in ascending
 * column order.
 */
void
expectMatchesOracle(const BinaryMatrix& acts, const PatternTable& table,
                    const LayerDecomposition& dec, const std::string& what)
{
    const int k = table.k();
    ASSERT_EQ(dec.m, acts.rows()) << what;
    ASSERT_EQ(dec.kTotal, acts.cols()) << what;
    ASSERT_EQ(dec.tiles.size(),
              ceilDiv(acts.cols(), static_cast<size_t>(k)))
        << what;
    for (size_t p = 0; p < dec.tiles.size(); ++p) {
        const TileDecomposition& tile = dec.tiles[p];
        const std::vector<uint64_t>& pats = table.partition(p).patterns();
        ASSERT_EQ(tile.numRows(), acts.rows()) << what;
        for (size_t r = 0; r < acts.rows(); ++r) {
            const uint64_t row =
                acts.extract(r, p * static_cast<size_t>(k), k);
            uint16_t id = 0;
            uint64_t pat = 0;
            int best = popcount64(row);
            for (size_t i = 0; i < pats.size(); ++i) {
                const int d = popcount64(row ^ pats[i]);
                if (d < best) {
                    best = d;
                    id = static_cast<uint16_t>(i + 1);
                    pat = pats[i];
                }
            }
            ASSERT_EQ(tile.patternIds[r], id)
                << what << " partition " << p << " row " << r;
            std::vector<std::pair<int, int>> want;
            for (int b = 0; b < k; ++b) {
                const bool inRow = (row >> b) & 1;
                const bool inPat = (pat >> b) & 1;
                if (inRow != inPat)
                    want.emplace_back(b, inRow ? 1 : -1);
            }
            std::vector<std::pair<int, int>> got;
            auto [lo, hi] = tile.rowRange(r);
            for (uint32_t e = lo; e < hi; ++e)
                got.emplace_back(tile.l2Entries[e].col,
                                 tile.l2Entries[e].sign);
            ASSERT_EQ(got, want)
                << what << " partition " << p << " row " << r;
        }
    }
}

/** A calibrated-looking layer: q patterns per partition (the last
 *  duplicating the first, so ties between patterns occur), rows drawn
 *  near the patterns, all-zero rows, and an optional empty set. */
struct OracleLayer
{
    BinaryMatrix acts;
    PatternTable table;
};

OracleLayer
oracleLayer(size_t m, size_t kTotal, int k, size_t q, uint64_t seed,
            bool emptyFirstPartition)
{
    Rng rng(seed);
    const size_t parts = ceilDiv(kTotal, static_cast<size_t>(k));
    std::vector<PatternSet> sets;
    for (size_t p = 0; p < parts; ++p) {
        const size_t width =
            std::min(static_cast<size_t>(k), kTotal - p * k);
        const uint64_t mask = lowMask(static_cast<int>(width));
        std::vector<uint64_t> pats;
        if (!(emptyFirstPartition && p == 0)) {
            for (size_t i = 0; i < q; ++i)
                pats.push_back(rng.next() & rng.next() & mask);
            if (q > 1)
                pats.back() = pats.front();
        }
        sets.emplace_back(k, std::move(pats));
    }
    PatternTable table(k, std::move(sets));

    BinaryMatrix acts(m, kTotal);
    for (size_t r = 0; r < m; ++r) {
        for (size_t p = 0; p < parts; ++p) {
            const size_t start = p * static_cast<size_t>(k);
            const size_t width =
                std::min(static_cast<size_t>(k), kTotal - start);
            const uint64_t mask = lowMask(static_cast<int>(width));
            const auto& pats = table.partition(p).patterns();
            uint64_t v = 0;
            const int pick = static_cast<int>(rng.nextBounded(4));
            if (pick == 1 && !pats.empty()) {
                // A pattern with up to three bits flipped.
                v = pats[rng.nextBounded(pats.size())];
                for (int f = static_cast<int>(rng.nextBounded(4)); f > 0;
                     --f)
                    v ^= 1ull << rng.nextBounded(width);
            } else if (pick >= 2) {
                v = rng.next() & rng.next() & rng.next();
            }
            acts.deposit(r, start, static_cast<int>(width), v & mask);
        }
    }
    return {std::move(acts), std::move(table)};
}

TEST(Decompose, BitIdenticalAcrossIsaAndThreads)
{
    struct Case
    {
        size_t m, kTotal;
        int k;
        size_t q;
        bool emptyFirst;
    };
    std::vector<Case> cases;
    // q crosses the 64-pattern scan block and every SIMD tail; 53
    // columns leave a ragged 5-bit final partition.
    for (size_t q : {1, 13, 64, 127, 128, 200})
        cases.push_back({300, 53, 16, q, false});
    cases.push_back({300, 145, 64, 64, false}); // k = 64, ragged
    cases.push_back({100, 40, 16, 13, true});   // empty PatternSet

    for (const Case& c : cases) {
        const OracleLayer layer =
            oracleLayer(c.m, c.kTotal, c.k, c.q, c.q * 7 + c.k, c.emptyFirst);
        for (SimdIsa isa : simd::availableIsas()) {
            for (int threads : {1, 2, 8}) {
                ExecutionConfig exec;
                exec.threads = threads;
                exec.isa = isa;
                const std::string what =
                    std::string(simdIsaName(isa)) + " threads=" +
                    std::to_string(threads) + " k=" +
                    std::to_string(c.k) + " q=" + std::to_string(c.q);
                expectMatchesOracle(
                    layer.acts, layer.table,
                    decomposeLayer(layer.acts, layer.table, exec), what);
            }
        }
    }

    // Exhaustive 4-bit rows against a table with ties of every kind:
    // 0010 ties 0011 against its own popcount (no pattern), 0111 ties
    // 0011 and 0110 (earliest wins), 0011 repeats (earliest wins).
    const PatternSet ties(4, {0b0011, 0b0110, 0b0011});
    const PatternTable table(4, {ties, ties, PatternSet(4, {})});
    BinaryMatrix acts(16, 10);
    for (size_t r = 0; r < 16; ++r) {
        acts.deposit(r, 0, 4, r);
        acts.deposit(r, 4, 4, 15 - r);
        acts.deposit(r, 8, 2, r & 3);
    }
    for (SimdIsa isa : simd::availableIsas()) {
        ExecutionConfig exec;
        exec.isa = isa;
        expectMatchesOracle(acts, table, decomposeLayer(acts, table, exec),
                            simdIsaName(isa));
    }
}

/** Property sweep: losslessness across densities x k x q. */
struct SweepParam
{
    double density;
    int k;
    int q;
};

class DecomposeSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(DecomposeSweep, LosslessReconstruction)
{
    const auto [density, k, q] = GetParam();
    Rng rng(static_cast<uint64_t>(density * 1000) + k * 31 + q);
    BinaryMatrix acts = BinaryMatrix::random(96, 80, density, rng);
    CalibrationConfig cfg;
    cfg.k = k;
    cfg.q = q;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    EXPECT_TRUE(reconstructActivations(dec, table) == acts)
        << "density=" << density << " k=" << k << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(
    DensityKq, DecomposeSweep,
    ::testing::Values(SweepParam{0.02, 16, 32}, SweepParam{0.05, 16, 32},
                      SweepParam{0.10, 16, 128}, SweepParam{0.20, 16, 64},
                      SweepParam{0.50, 16, 128}, SweepParam{0.90, 16, 32},
                      SweepParam{0.10, 4, 8}, SweepParam{0.10, 8, 16},
                      SweepParam{0.10, 32, 64}, SweepParam{0.10, 64, 64},
                      SweepParam{0.30, 8, 128}, SweepParam{0.70, 32, 32}));

} // namespace
} // namespace phi
