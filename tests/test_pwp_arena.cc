/**
 * @file
 * PwpArena tests: the tiled-contiguous serving path must be
 * bit-identical to spikeGemm at every quantization tier, on every
 * compiled-in SIMD backend; tier selection must be provably lossless
 * (narrower only when every value round-trips, silent fallback
 * otherwise); and the bandwidth accounting must match the layout.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "core/calibration.hh"
#include "core/pwp.hh"
#include "numeric/simd.hh"
#include "test_support.hh"

namespace phi
{
namespace
{

const PwpTier kAllTiers[] = {PwpTier::Int32, PwpTier::Int16,
                             PwpTier::Int8};

/** One hand-made single-row partition holding the given values. */
std::vector<Matrix<int32_t>>
onePartition(std::initializer_list<int32_t> values)
{
    Matrix<int32_t> m(1, values.size());
    size_t c = 0;
    for (int32_t v : values)
        m(0, c++) = v;
    std::vector<Matrix<int32_t>> pwps;
    pwps.push_back(std::move(m));
    return pwps;
}

TEST(PwpArena, PicksNarrowestExactTierAtOrAboveRequest)
{
    // Values in int8 range: every request is reachable.
    const auto small = onePartition({-128, 0, 127});
    EXPECT_EQ(PwpArena(small, 3, PwpTier::Int32).tier(), PwpTier::Int32);
    EXPECT_EQ(PwpArena(small, 3, PwpTier::Int16).tier(), PwpTier::Int16);
    EXPECT_EQ(PwpArena(small, 3, PwpTier::Int8).tier(), PwpTier::Int8);

    // 128 overflows int8: an Int8 request must fall back to Int16,
    // never clamp.
    const auto mid = onePartition({-32768, 128, 32767});
    EXPECT_EQ(PwpArena(mid, 3, PwpTier::Int8).tier(), PwpTier::Int16);
    EXPECT_EQ(PwpArena(mid, 3, PwpTier::Int16).tier(), PwpTier::Int16);

    // 32768 overflows int16 too: every narrow request lands on int32.
    const auto wide = onePartition({32768, -5, 2});
    EXPECT_EQ(PwpArena(wide, 3, PwpTier::Int8).tier(), PwpTier::Int32);
    EXPECT_EQ(PwpArena(wide, 3, PwpTier::Int16).tier(), PwpTier::Int32);
    EXPECT_EQ(PwpArena(wide, 3, PwpTier::Int32).tier(), PwpTier::Int32);
}

TEST(PwpArena, MaterializeRoundTripsEveryTier)
{
    Rng rng(11);
    std::vector<Matrix<int32_t>> pwps;
    for (size_t p = 0; p < 3; ++p) {
        Matrix<int32_t> m(2 + p, 5);
        for (size_t r = 0; r < m.rows(); ++r)
            for (size_t c = 0; c < 5; ++c)
                m(r, c) = static_cast<int32_t>(rng.uniformInt(-100, 100));
        pwps.push_back(std::move(m));
    }
    for (PwpTier tier : kAllTiers) {
        PwpArena arena(pwps, 5, tier);
        const auto back = arena.materialize();
        ASSERT_EQ(back.size(), pwps.size()) << pwpTierName(tier);
        for (size_t p = 0; p < pwps.size(); ++p)
            EXPECT_EQ(back[p], pwps[p])
                << pwpTierName(tier) << " partition " << p;
    }
}

TEST(PwpArena, AccountsRowsStrideAndBytes)
{
    const auto pwps = onePartition({1, 2, 3});
    PwpArena a8(pwps, 3, PwpTier::Int8);
    EXPECT_EQ(a8.tier(), PwpTier::Int8);
    EXPECT_EQ(a8.rows(), 1u);
    EXPECT_EQ(a8.cols(), 3u);
    EXPECT_EQ(a8.numPartitions(), 1u);
    EXPECT_EQ(a8.rowsInPartition(0), 1u);
    // Stride is padded to whole cache lines at the element width.
    EXPECT_EQ(a8.stride() * pwpTierBytes(a8.tier()) % 64, 0u);
    EXPECT_EQ(a8.bytes(), a8.rows() * a8.stride());
    EXPECT_FALSE(a8.empty());

    PwpArena empty({}, 0);
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.bytes(), 0u);
}

TEST(PwpArena, TierFootprintScalesWithElementWidth)
{
    PatternTable table(16, {PatternSet(16, {1, 2}),
                            PatternSet(16, {3})});
    const PwpTierFootprint fp = pwpTierFootprint(table, 32);
    EXPECT_EQ(fp.at(PwpTier::Int32), 3u * 32u * 4u);
    EXPECT_EQ(fp.at(PwpTier::Int16), 3u * 32u * 2u);
    EXPECT_EQ(fp.at(PwpTier::Int8), 3u * 32u * 1u);
    EXPECT_EQ(fp.at(PwpTier::Int32), pwpBytes(table, 32, 4));
}

struct ArenaShape
{
    size_t m, k_total, n;
    double density;
    int k, q;
    int wmax; // weight magnitude: small values make int8 reachable
};

class PwpArenaSweep : public ::testing::TestWithParam<ArenaShape>
{
};

// The test ID predates the removal of the per-partition serve path;
// the sweep now checks every tier and backend against spikeGemm.
TEST_P(PwpArenaSweep, ArenaServingIsBitIdenticalToLegacyAndReference)
{
    const auto p = GetParam();
    Rng rng(p.m * 13 + p.k_total * 5 + p.n);
    BinaryMatrix acts =
        BinaryMatrix::random(p.m, p.k_total, p.density, rng);
    Rng wr(p.m + p.n);
    Matrix<int16_t> w(p.k_total, p.n);
    for (size_t r = 0; r < w.rows(); ++r)
        for (size_t c = 0; c < p.n; ++c)
            w(r, c) = static_cast<int16_t>(
                wr.uniformInt(-p.wmax, p.wmax));

    CalibrationConfig cfg;
    cfg.k = p.k;
    cfg.q = p.q;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);

    ExecutionConfig scalar;
    scalar.threads = 1;
    scalar.isa = SimdIsa::Scalar;
    const Matrix<int32_t> ref = spikeGemm(acts, w, scalar);
    const auto pwps = computeLayerPwps(table, w, scalar);

    for (PwpTier tier : kAllTiers) {
        PwpArena arena(pwps, p.n, tier);
        for (SimdIsa isa : simd::availableIsas()) {
            ExecutionConfig exec;
            exec.threads = 3; // exercise the parallel chunking too
            exec.isa = isa;
            EXPECT_EQ(phiGemmWithArena(dec, arena, w, exec), ref)
                << pwpTierName(tier) << " on " << simdIsaName(isa);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PwpArenaSweep,
    ::testing::Values(
        // Ragged everything: K not a multiple of k, odd n.
        ArenaShape{100, 17, 3, 0.3, 16, 8, 40},
        // Vector-friendly, wide n crossing the 512-column tile.
        ArenaShape{64, 64, 600, 0.15, 16, 32, 40},
        // Tiny weights: the Int8 request genuinely lands on int8.
        ArenaShape{80, 48, 20, 0.2, 16, 16, 2},
        // Single row, single column.
        ArenaShape{1, 16, 1, 0.5, 16, 4, 40},
        // Dense activations, several partitions.
        ArenaShape{50, 96, 33, 0.6, 16, 12, 10}));

TEST(PwpArenaServe, EmptyPatternTableServesPureL2)
{
    // With no patterns anywhere the arena is empty and serving is all
    // Level 2 corrections; the gather kernels must handle the
    // zero-row arena without touching it.
    Rng rng(43);
    BinaryMatrix acts = BinaryMatrix::random(30, 32, 0.3, rng);
    Matrix<int16_t> w = test::randomWeights(32, 9, 44);
    PatternTable table(16, {PatternSet(16, {}), PatternSet(16, {})});
    LayerDecomposition dec = decomposeLayer(acts, table);
    const auto pwps = computeLayerPwps(table, w);
    for (PwpTier tier : kAllTiers) {
        PwpArena arena(pwps, 9, tier);
        EXPECT_TRUE(arena.empty());
        EXPECT_EQ(phiGemmWithArena(dec, arena, w), spikeGemm(acts, w))
            << pwpTierName(tier);
    }
}

TEST(PwpArenaServe, ServesDecompositionsWithoutCachedIndex)
{
    // A hand-assembled decomposition carries tiles only, which is
    // all the offline gather reads.
    Rng rng(47);
    BinaryMatrix acts = BinaryMatrix::random(70, 48, 0.2, rng);
    Matrix<int16_t> w = test::randomWeights(48, 40, 48);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 16;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    LayerDecomposition bare;
    bare.m = dec.m;
    bare.kTotal = dec.kTotal;
    bare.k = dec.k;
    bare.tiles = dec.tiles;

    const Matrix<int32_t> ref = spikeGemm(acts, w);
    EXPECT_EQ(phiGemm(bare, table, w), ref);
    const PwpArena arena(computeLayerPwps(table, w), 40, PwpTier::Int16);
    EXPECT_EQ(phiGemmWithArena(bare, arena, w), ref);
}

} // namespace
} // namespace phi
