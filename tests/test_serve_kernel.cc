/**
 * @file
 * Tests of the fused serve kernel and its lazily filled MatchTable:
 * every table slot equals PatternAssigner::assign, oversized k or q
 * fall back to inline assignment, CompiledLayer::serveInto is
 * bit-identical to spikeGemm at every shape, density, ISA, PWP tier
 * and thread count, and a cold table filled by eight racing threads
 * still serves exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/calibration.hh"
#include "core/compiled_model.hh"
#include "numeric/simd.hh"
#include "test_support.hh"

namespace phi
{
namespace
{

/** Values of one k-bit partition whose table lookup differs from
 *  assign, checked over every value twice: the first pass fills each
 *  slot, the reverse pass reads them back warm, so two values sharing
 *  a slot would show. */
size_t
tableMismatches(const PatternSet& ps, size_t kTotal, size_t partition)
{
    std::vector<PatternSet> sets(partition + 1, PatternSet(ps.k(), {}));
    sets[partition] = ps;
    const PatternTable table(ps.k(), sets);
    const MatchTable matcher(table, kTotal);
    const PatternAssigner assigner(ps);
    const uint64_t values = uint64_t{1} << ps.k();
    size_t bad = 0;
    auto check = [&](uint64_t v) {
        const RowAssignment want = assigner.assign(v);
        const RowAssignment got = matcher.assign(partition, v);
        if (got.patternId != want.patternId ||
            got.posMask != want.posMask || got.negMask != want.negMask)
            ++bad;
    };
    for (uint64_t v = 0; v < values; ++v)
        check(v);
    for (uint64_t v = values; v-- > 0;)
        check(v);
    return bad;
}

std::vector<uint64_t>
randomPatterns(size_t q, int k, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> pats;
    for (size_t i = 0; i < q; ++i)
        pats.push_back(rng.next() & lowMask(k));
    return pats;
}

TEST(MatchTable, EverySlotEqualsAssign)
{
    const std::vector<std::pair<const char*, PatternSet>> cases = {
        // Row 0b0010 is one bit from both patterns: a tie with its own
        // popcount, so no pattern; row 0b0111 ties between the two
        // patterns and takes the earlier.
        {"ties", PatternSet(16, {0b0011, 0b0110})},
        {"duplicates", PatternSet(16, {0xF0F0, 0xF0F0, 0x0F0F})},
        {"empty", PatternSet(16, {})},
        {"q=1", PatternSet(16, {0xFFFF})},
        {"q=128", PatternSet(16, randomPatterns(128, 16, 1))},
        {"q=254", PatternSet(16, randomPatterns(254, 16, 2))},
        {"k=8", PatternSet(8, randomPatterns(40, 8, 3))},
        {"k=1", PatternSet(1, {1})},
    };
    for (const auto& [name, ps] : cases)
        EXPECT_EQ(tableMismatches(ps, static_cast<size_t>(ps.k()), 0), 0u)
            << name;
}

TEST(MatchTable, RaggedLastPartitionMatchesAssign)
{
    // K = 20: partition 1 spans 4 columns, so its patterns and tile
    // values live in the low 4 bits.
    const PatternSet ps(16, {0x3, 0x6, 0xF, 0x9});
    EXPECT_EQ(tableMismatches(ps, 20, 1), 0u);
}

TEST(MatchTable, OversizedKOrQAssignsInline)
{
    const PatternTable q254(16, {PatternSet(16, randomPatterns(254, 16, 4))});
    EXPECT_TRUE(MatchTable(q254, 16).tabled());

    const PatternSet wide(16, randomPatterns(255, 16, 5));
    const MatchTable q255(PatternTable(16, {wide}), 16);
    EXPECT_FALSE(q255.tabled());

    const PatternSet k20(20, randomPatterns(64, 20, 6));
    const MatchTable long20(PatternTable(20, {k20}), 20);
    EXPECT_FALSE(long20.tabled());

    // Inline lookups are assign itself.
    Rng rng(7);
    const PatternAssigner a255(wide), a20(k20);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = rng.next();
        EXPECT_EQ(q255.assign(0, v & 0xFFFF).patternId,
                  a255.assign(v & 0xFFFF).patternId);
        const RowAssignment got = long20.assign(0, v & lowMask(20));
        const RowAssignment want = a20.assign(v & lowMask(20));
        EXPECT_EQ(got.patternId, want.patternId);
        EXPECT_EQ(got.posMask, want.posMask);
        EXPECT_EQ(got.negMask, want.negMask);
    }
}

TEST(MatchTable, RejectsPatternBitsPastTheActivationEdge)
{
    detail::setThrowOnError(true);
    const PatternTable table(16, {PatternSet(16, {0x00FF}),
                                  PatternSet(16, {0x800F})});
    EXPECT_THROW(MatchTable(table, 20), std::logic_error);
    // The same table is fine for a 32-column activation.
    EXPECT_NO_THROW(MatchTable(table, 32));
    detail::setThrowOnError(false);
}

TEST(MatchTable, PatternCountIsCappedAtCompile)
{
    detail::setThrowOnError(true);
    Rng rng(8);
    const BinaryMatrix acts = BinaryMatrix::random(16, 16, 0.3, rng);
    CalibrationConfig cfg;
    cfg.q = 65536;
    EXPECT_THROW(calibrateLayer(acts, cfg), std::logic_error);

    std::vector<uint64_t> pats(65536);
    for (size_t i = 0; i < pats.size(); ++i)
        pats[i] = i;
    std::vector<Matrix<int32_t>> pwps(1);
    EXPECT_THROW(CompiledLayer("wide", PatternTable(16, {PatternSet(16, pats)}),
                               test::randomWeights(16, 4, 9), pwps),
                 std::logic_error);
    detail::setThrowOnError(false);
}

struct ServeShape
{
    size_t m;
    double density;
    int k; // 20 serves through inline assignment
};

class ServeIntoSweep : public ::testing::TestWithParam<ServeShape>
{
};

TEST_P(ServeIntoSweep, BitIdenticalToSpikeGemm)
{
    const ServeShape s = GetParam();
    constexpr size_t kK = 100; // ragged for both k = 16 and k = 20
    constexpr size_t kN = 40;
    Rng rng(s.m * 31 + static_cast<uint64_t>(s.density * 1000) +
            static_cast<uint64_t>(s.k));
    const BinaryMatrix acts =
        BinaryMatrix::random(s.m, kK, s.density, rng);
    const BinaryMatrix calib =
        BinaryMatrix::random(256, kK, s.density, rng);
    // Small weights keep every PWP inside int8, so each tier is real.
    const Matrix<int16_t> w = test::randomWeights(kK, kN, 11, -3, 3);
    CalibrationConfig cfg;
    cfg.k = s.k;
    cfg.q = 24;
    const PatternTable table = calibrateLayer(calib, cfg);
    const auto pwps = computeLayerPwps(table, w);
    const Matrix<int32_t> ref = spikeGemm(acts, w);

    for (PwpTier tier : {PwpTier::Int32, PwpTier::Int16, PwpTier::Int8}) {
        const CompiledLayer layer("l", table, w, pwps, tier);
        ASSERT_EQ(layer.pwpTier(), tier);
        for (SimdIsa isa : simd::availableIsas()) {
            for (int threads : {1, 2, 8}) {
                ExecutionConfig exec;
                exec.isa = isa;
                exec.threads = threads;
                Matrix<int32_t> out =
                    Matrix<int32_t>::uninitialized(s.m, kN);
                layer.serveInto(out, acts, exec);
                EXPECT_EQ(out, ref)
                    << pwpTierName(tier) << " on " << simdIsaName(isa)
                    << " at " << threads << " threads";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ServeIntoSweep,
    ::testing::Values(ServeShape{1, 0.05, 16}, ServeShape{1, 0.3, 16},
                      ServeShape{8, 0.05, 16}, ServeShape{8, 0.12, 16},
                      ServeShape{8, 0.3, 16}, ServeShape{1024, 0.05, 16},
                      ServeShape{1024, 0.12, 16},
                      ServeShape{1024, 0.3, 16}, ServeShape{8, 0.12, 20},
                      ServeShape{1024, 0.12, 20}));

TEST(MatchTableRace, ColdTableServedFromEightThreadsIsExact)
{
    // Eight threads serve one freshly built layer at once, so they race
    // to fill the same cold slots; every output must stay exact.
    constexpr size_t kThreads = 8;
    Rng rng(12);
    const BinaryMatrix calib = BinaryMatrix::random(512, 64, 0.15, rng);
    const Matrix<int16_t> w = test::randomWeights(64, 24, 13);
    CalibrationConfig cfg;
    cfg.q = 32;
    const PatternTable table = calibrateLayer(calib, cfg);
    const auto pwps = computeLayerPwps(table, w);
    std::vector<BinaryMatrix> acts;
    std::vector<Matrix<int32_t>> refs;
    for (size_t t = 0; t < kThreads; ++t) {
        // Overlapping inputs: half the rows are shared by all threads.
        BinaryMatrix a = BinaryMatrix::random(96, 64, 0.15, rng);
        for (size_t r = 0; r < 48; ++r)
            for (size_t c = 0; c < 64; ++c)
                a.set(r, c, calib.get(r, c));
        refs.push_back(spikeGemm(a, w));
        acts.push_back(std::move(a));
    }

    for (int round = 0; round < 4; ++round) {
        const CompiledLayer layer("race", table, w, pwps);
        std::vector<Matrix<int32_t>> outs;
        for (size_t t = 0; t < kThreads; ++t)
            outs.push_back(Matrix<int32_t>::uninitialized(96, 24));
        std::atomic<bool> go{false};
        std::vector<std::thread> pool;
        for (size_t t = 0; t < kThreads; ++t)
            pool.emplace_back([&, t] {
                while (!go.load())
                    std::this_thread::yield();
                ExecutionConfig exec;
                exec.threads = 1;
                layer.serveInto(outs[t], acts[t], exec);
            });
        go.store(true);
        for (auto& th : pool)
            th.join();
        for (size_t t = 0; t < kThreads; ++t)
            EXPECT_EQ(outs[t], refs[t]) << "round " << round << " thread "
                                        << t;
    }
}

} // namespace
} // namespace phi
