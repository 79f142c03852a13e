/**
 * @file
 * Tests for the systolic pattern matcher: functional equivalence with
 * the algorithmic assigner on every SIMD backend, and the throughput
 * model.
 */

#include <gtest/gtest.h>

#include "arch/pattern_matcher.hh"
#include "common/rng.hh"
#include "core/kmeans.hh"
#include "numeric/simd.hh"

namespace phi
{
namespace
{

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

/** Batch-match rows on one backend. */
std::vector<RowAssignment>
matchOn(const PatternMatcher& matcher, const std::vector<uint64_t>& rows,
        SimdIsa isa)
{
    ExecutionConfig exec;
    exec.isa = isa;
    return matcher.matchAll(rows, exec);
}

/** Every backend's matchAll, and match(), equal the scalar assigner. */
void
expectAgreesWithAssigner(const PatternSet& ps,
                         const std::vector<uint64_t>& rows)
{
    PatternMatcher matcher(ps);
    PatternAssigner assigner(ps, SimdIsa::Scalar);
    for (SimdIsa isa : simd::availableIsas()) {
        const auto got = matchOn(matcher, rows, isa);
        ASSERT_EQ(got.size(), rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
            const RowAssignment a = assigner.assign(rows[i]);
            const RowAssignment one = matcher.match(rows[i]);
            EXPECT_EQ(got[i].patternId, a.patternId)
                << simdIsaName(isa) << " row " << rows[i];
            EXPECT_EQ(got[i].posMask, a.posMask) << simdIsaName(isa);
            EXPECT_EQ(got[i].negMask, a.negMask) << simdIsaName(isa);
            EXPECT_EQ(one.patternId, a.patternId) << "row " << rows[i];
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
    PatternMatcher matcher(ps);
    Rng rng(5);
    std::vector<uint64_t> rows(2000);
    for (auto& row : rows)
        row = rng.next() & 0xffff;
    for (SimdIsa isa : simd::availableIsas()) {
        const auto got = matchOn(matcher, rows, isa);
        for (size_t i = 0; i < rows.size(); ++i) {
            const int chosen = got[i].nnz();
            // No pattern (or baseline) may beat the chosen count.
            EXPECT_LE(chosen, popcount64(rows[i])) << simdIsaName(isa);
            for (uint64_t p : ps.patterns())
                EXPECT_LE(chosen, hammingDistance(rows[i], p))
                    << simdIsaName(isa);
        }
    }
}

TEST(Matcher, ThroughputModel)
{
    PatternSet ps = randomPatterns(16, 128, 6);
    PatternMatcher matcher(ps, 8);
    EXPECT_EQ(matcher.cycles(0), 0u);
    // Pipeline depth q=128 plus ceil(rows/lanes).
    EXPECT_EQ(matcher.cycles(1), 128u + 1u);
    EXPECT_EQ(matcher.cycles(800), 128u + 100u);
    EXPECT_EQ(matcher.cycles(801), 128u + 101u);
}

TEST(Matcher, LaneCountScalesThroughput)
{
    PatternSet ps = randomPatterns(16, 32, 7);
    PatternMatcher one(ps, 1);
    PatternMatcher four(ps, 4);
    EXPECT_GT(one.cycles(1000), four.cycles(1000));
}

TEST(Matcher, ComparisonCountIncludesBaseline)
{
    PatternSet ps = randomPatterns(16, 32, 8);
    PatternMatcher matcher(ps);
    EXPECT_EQ(matcher.comparisonsPerRow(), 33u);
}

} // namespace
} // namespace phi
