/**
 * @file
 * Tests for the Table-4 sparsity accounting, the LatencyHistogram
 * behind every served latency, and ServingStats' resilience counters
 * (expired/shed/watchdogRestarts, the deadline-miss histogram) and
 * their merge() semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "core/calibration.hh"
#include "core/stats.hh"

namespace phi
{
namespace
{

TEST(Stats, IdentityDecompositionAccounting)
{
    // Handcrafted: one 4-bit partition, patterns {0110, 1101}.
    BinaryMatrix acts(4, 4);
    acts.deposit(0, 0, 4, 0b0110); // exact pattern 1
    acts.deposit(1, 0, 4, 0b1100); // pattern 2 with one -1
    acts.deposit(2, 0, 4, 0b1110); // pattern 1 with one +1
    acts.deposit(3, 0, 4, 0b0001); // unassigned, one +1

    PatternTable table(4, {PatternSet(4, {0b0110, 0b1101})});
    LayerDecomposition dec = decomposeLayer(acts, table);
    SparsityBreakdown b = computeBreakdown(acts, dec, table);

    EXPECT_EQ(b.elements, 16u);
    EXPECT_EQ(b.bitOnes, 8u);
    // L1 ones: pattern1(2) + pattern2(3) + pattern1(2) = 7.
    EXPECT_EQ(b.l1Ones, 7u);
    EXPECT_EQ(b.l2Pos, 2u); // rows 2 and 3
    EXPECT_EQ(b.l2Neg, 1u); // row 1
    EXPECT_EQ(b.assigned, 3u);
    EXPECT_DOUBLE_EQ(b.bitDensity, 8.0 / 16.0);
    EXPECT_DOUBLE_EQ(b.l1Density, 7.0 / 16.0);
    EXPECT_DOUBLE_EQ(b.l2PosDensity, 2.0 / 16.0);
    EXPECT_DOUBLE_EQ(b.l2NegDensity, 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(b.indexDensity, 3.0 / 4.0);
}

TEST(Stats, SignedIdentityHolds)
{
    // ones(A) == ones(L1) + (#+1) - (#-1): the decomposition identity
    // behind Table 4's near-equality of Bit and L1+L2p-L2n.
    Rng rng(2);
    BinaryMatrix acts = BinaryMatrix::random(128, 64, 0.3, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 32;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    SparsityBreakdown b = computeBreakdown(acts, dec, table);
    EXPECT_EQ(b.bitOnes + b.l2Neg, b.l1Ones + b.l2Pos);
}

TEST(Stats, TheoreticalSpeedups)
{
    SparsityBreakdown b;
    b.bitDensity = 0.10;
    b.l2PosDensity = 0.015;
    b.l2NegDensity = 0.005;
    EXPECT_NEAR(b.speedupOverBit(), 5.0, 1e-9);
    EXPECT_NEAR(b.speedupOverDense(), 50.0, 1e-9);
}

TEST(Stats, MergeIsElementWeighted)
{
    SparsityBreakdown a;
    a.elements = 100;
    a.rowTiles = 10;
    a.bitOnes = 10;
    a.assigned = 5;
    SparsityBreakdown b;
    b.elements = 300;
    b.rowTiles = 30;
    b.bitOnes = 90;
    b.assigned = 15;
    SparsityBreakdown m = mergeBreakdowns({a, b});
    EXPECT_EQ(m.elements, 400u);
    EXPECT_DOUBLE_EQ(m.bitDensity, 100.0 / 400.0);
    EXPECT_DOUBLE_EQ(m.indexDensity, 20.0 / 40.0);
}

TEST(Stats, VectorDensityDropsWithLargerK)
{
    // One PWP accumulation replaces k MACs, so the vector-wise
    // computational density must scale ~1/k (Fig. 7a trend).
    Rng rng(3);
    BinaryMatrix acts = BinaryMatrix::random(256, 64, 0.35, rng);
    auto vector_density = [&](int k) {
        CalibrationConfig cfg;
        cfg.k = k;
        cfg.q = 64;
        PatternTable table = calibrateLayer(acts, cfg);
        LayerDecomposition dec = decomposeLayer(acts, table);
        return computeBreakdown(acts, dec, table).vectorDensity;
    };
    EXPECT_GT(vector_density(4), vector_density(16));
    EXPECT_GT(vector_density(16), vector_density(64));
}

TEST(Stats, L2DensityNeverExceedsBitDensity)
{
    for (double d : {0.05, 0.1, 0.2, 0.5}) {
        Rng rng(static_cast<uint64_t>(d * 100));
        BinaryMatrix acts = BinaryMatrix::random(128, 64, d, rng);
        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = 128;
        PatternTable table = calibrateLayer(acts, cfg);
        LayerDecomposition dec = decomposeLayer(acts, table);
        SparsityBreakdown b = computeBreakdown(acts, dec, table);
        EXPECT_LE(b.l2Density(), b.bitDensity + 1e-12)
            << "density " << d;
    }
}

/** Log-uniform samples over [1 us, 10 s] from a fixed seed. */
std::vector<double>
logUniformSeconds(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (double& x : v)
        x = 1e-6 * std::pow(1e7, rng.uniform());
    return v;
}

LatencyHistogram
histogramOf(const std::vector<double>& seconds)
{
    LatencyHistogram h;
    for (double s : seconds)
        h.record(s);
    return h;
}

static_assert(sizeof(LatencyHistogram) <= 4352,
              "the histogram is a fixed inline array of ~4 KiB");

TEST(LatencyHistogram, PercentilesMatchNearestRankToOneBucket)
{
    std::vector<double> samples = logUniformSeconds(20000, 7);
    const LatencyHistogram h = histogramOf(samples);
    std::sort(samples.begin(), samples.end());
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        const size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(samples.size())));
        const double exact = samples[rank - 1];
        const auto want = static_cast<long>(
            LatencyHistogram::bucketOf(exact));
        const auto got = static_cast<long>(
            LatencyHistogram::bucketOf(h.percentileMs(p) * 1e-3));
        EXPECT_LE(std::abs(got - want), 1) << "p" << p;
        EXPECT_NEAR(h.percentileMs(p), exact * 1e3, exact * 1e3 * 0.0625)
            << "p" << p;
    }
}

TEST(LatencyHistogram, MergeEqualsRecordingBothSets)
{
    const std::vector<double> a = logUniformSeconds(5000, 11);
    const std::vector<double> b = logUniformSeconds(3000, 12);
    std::vector<double> both = a;
    both.insert(both.end(), b.begin(), b.end());

    LatencyHistogram merged = histogramOf(a);
    merged.merge(histogramOf(b));
    const LatencyHistogram direct = histogramOf(both);
    EXPECT_EQ(merged.buckets(), direct.buckets());
    EXPECT_EQ(merged.count(), direct.count());
    for (double p : {0.0, 25.0, 50.0, 99.0, 100.0})
        EXPECT_EQ(merged.percentileMs(p), direct.percentileMs(p))
            << "p" << p;
    EXPECT_NEAR(merged.meanMs(), direct.meanMs(),
                direct.meanMs() * 1e-12);

    // Merging into or from an empty histogram is the identity.
    LatencyHistogram empty;
    empty.merge(direct);
    EXPECT_EQ(empty.buckets(), direct.buckets());
    EXPECT_EQ(empty.percentileMs(0), direct.percentileMs(0));
    merged.merge(LatencyHistogram{});
    EXPECT_EQ(merged.count(), direct.count());
}

TEST(LatencyHistogram, ExtremesAndMeanAreExact)
{
    const std::vector<double> samples = logUniformSeconds(1000, 3);
    const LatencyHistogram h = histogramOf(samples);
    double sum = 0;
    for (double s : samples)
        sum += s;
    const auto [lo, hi] =
        std::minmax_element(samples.begin(), samples.end());
    EXPECT_EQ(h.percentileMs(0), *lo * 1e3);
    EXPECT_EQ(h.percentileMs(100), *hi * 1e3);
    EXPECT_DOUBLE_EQ(h.meanMs(),
                     sum / static_cast<double>(samples.size()) * 1e3);
}

TEST(LatencyHistogram, SingleSampleIsExactAndEmptyIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    for (double p : {0.0, 50.0, 100.0})
        EXPECT_EQ(h.percentileMs(p), 0.0) << "p" << p;
    EXPECT_EQ(h.meanMs(), 0.0);

    h.record(0.0123);
    EXPECT_EQ(h.count(), 1u);
    for (double p : {0.0, 0.1, 50.0, 99.9, 100.0})
        EXPECT_EQ(h.percentileMs(p), 0.0123 * 1e3) << "p" << p;
    EXPECT_EQ(h.meanMs(), 0.0123 * 1e3);
}

TEST(LatencyHistogram, SaturatesAboveTopBucket)
{
    constexpr size_t top = LatencyHistogram::kBuckets - 1;
    EXPECT_EQ(LatencyHistogram::bucketOf(1e4), top);
    EXPECT_EQ(LatencyHistogram::bucketOf(1e300), top);
    EXPECT_EQ(LatencyHistogram::bucketOf(
                  std::numeric_limits<double>::infinity()),
              top);
    // Negative and NaN samples count as 0.
    EXPECT_EQ(LatencyHistogram::bucketOf(-1.0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(
                  std::numeric_limits<double>::quiet_NaN()),
              0u);

    LatencyHistogram h;
    h.record(1e4);
    h.record(1e300);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.buckets()[top], 2u);
    EXPECT_EQ(h.percentileMs(0), 1e4 * 1e3);
    EXPECT_EQ(h.percentileMs(50), 1e4 * 1e3); // clamped to the min
    EXPECT_EQ(h.percentileMs(100), 1e300 * 1e3);
}

TEST(ServingStatsResilience, DeadlineMissLandsInTheRightBucket)
{
    ServingStats s;
    const std::vector<double> late = {0.0005, 0.005, 0.05,
                                      0.5,    5.0,   50.0};
    for (double l : late)
        s.recordDeadlineMiss(l);
    EXPECT_EQ(s.expired, 6u);
    EXPECT_EQ(s.deadlineMiss.count(), 6u);
    for (double l : late)
        EXPECT_EQ(s.deadlineMiss.buckets()[LatencyHistogram::bucketOf(l)],
                  1u)
            << "late " << l << " s";
    EXPECT_EQ(s.deadlineMiss.percentileMs(0), 0.0005 * 1e3);
    EXPECT_EQ(s.deadlineMiss.percentileMs(100), 50.0 * 1e3);
}

TEST(ServingStatsResilience, MergeAddsResilienceCounters)
{
    ServingStats a;
    a.recordDeadlineMiss(0.0005);
    a.recordDeadlineMiss(0.5);
    a.shed = 2;
    a.watchdogRestarts = 1;
    a.rejected = 4;

    ServingStats b;
    b.recordDeadlineMiss(0.0007);
    b.shed = 1;
    b.watchdogRestarts = 2;

    a.merge(b);
    EXPECT_EQ(a.expired, 3u);
    EXPECT_EQ(a.shed, 3u);
    EXPECT_EQ(a.watchdogRestarts, 3u);
    EXPECT_EQ(a.rejected, 4u);
    EXPECT_EQ(a.deadlineMiss.count(), 3u);
    const auto& buckets = a.deadlineMiss.buckets();
    EXPECT_EQ(buckets[LatencyHistogram::bucketOf(0.0005)], 1u);
    EXPECT_EQ(buckets[LatencyHistogram::bucketOf(0.0007)], 1u);
    EXPECT_EQ(buckets[LatencyHistogram::bucketOf(0.5)], 1u);
    EXPECT_EQ(a.deadlineMiss.percentileMs(0), 0.0005 * 1e3);
    EXPECT_EQ(a.deadlineMiss.percentileMs(100), 0.5 * 1e3);
}

TEST(ServingStatsSessions, MergeAddsSessionCounters)
{
    ServingStats a;
    a.sessionsOpened = 4;
    a.sessionsClosed = 1;
    a.sessionsExpired = 1;
    a.sessionsRejected = 2;
    a.sessionSteps = 40;

    ServingStats b;
    b.sessionsOpened = 2;
    b.sessionsClosed = 1;
    b.sessionSteps = 10;

    a.merge(b);
    EXPECT_EQ(a.sessionsOpened, 6u);
    EXPECT_EQ(a.sessionsClosed, 2u);
    EXPECT_EQ(a.sessionsExpired, 1u);
    EXPECT_EQ(a.sessionsRejected, 2u);
    EXPECT_EQ(a.sessionSteps, 50u);
    // Derived views over the merged counters.
    EXPECT_EQ(a.activeSessions(), 3u); // 6 opened - 2 closed - 1 expired
    EXPECT_DOUBLE_EQ(a.meanStepsPerSession(), 50.0 / 6.0);
}

TEST(ServingStatsSessions, DerivedViewsAreSafeOnEmptyStats)
{
    ServingStats s;
    EXPECT_EQ(s.activeSessions(), 0u);
    EXPECT_DOUBLE_EQ(s.meanStepsPerSession(), 0.0);
    // Closed+expired exceeding opened (merged partial windows) must
    // not underflow the active count.
    s.sessionsClosed = 3;
    EXPECT_EQ(s.activeSessions(), 0u);
}

} // namespace
} // namespace phi
