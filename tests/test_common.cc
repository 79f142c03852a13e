/**
 * @file
 * Unit tests for the common substrate: bit ops, RNG, tables, logging,
 * the EngineError taxonomy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"

namespace phi
{
namespace
{

TEST(Bitops, PopcountMatchesBuiltin)
{
    EXPECT_EQ(popcount64(0), 0);
    EXPECT_EQ(popcount64(~0ull), 64);
    EXPECT_EQ(popcount64(0b1011), 3);
}

TEST(Bitops, LowMaskBounds)
{
    EXPECT_EQ(lowMask(0), 0ull);
    EXPECT_EQ(lowMask(1), 1ull);
    EXPECT_EQ(lowMask(16), 0xffffull);
    EXPECT_EQ(lowMask(64), ~0ull);
    EXPECT_EQ(lowMask(-3), 0ull);
    EXPECT_EQ(lowMask(100), ~0ull);
}

TEST(Bitops, HammingDistance)
{
    EXPECT_EQ(hammingDistance(0b1010, 0b0101), 4);
    EXPECT_EQ(hammingDistance(0xffff, 0xffff), 0);
    EXPECT_EQ(hammingDistance(0b1, 0b0), 1);
}

TEST(Bitops, OneHotDetection)
{
    EXPECT_FALSE(isOneHot(0));
    EXPECT_TRUE(isOneHot(1));
    EXPECT_TRUE(isOneHot(0x8000));
    EXPECT_FALSE(isOneHot(3));
}

TEST(Bitops, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(roundUp(10, 4), 12);
    EXPECT_EQ(roundUp(8, 4), 8);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(15);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0;
    double sq = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ZipfSkewsTowardLowIndices)
{
    Rng rng(19);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[rng.zipf(8, 1.2)];
    EXPECT_GT(counts[0], counts[3]);
    EXPECT_GT(counts[0], counts[7]);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(21);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(23);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(Table, AlignedPrintContainsCells)
{
    Table t({"col1", "metric"});
    t.addRow({"row", "1.50"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("col1"), std::string::npos);
    EXPECT_NE(os.str().find("1.50"), std::string::npos);
}

TEST(Table, CsvFormat)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(Table::fmtX(3.456, 2), "3.46x");
    EXPECT_EQ(Table::fmtPct(0.9680, 2), "96.80%");
}

TEST(Logging, PanicThrowsInTestMode)
{
    detail::setThrowOnError(true);
    EXPECT_THROW(phi_panic("boom"), std::logic_error);
    EXPECT_THROW(phi_fatal("bad config"), std::runtime_error);
    EXPECT_THROW(phi_assert(false, "nope"), std::logic_error);
    detail::setThrowOnError(false);
}

TEST(Logging, AssertPassesOnTrue)
{
    detail::setThrowOnError(true);
    EXPECT_NO_THROW(phi_assert(1 + 1 == 2, "math"));
    detail::setThrowOnError(false);
}

TEST(EngineErrorCodes, EveryEnumeratorHasAName)
{
    // Logs and test-failure messages must print "QueueFull", never an
    // int. Exhaustive over the enum: codeName(), the free
    // engineErrorCodeName(), and operator<< agree for every
    // enumerator, and no two enumerators share a name.
    const std::pair<EngineError::Code, const char*> expected[] = {
        {EngineErrorCode::EmptyModel, "EmptyModel"},
        {EngineErrorCode::InvalidLayer, "InvalidLayer"},
        {EngineErrorCode::MissingWeights, "MissingWeights"},
        {EngineErrorCode::ShapeMismatch, "ShapeMismatch"},
        {EngineErrorCode::NullActivation, "NullActivation"},
        {EngineErrorCode::QueueFull, "QueueFull"},
        {EngineErrorCode::Stopped, "Stopped"},
        {EngineErrorCode::UnknownModel, "UnknownModel"},
        {EngineErrorCode::ModelExists, "ModelExists"},
        {EngineErrorCode::ModelBusy, "ModelBusy"},
    };
    std::set<std::string> names;
    for (const auto& [code, name] : expected) {
        EXPECT_STREQ(engineErrorCodeName(code), name);

        std::ostringstream os;
        os << code; // the operator<< the satellite demands
        EXPECT_EQ(os.str(), name);

        const EngineError err(code, "ctx");
        EXPECT_EQ(err.code(), code);
        EXPECT_STREQ(err.codeName(), name);
        // what() carries the name too, so untyped catch sites still
        // log something greppable.
        EXPECT_NE(std::string(err.what()).find(name), std::string::npos);
        names.insert(name);
    }
    EXPECT_EQ(names.size(), std::size(expected)) << "duplicate names";
}

TEST(EngineErrorCodes, StreamInsertionComposesWithGtestMessages)
{
    // EXPECT_EQ(e.code(), ...) failure output routes through
    // operator<<; make sure the printable form is the name.
    std::ostringstream os;
    os << "got " << EngineErrorCode::QueueFull << " expecting "
       << EngineError::Code::Stopped;
    EXPECT_EQ(os.str(), "got QueueFull expecting Stopped");
}

} // namespace
} // namespace phi
