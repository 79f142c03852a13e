/**
 * @file
 * Deadline and priority admission tests for AsyncPhiEngine: expired
 * requests are dropped before compute with EngineError(DeadlineExceeded)
 * and accounted in the expired counter + deadline-miss histogram;
 * saturated queues shed lowest-priority-first with
 * EngineError(QueueFull); default SubmitOptions reproduce the old
 * semantics bit-for-bit. (The dispatcher-watchdog side of the
 * resilience layer needs fault injection and lives in test_chaos.cc.)
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hh"
#include "core/pipeline.hh"
#include "runtime/async_engine.hh"
#include "test_support.hh"

namespace phi
{
namespace
{

using Clock = std::chrono::steady_clock;

class AsyncPhiEngineResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(31);
        BinaryMatrix train = BinaryMatrix::random(128, 64, 0.18, rng);
        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = 24;
        cfg.kmeans.maxIters = 8;
        Pipeline pipe(cfg);
        pipe.addLayer("l0", {&train})
            .bindWeights(test::randomWeights(64, 16, 3));
        model = pipe.compile();
        const test::OneModel loaded = test::oneModelRegistry(model);
        registry = loaded.registry;
        handle = loaded.handle;
    }

    BinaryMatrix
    makeActs(uint64_t seed) const
    {
        Rng rng(seed);
        return BinaryMatrix::random(24, 64, 0.2, rng);
    }

    Matrix<int32_t>
    expected(const BinaryMatrix& acts) const
    {
        return model.layer(0).compute(model.layer(0).decompose(acts));
    }

    CompiledModel model;
    /** A registry holding a copy of model, under handle. */
    std::shared_ptr<ModelRegistry> registry;
    ModelHandle handle;
};

TEST_F(AsyncPhiEngineResilienceTest, AlreadyExpiredSubmitFailsFast)
{
    AsyncPhiEngine engine(registry);
    SubmitOptions opts;
    opts.deadline = Clock::now() - std::chrono::milliseconds(5);
    auto fut = engine.submit(handle, 0, makeActs(1), opts);
    try {
        fut.get();
        FAIL() << "expected DeadlineExceeded";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::DeadlineExceeded);
    }
    const ServingStats s = engine.stats();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.deadlineMiss.count(), 1u);
    EXPECT_EQ(s.requests, 0u) << "an expired request must not compute";
}

TEST_F(AsyncPhiEngineResilienceTest, DeadlineExpiresInQueueBeforeCompute)
{
    // A long linger parks the request in the queue well past its
    // deadline; the dispatcher must drop it at dispatch time instead
    // of serving it late.
    AsyncEngineConfig cfg;
    cfg.maxLingerMicros = 120'000;
    AsyncPhiEngine engine(registry, {}, cfg);

    SubmitOptions opts;
    opts.deadline = Clock::now() + std::chrono::milliseconds(5);
    auto doomed = engine.submit(handle, 0, makeActs(2), opts);
    try {
        doomed.get();
        FAIL() << "expected DeadlineExceeded";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::DeadlineExceeded);
    }

    // The engine is unharmed: a deadline-free request serves exactly.
    const BinaryMatrix acts = makeActs(3);
    EXPECT_EQ(engine.submit(handle, 0, acts).get().out, expected(acts));
    engine.drain();
    const ServingStats s = engine.stats();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.deadlineMiss.count(), 1u);
    EXPECT_EQ(s.requests, 1u) << "only the live request computed";
}

TEST_F(AsyncPhiEngineResilienceTest, GenerousDeadlineIsServedNormally)
{
    AsyncPhiEngine engine(registry);
    SubmitOptions opts;
    opts.deadline = Clock::now() + std::chrono::seconds(30);
    const BinaryMatrix acts = makeActs(4);
    EXPECT_EQ(engine.submit(handle, 0, acts, opts).get().out, expected(acts));
    const ServingStats s = engine.stats();
    EXPECT_EQ(s.expired, 0u);
    EXPECT_EQ(s.deadlineMiss.count(), 0u);
}

TEST_F(AsyncPhiEngineResilienceTest, HigherPriorityShedsLowestUnderReject)
{
    // Saturate a depth-2 queue while the dispatcher lingers, then show
    // priority admission: an outranking submit sheds the newest
    // lowest-priority entry; an equal-priority submit is rejected.
    AsyncEngineConfig cfg;
    cfg.maxBatch = 64;
    cfg.maxLingerMicros = 150'000;
    cfg.maxQueueDepth = 2;
    cfg.backpressure = AsyncEngineConfig::Backpressure::Reject;
    AsyncPhiEngine engine(registry, {}, cfg);

    SubmitOptions low;
    low.priority = 0;
    SubmitOptions high;
    high.priority = 5;

    const BinaryMatrix a0 = makeActs(10), a1 = makeActs(11),
                       a2 = makeActs(12), a3 = makeActs(13);
    auto f0 = engine.submit(handle, 0, a0, low);
    auto f1 = engine.submit(handle, 0, a1, low);  // queue now full
    auto f2 = engine.submit(handle, 0, a2, high); // sheds f1 (newest low)
    auto f3 = engine.submit(handle, 0, a3, low);  // no victim below it: reject

    try {
        f1.get();
        FAIL() << "expected the shed request to fail with QueueFull";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::QueueFull);
    }
    EXPECT_THROW(f3.get(), EngineError);

    EXPECT_EQ(f0.get().out, expected(a0));
    EXPECT_EQ(f2.get().out, expected(a2));

    engine.drain();
    const ServingStats s = engine.stats();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.requests, 2u);
}

TEST_F(AsyncPhiEngineResilienceTest, HigherPriorityShedsInsteadOfBlocking)
{
    // Under the Block policy a saturated queue normally parks the
    // submitter; a higher-priority request must instead displace the
    // lowest-priority queued one and return immediately. (If shedding
    // were broken this submit would block forever and the test would
    // time out.)
    AsyncEngineConfig cfg;
    cfg.maxBatch = 64;
    cfg.maxLingerMicros = 150'000;
    cfg.maxQueueDepth = 1;
    AsyncPhiEngine engine(registry, {}, cfg);

    SubmitOptions high;
    high.priority = 1;

    const BinaryMatrix a0 = makeActs(20), a1 = makeActs(21);
    auto f0 = engine.submit(handle, 0, a0); // fills the queue at priority 0
    auto f1 = engine.submit(handle, 0, a1, high);

    EXPECT_THROW(f0.get(), EngineError);
    EXPECT_EQ(f1.get().out, expected(a1));
    engine.drain();
    EXPECT_EQ(engine.stats().shed, 1u);
}

TEST_F(AsyncPhiEngineResilienceTest, EqualPrioritiesNeverShed)
{
    // All-default priorities must reproduce the old Block semantics:
    // the second submit waits for space, nobody is evicted, both
    // serve.
    AsyncEngineConfig cfg;
    cfg.maxLingerMicros = 0;
    cfg.maxQueueDepth = 1;
    AsyncPhiEngine engine(registry, {}, cfg);

    const BinaryMatrix a0 = makeActs(30), a1 = makeActs(31);
    auto f0 = engine.submit(handle, 0, a0);
    auto f1 = engine.submit(handle, 0, a1);
    EXPECT_EQ(f0.get().out, expected(a0));
    EXPECT_EQ(f1.get().out, expected(a1));
    engine.drain();
    const ServingStats s = engine.stats();
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.requests, 2u);
}

TEST_F(AsyncPhiEngineResilienceTest, ShedRequestReleasesItsQueueWait)
{
    // A mixed salvo under heavy saturation: every future resolves
    // (value, QueueFull or DeadlineExceeded), the counters add up,
    // and high-priority traffic is never shed by low.
    AsyncEngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxLingerMicros = 50'000;
    cfg.maxQueueDepth = 4;
    cfg.backpressure = AsyncEngineConfig::Backpressure::Reject;
    AsyncPhiEngine engine(registry, {}, cfg);

    std::vector<std::future<EngineResponse>> lows, highs;
    for (int i = 0; i < 8; ++i) {
        SubmitOptions low;
        low.priority = 0;
        lows.push_back(engine.submit(handle, 0, makeActs(40 + i), low));
    }
    for (int i = 0; i < 4; ++i) {
        SubmitOptions high;
        high.priority = 9;
        highs.push_back(engine.submit(handle, 0, makeActs(60 + i), high));
    }

    size_t lowServed = 0, lowFailed = 0;
    for (auto& f : lows) {
        try {
            f.get();
            ++lowServed;
        } catch (const EngineError& e) {
            EXPECT_EQ(e.code(), EngineError::Code::QueueFull);
            ++lowFailed;
        }
    }
    // High-priority futures can be rejected when the queue is full of
    // other high-priority work, but never shed by arriving low ones.
    size_t highServed = 0;
    for (auto& f : highs) {
        try {
            f.get();
            ++highServed;
        } catch (const EngineError& e) {
            EXPECT_EQ(e.code(), EngineError::Code::QueueFull);
        }
    }
    EXPECT_EQ(lowServed + lowFailed, lows.size());
    EXPECT_GE(highServed, 1u);

    engine.drain();
    const ServingStats s = engine.stats();
    EXPECT_EQ(s.requests, lowServed + highServed);
    EXPECT_GE(s.shed + s.rejected, lowFailed);
}

TEST_F(AsyncPhiEngineResilienceTest, StatsSnapshotCarriesResilienceFields)
{
    // The snapshot path must surface expired/shed immediately, not
    // only after the next dispatch publishes.
    AsyncEngineConfig cfg;
    cfg.maxLingerMicros = 100'000;
    cfg.maxQueueDepth = 1;
    cfg.backpressure = AsyncEngineConfig::Backpressure::Reject;
    AsyncPhiEngine engine(registry, {}, cfg);

    SubmitOptions expired;
    expired.deadline = Clock::now() - std::chrono::milliseconds(1);
    auto f = engine.submit(handle, 0, makeActs(70), expired);
    EXPECT_THROW(f.get(), EngineError);
    EXPECT_EQ(engine.stats().expired, 1u)
        << "expired must be visible before any dispatch";
    EXPECT_EQ(engine.stats().watchdogRestarts, 0u);
}

} // namespace
} // namespace phi
