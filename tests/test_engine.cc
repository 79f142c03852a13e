/**
 * @file
 * Runtime engine tests: the compile/serve split end to end. A model
 * compiled and saved by one "process" (the fixture) is loaded from the
 * artifact file by a fresh PhiEngine and must produce bit-identical
 * outputs to the in-memory compute path at 1, 2 and 8 threads — the
 * acceptance criterion of the compile/serve refactor.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "common/rng.hh"
#include "core/pipeline.hh"
#include "test_support.hh"
#include "io/model_io.hh"
#include "runtime/engine.hh"

namespace phi
{
namespace
{

ExecutionConfig
withThreads(int threads)
{
    ExecutionConfig exec;
    exec.threads = threads;
    return exec;
}

/**
 * Shared offline half: calibrate + bind + compile once, save the .phim
 * artifact to a temp path, and keep the in-memory model as reference.
 */
class PhiEngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(17);
        train0 = BinaryMatrix::random(160, 96, 0.15, rng);
        train1 = BinaryMatrix::random(128, 64, 0.2, rng);

        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = 24;
        cfg.kmeans.maxIters = 8;
        Pipeline pipe(cfg);
        pipe.addLayer("proj", {&train0})
            .bindWeights(test::randomWeights(96, 24, 2));
        pipe.addLayer("head", {&train1})
            .bindWeights(test::randomWeights(64, 10, 3));
        reference = pipe.compile();

        artifact = (std::filesystem::temp_directory_path() /
                    ("phi_engine_test_" + std::to_string(::getpid()) +
                     ".phim"))
                       .string();
        io::saveModel(reference, artifact);
    }

    void TearDown() override { std::remove(artifact.c_str()); }

    std::vector<BinaryMatrix>
    makeRequests(size_t count, size_t k, uint64_t seed) const
    {
        Rng rng(seed);
        std::vector<BinaryMatrix> reqs;
        for (size_t i = 0; i < count; ++i)
            reqs.push_back(BinaryMatrix::random(48 + 16 * i, k, 0.18, rng));
        return reqs;
    }

    BinaryMatrix train0, train1;
    CompiledModel reference;
    std::string artifact;
};

TEST_F(PhiEngineTest, LoadedEngineMatchesInMemoryComputeAtAnyThreadCount)
{
    // The acceptance fixture: offline process compiled + saved; the
    // serving process starts from the artifact file alone.
    const std::vector<BinaryMatrix> reqs = makeRequests(5, 96, 101);

    // In-memory reference path (offline object, single-shot compute).
    std::vector<Matrix<int32_t>> ref;
    for (const auto& acts : reqs)
        ref.push_back(reference.layer(0).compute(
            reference.layer(0).decompose(acts)));

    for (int threads : {1, 2, 8}) {
        PhiEngine engine(io::loadModel(artifact), withThreads(threads));
        for (const auto& acts : reqs)
            engine.enqueue(0, acts);
        const std::vector<EngineResponse> out = engine.flush();
        ASSERT_EQ(out.size(), reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i)
            EXPECT_EQ(out[i].out, ref[i])
                << "request " << i << " at " << threads << " threads";
    }
}

TEST_F(PhiEngineTest, MixedLayerBatchKeepsEnqueueOrder)
{
    PhiEngine engine(io::loadModel(artifact), withThreads(8));
    Rng rng(55);
    BinaryMatrix a0 = BinaryMatrix::random(40, 96, 0.2, rng);
    BinaryMatrix a1 = BinaryMatrix::random(72, 64, 0.15, rng);
    BinaryMatrix a2 = BinaryMatrix::random(24, 96, 0.25, rng);

    EXPECT_EQ(engine.enqueue(0, a0), 0u);
    EXPECT_EQ(engine.enqueue(1, a1), 1u);
    EXPECT_EQ(engine.enqueue(0, a2), 2u);
    EXPECT_EQ(engine.pending(), 3u);

    const auto out = engine.flush();
    EXPECT_EQ(engine.pending(), 0u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].layer, 0u);
    EXPECT_EQ(out[1].layer, 1u);
    EXPECT_EQ(out[2].layer, 0u);
    EXPECT_EQ(out[0].out,
              reference.layer(0).compute(reference.layer(0).decompose(a0)));
    EXPECT_EQ(out[1].out,
              reference.layer(1).compute(reference.layer(1).decompose(a1)));
    EXPECT_EQ(out[2].out,
              reference.layer(0).compute(reference.layer(0).decompose(a2)));
}

TEST_F(PhiEngineTest, ServeAndServeBatchConveniences)
{
    PhiEngine engine(io::loadModel(artifact));
    Rng rng(66);
    BinaryMatrix acts = BinaryMatrix::random(32, 64, 0.2, rng);
    const EngineResponse one = engine.serve(1, acts);
    EXPECT_EQ(one.out,
              reference.layer(1).compute(reference.layer(1).decompose(acts)));
    EXPECT_EQ(one.layer, 1u);

    const std::vector<BinaryMatrix> reqs = makeRequests(3, 64, 67);
    std::vector<const BinaryMatrix*> ptrs;
    for (const auto& r : reqs)
        ptrs.push_back(&r);
    const auto out = engine.serveBatch(1, ptrs);
    ASSERT_EQ(out.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(out[i].out, reference.layer(1).compute(
                                  reference.layer(1).decompose(reqs[i])));
}

TEST_F(PhiEngineTest, ServingCountersAccumulate)
{
    PhiEngine engine(io::loadModel(artifact));
    const std::vector<BinaryMatrix> reqs = makeRequests(4, 96, 77);
    size_t rows = 0;
    for (const auto& acts : reqs) {
        engine.enqueue(0, acts);
        rows += acts.rows();
    }
    engine.flush();
    engine.flush(); // empty flush: no batch, no request counted

    const ServingStats& s = engine.stats();
    EXPECT_EQ(s.requests, reqs.size());
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.rows, rows);
    EXPECT_EQ(s.latency.count(), reqs.size());
    EXPECT_GT(s.busySeconds, 0.0);
    EXPECT_GT(s.throughputRps(), 0.0);
    EXPECT_GT(s.rowThroughputRps(), 0.0);
    EXPECT_GE(s.latency.percentileMs(99), s.latency.percentileMs(50));

    engine.resetStats();
    EXPECT_EQ(engine.stats().requests, 0u);
    EXPECT_EQ(engine.stats().latency.count(), 0u);
}

TEST_F(PhiEngineTest, RejectsInvalidRequestsRecoverably)
{
    // A malformed *user request* is not an internal invariant
    // violation: it must throw a catchable EngineError (never abort)
    // and leave the engine fully serviceable.
    PhiEngine engine(io::loadModel(artifact));
    Rng rng(88);
    BinaryMatrix wrongK = BinaryMatrix::random(16, 32, 0.2, rng);
    try {
        engine.enqueue(0, wrongK);
        FAIL() << "wrong-K request was accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::ShapeMismatch);
    }
    BinaryMatrix ok = BinaryMatrix::random(16, 96, 0.2, rng);
    try {
        engine.enqueue(7, ok);
        FAIL() << "out-of-range layer was accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::InvalidLayer);
    }

    // The engine survives rejected requests and keeps serving: nothing
    // was queued, and a valid request still produces the exact result.
    EXPECT_EQ(engine.pending(), 0u);
    const EngineResponse resp = engine.serve(0, ok);
    EXPECT_EQ(resp.out,
              reference.layer(0).compute(reference.layer(0).decompose(ok)));
    EXPECT_EQ(engine.stats().requests, 1u);
}

TEST_F(PhiEngineTest, WeightlessLayerCannotServe)
{
    Rng rng(91);
    BinaryMatrix train = BinaryMatrix::random(64, 32, 0.2, rng);
    Pipeline pipe;
    pipe.addLayer("tableOnly", {&train});
    PhiEngine engine(pipe.compile());
    BinaryMatrix acts = BinaryMatrix::random(8, 32, 0.2, rng);
    try {
        engine.enqueue(0, acts);
        FAIL() << "weightless layer accepted a compute request";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::MissingWeights);
    }
}

TEST(PhiEngineErrors, EmptyModelIsRecoverable)
{
    try {
        PhiEngine engine(CompiledModel{});
        FAIL() << "engine accepted an empty model";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::EmptyModel);
    }
}

TEST_F(PhiEngineTest, EnqueueBorrowedIsZeroCopy)
{
    // The hot batch path must not clone a BinaryMatrix per request:
    // a borrowed request queues the caller's matrix itself (pointer
    // identity), and serveBatch() routes through this path.
    PhiEngine engine(io::loadModel(artifact));
    Rng rng(99);
    BinaryMatrix acts = BinaryMatrix::random(16, 96, 0.2, rng);
    EXPECT_EQ(engine.enqueueBorrowed(0, acts), 0u);
    EXPECT_EQ(&engine.pendingActs(0), &acts);
    // An owned enqueue in the same batch keeps its own storage.
    BinaryMatrix owned = BinaryMatrix::random(8, 96, 0.2, rng);
    const BinaryMatrix ownedCopy = owned;
    engine.enqueue(0, std::move(owned));
    EXPECT_NE(&engine.pendingActs(1), &acts);
    const auto out = engine.flush();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].out,
              reference.layer(0).compute(reference.layer(0).decompose(acts)));
    EXPECT_EQ(out[1].out, reference.layer(0).compute(
                              reference.layer(0).decompose(ownedCopy)));
}

TEST_F(PhiEngineTest, ServeBatchRejectsNullAndStaysServiceable)
{
    PhiEngine engine(io::loadModel(artifact));
    Rng rng(43);
    BinaryMatrix ok = BinaryMatrix::random(8, 96, 0.2, rng);
    try {
        engine.serveBatch(0, {&ok, nullptr});
        FAIL() << "null activation was accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::NullActivation);
    }
    // The failed batch left nothing queued (no dangling borrows) and
    // the engine still serves.
    EXPECT_EQ(engine.pending(), 0u);
    const auto out = engine.serveBatch(0, {&ok});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].out,
              reference.layer(0).compute(reference.layer(0).decompose(ok)));
}

TEST_F(PhiEngineTest, EmptyServeBatchAndZeroRowRequests)
{
    PhiEngine engine(io::loadModel(artifact));
    // Empty batch: no flush, no counters.
    EXPECT_TRUE(engine.serveBatch(0, {}).empty());
    EXPECT_EQ(engine.stats().batches, 0u);
    EXPECT_EQ(engine.stats().requests, 0u);

    // A zero-row activation is a valid (if degenerate) request: it
    // serves an empty output instead of tripping an assert.
    BinaryMatrix empty(0, 96);
    const EngineResponse resp = engine.serve(0, empty);
    EXPECT_EQ(resp.out.rows(), 0u);
    EXPECT_EQ(resp.out.cols(),
              reference.layer(0).weights().cols());
    EXPECT_EQ(engine.stats().requests, 1u);
    EXPECT_EQ(engine.stats().rows, 0u);
}

TEST(ServingStats, PercentilesOnKnownSamples)
{
    ServingStats s;
    for (int i = 1; i <= 100; ++i)
        s.latency.record(i * 1e-3); // 1ms .. 100ms
    s.requests = 100;
    s.busySeconds = 2.0;
    s.recordFlushWindow(10.0, 12.0);
    // Interior percentiles land in the nearest-rank sample's bucket
    // (at most 6.25% wide); p0, p100 and the mean are exact.
    EXPECT_NEAR(s.latency.percentileMs(50), 50.0, 50.0 * 0.0625);
    EXPECT_NEAR(s.latency.percentileMs(99), 99.0, 99.0 * 0.0625);
    EXPECT_NEAR(s.latency.percentileMs(0), 1.0, 1e-9);
    EXPECT_NEAR(s.latency.percentileMs(100), 100.0, 1e-9);
    EXPECT_NEAR(s.latency.meanMs(), 50.5, 1e-9);
    EXPECT_DOUBLE_EQ(s.throughputRps(), 50.0);

    ServingStats other;
    other.requests = 10;
    other.batches = 1;
    other.rows = 5;
    other.busySeconds = 1.0;
    other.latency.record(0.5);
    s.merge(other);
    EXPECT_EQ(s.requests, 110u);
    EXPECT_EQ(s.latency.count(), 101u);
    EXPECT_NEAR(s.latency.percentileMs(100), 500.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.busySeconds, 3.0);
}

TEST(ServingStats, OverlappingFlushesDoNotHalveThroughput)
{
    // Two 1s flushes overlapping by 0.5s: summed busy time is 2s, but
    // real elapsed serving time is 1.5s. Throughput must use the
    // monotonic first-to-last-flush window, not the busy sum — the
    // async frontend (and merged per-engine stats) overlap routinely.
    ServingStats s;
    s.requests = 100;
    s.rows = 200;
    s.busySeconds = 1.0;
    s.recordFlushWindow(10.0, 11.0);
    s.busySeconds += 1.0;
    s.recordFlushWindow(10.5, 11.5);
    EXPECT_DOUBLE_EQ(s.windowSeconds(), 1.5);
    EXPECT_DOUBLE_EQ(s.throughputRps(), 100.0 / 1.5);
    EXPECT_DOUBLE_EQ(s.rowThroughputRps(), 200.0 / 1.5);
    EXPECT_DOUBLE_EQ(s.busyFraction(), 2.0 / 1.5);

    // merge() keeps the union of windows for the same reason.
    ServingStats a;
    a.requests = 10;
    a.recordFlushWindow(0.0, 1.0);
    ServingStats b;
    b.requests = 10;
    b.recordFlushWindow(0.5, 1.5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.windowSeconds(), 1.5);
    EXPECT_DOUBLE_EQ(a.throughputRps(), 20.0 / 1.5);
}

TEST(ServingStats, SingleSamplePercentiles)
{
    ServingStats s;
    s.latency.record(0.25);
    for (double p : {0.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(s.latency.percentileMs(p), 250.0) << "p" << p;
    EXPECT_DOUBLE_EQ(s.latency.meanMs(), 250.0);
}

TEST(ServingStats, DispatchCountersAndMerge)
{
    ServingStats s;
    s.recordDispatch(4, 200e-6);
    s.recordDispatch(8, 400e-6);
    s.rejected = 3;
    EXPECT_EQ(s.dispatches, 2u);
    EXPECT_EQ(s.maxQueueDepth, 8u);
    EXPECT_DOUBLE_EQ(s.meanQueueDepth(), 6.0);
    EXPECT_NEAR(s.meanLingerMicros(), 300.0, 1e-9);

    ServingStats other;
    other.recordDispatch(16, 100e-6);
    other.rejected = 2;
    s.merge(other);
    EXPECT_EQ(s.dispatches, 3u);
    EXPECT_EQ(s.rejected, 5u);
    EXPECT_EQ(s.maxQueueDepth, 16u);
    EXPECT_NEAR(s.meanLingerMicros(), 700.0 / 3.0, 1e-9);
}

} // namespace
} // namespace phi
