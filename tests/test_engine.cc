/**
 * @file
 * Runtime engine tests: the compile/serve split end to end. A model
 * compiled and saved by one "process" (the fixture) is loaded from the
 * artifact file into a fresh registry and PhiEngine and must produce
 * bit-identical outputs to the in-memory compute path at 1, 2 and 8
 * threads — the acceptance criterion of the compile/serve refactor.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <unistd.h>
#include <utility>

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

    /** The artifact loaded into a fresh one-model registry — what a
     *  serving process starts from. */
    test::OneModel load() const
    {
        return test::oneModelRegistry(io::loadModel(artifact));
    }

    /** One request per matrix of @p acts, all on @p layer of the
     *  loaded model's current version. */
    static std::vector<EngineRequest>
    batchOf(const test::OneModel& loaded, size_t layer,
            const std::vector<BinaryMatrix>& acts)
    {
        const ModelRegistry::Pinned pin =
            loaded.registry->pin(loaded.handle);
        std::vector<EngineRequest> batch;
        for (const BinaryMatrix& a : acts)
            batch.push_back({pin, layer, &a});
        return batch;
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
        const test::OneModel loaded = load();
        PhiEngine engine(loaded.registry, withThreads(threads));
        const std::vector<EngineResponse> out =
            engine.serve(batchOf(loaded, 0, reqs));
        ASSERT_EQ(out.size(), reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i)
            EXPECT_EQ(out[i].out, ref[i])
                << "request " << i << " at " << threads << " threads";
    }
}

TEST_F(PhiEngineTest, MixedLayerBatchKeepsEnqueueOrder)
{
    const test::OneModel loaded = load();
    PhiEngine engine(loaded.registry, withThreads(8));
    Rng rng(55);
    BinaryMatrix a0 = BinaryMatrix::random(40, 96, 0.2, rng);
    BinaryMatrix a1 = BinaryMatrix::random(72, 64, 0.15, rng);
    BinaryMatrix a2 = BinaryMatrix::random(24, 96, 0.25, rng);

    const ModelRegistry::Pinned pin = loaded.registry->pin(loaded.handle);
    const std::vector<EngineRequest> batch = {
        {pin, 0, &a0}, {pin, 1, &a1}, {pin, 0, &a2}};
    const auto out = engine.serve(batch);
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
    EXPECT_EQ(engine.stats().batches, 1u);
}

TEST_F(PhiEngineTest, ServeAndServeBatchConveniences)
{
    const test::OneModel loaded = load();
    PhiEngine engine(loaded.registry);
    Rng rng(66);
    BinaryMatrix acts = BinaryMatrix::random(32, 64, 0.2, rng);
    const EngineResponse one = engine.serve(loaded.handle, 1, acts);
    EXPECT_EQ(one.out,
              reference.layer(1).compute(reference.layer(1).decompose(acts)));
    EXPECT_EQ(one.layer, 1u);
    EXPECT_EQ(one.model, loaded.handle);

    const std::vector<BinaryMatrix> reqs = makeRequests(3, 64, 67);
    const auto out = engine.serve(batchOf(loaded, 1, reqs));
    ASSERT_EQ(out.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(out[i].out, reference.layer(1).compute(
                                  reference.layer(1).decompose(reqs[i])));
}

TEST_F(PhiEngineTest, ServingCountersAccumulate)
{
    const test::OneModel loaded = load();
    PhiEngine engine(loaded.registry);
    const std::vector<BinaryMatrix> reqs = makeRequests(4, 96, 77);
    size_t rows = 0;
    for (const auto& acts : reqs)
        rows += acts.rows();
    engine.serve(batchOf(loaded, 0, reqs));
    engine.serve(std::span<const EngineRequest>{}); // no batch counted

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
    const test::OneModel loaded = load();
    PhiEngine engine(loaded.registry);
    Rng rng(88);
    BinaryMatrix wrongK = BinaryMatrix::random(16, 32, 0.2, rng);
    try {
        engine.serve(loaded.handle, 0, wrongK);
        FAIL() << "wrong-K request was accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::ShapeMismatch);
    }
    BinaryMatrix ok = BinaryMatrix::random(16, 96, 0.2, rng);
    try {
        engine.serve(loaded.handle, 7, ok);
        FAIL() << "out-of-range layer was accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::InvalidLayer);
    }

    // The engine survives rejected requests and keeps serving: nothing
    // was served, and a valid request still produces the exact result.
    EXPECT_EQ(engine.stats().requests, 0u);
    const EngineResponse resp = engine.serve(loaded.handle, 0, ok);
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
    const test::OneModel loaded = test::oneModelRegistry(pipe.compile());
    PhiEngine engine(loaded.registry);
    BinaryMatrix acts = BinaryMatrix::random(8, 32, 0.2, rng);
    try {
        engine.serve(loaded.handle, 0, acts);
        FAIL() << "weightless layer accepted a compute request";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::MissingWeights);
    }
}

TEST(PhiEngineErrors, EmptyModelIsRecoverable)
{
    try {
        test::oneModelRegistry(CompiledModel{});
        FAIL() << "registry accepted an empty model";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::EmptyModel);
    }
    try {
        PhiEngine engine(nullptr);
        FAIL() << "engine accepted a null registry";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::EmptyModel);
    }
}

TEST_F(PhiEngineTest, ServeBatchRejectsNullAndStaysServiceable)
{
    const test::OneModel loaded = load();
    PhiEngine engine(loaded.registry);
    const ModelRegistry::Pinned pin = loaded.registry->pin(loaded.handle);
    Rng rng(43);
    BinaryMatrix ok = BinaryMatrix::random(8, 96, 0.2, rng);

    // Each bad request sits behind a good one: the whole batch must be
    // rejected with the bad request's code before anything is served.
    const std::vector<std::pair<EngineRequest, EngineErrorCode>> bad = {
        {{ModelRegistry::Pinned{}, 0, &ok}, EngineErrorCode::UnknownModel},
        {{pin, 0, nullptr}, EngineErrorCode::NullActivation},
        {{pin, 9, &ok}, EngineErrorCode::InvalidLayer},
    };
    for (const auto& [req, code] : bad) {
        const std::vector<EngineRequest> batch = {{pin, 0, &ok}, req};
        try {
            engine.serve(batch);
            FAIL() << "bad request accepted, expected "
                   << engineErrorCodeName(code);
        } catch (const EngineError& e) {
            EXPECT_EQ(e.code(), code);
        }
        EXPECT_EQ(engine.stats().requests, 0u);
        EXPECT_EQ(engine.stats().batches, 0u);
        EXPECT_TRUE(engine.perModelStats().empty());
    }

    // The engine still serves the next call.
    const std::vector<EngineRequest> good = {{pin, 0, &ok}};
    const auto out = engine.serve(good);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].out,
              reference.layer(0).compute(reference.layer(0).decompose(ok)));
}

TEST_F(PhiEngineTest, EmptyServeBatchAndZeroRowRequests)
{
    const test::OneModel loaded = load();
    PhiEngine engine(loaded.registry);
    // Empty batch: no batch, no counters.
    EXPECT_TRUE(engine.serve(std::span<const EngineRequest>{}).empty());
    EXPECT_EQ(engine.stats().batches, 0u);
    EXPECT_EQ(engine.stats().requests, 0u);

    // A zero-row activation is a valid (if degenerate) request: it
    // serves an empty output instead of tripping an assert.
    BinaryMatrix empty(0, 96);
    const EngineResponse resp = engine.serve(loaded.handle, 0, empty);
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
