/**
 * @file
 * AsyncPhiEngine tests: the concurrent serving frontend.
 *
 * The acceptance criteria pinned here: (a) async results are
 * bit-identical to the synchronous serve() path for the same requests
 * at 1/2/8 compute threads, however the dispatcher happened to
 * coalesce them; (b) N producer threads submitting concurrently all
 * get correct responses in any interleaving; (c) an invalid request
 * resolves its own future with an EngineError without aborting the
 * process or poisoning the batch it raced with. Plus the lifecycle
 * (drain/shutdown), backpressure policies and stats plumbing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "core/pipeline.hh"
#include "runtime/async_engine.hh"
#include "test_support.hh"

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

/** Offline half shared by every test: a two-layer compiled model plus
 *  deterministic request generators. */
class AsyncPhiEngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(23);
        BinaryMatrix train0 = BinaryMatrix::random(160, 96, 0.15, rng);
        BinaryMatrix train1 = BinaryMatrix::random(128, 64, 0.2, rng);

        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = 24;
        cfg.kmeans.maxIters = 8;
        Pipeline pipe(cfg);
        pipe.addLayer("proj", {&train0})
            .bindWeights(test::randomWeights(96, 24, 2));
        pipe.addLayer("head", {&train1})
            .bindWeights(test::randomWeights(64, 10, 3));
        model = pipe.compile();
        const test::OneModel loaded = test::oneModelRegistry(model);
        registry = loaded.registry;
        handle = loaded.handle;
    }

    std::vector<BinaryMatrix>
    makeRequests(size_t count, size_t k, uint64_t seed) const
    {
        Rng rng(seed);
        std::vector<BinaryMatrix> reqs;
        for (size_t i = 0; i < count; ++i)
            reqs.push_back(
                BinaryMatrix::random(16 + 8 * (i % 7), k, 0.18, rng));
        return reqs;
    }

    /** Reference result straight off the compiled layer. */
    Matrix<int32_t>
    expected(size_t layer, const BinaryMatrix& acts) const
    {
        return model.layer(layer).compute(model.layer(layer).decompose(acts));
    }

    CompiledModel model;
    /** A registry holding a copy of model, under handle. */
    std::shared_ptr<ModelRegistry> registry;
    ModelHandle handle;
};

TEST_F(AsyncPhiEngineTest, AsyncMatchesSynchronousServeAtAnyThreadCount)
{
    const std::vector<BinaryMatrix> reqs = makeRequests(12, 96, 301);

    // Synchronous reference responses.
    std::vector<Matrix<int32_t>> ref;
    for (const auto& acts : reqs)
        ref.push_back(expected(0, acts));

    for (int threads : {1, 2, 8}) {
        AsyncPhiEngine engine(registry, withThreads(threads));
        std::vector<std::future<EngineResponse>> futures;
        for (const auto& acts : reqs)
            futures.push_back(engine.submit(handle, 0, acts));
        for (size_t i = 0; i < futures.size(); ++i) {
            EngineResponse resp = futures[i].get();
            EXPECT_EQ(resp.layer, 0u);
            EXPECT_EQ(resp.out, ref[i])
                << "request " << i << " at " << threads << " threads";
        }
        engine.drain();
        const ServingStats s = engine.stats();
        EXPECT_EQ(s.requests, reqs.size());
        EXPECT_GE(s.dispatches, 1u);
        EXPECT_LE(s.batches, reqs.size());
        EXPECT_GT(s.windowSeconds(), 0.0);
        EXPECT_GT(s.throughputRps(), 0.0);
    }
}

TEST_F(AsyncPhiEngineTest, CoalescingRespectsMaxBatch)
{
    // A long linger with a wide-open queue: the dispatcher must still
    // cap every flush at maxBatch requests.
    AsyncEngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxLingerMicros = 50'000;
    AsyncPhiEngine engine(registry, withThreads(2), cfg);

    const std::vector<BinaryMatrix> reqs = makeRequests(10, 96, 303);
    std::vector<std::future<EngineResponse>> futures;
    for (const auto& acts : reqs)
        futures.push_back(engine.submit(handle, 0, acts));
    for (size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].get().out, expected(0, reqs[i]));

    const ServingStats s = engine.stats();
    EXPECT_EQ(s.requests, reqs.size());
    // 10 requests at <=4 per flush is at least 3 batches.
    EXPECT_GE(s.batches, 3u);
}

TEST_F(AsyncPhiEngineTest, ManyProducersAllGetCorrectResponses)
{
    // (b) N producer threads race submit() against both layers; every
    // future must resolve with its own request's exact result, in any
    // interleaving. Layer choice and shapes vary per producer.
    constexpr size_t kProducers = 8;
    constexpr size_t kPerProducer = 12;
    AsyncEngineConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxQueueDepth = 16; // small enough that Block engages
    AsyncPhiEngine engine(registry, withThreads(2), cfg);

    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            const size_t layer = p % 2;
            const size_t k = layer == 0 ? 96 : 64;
            const std::vector<BinaryMatrix> reqs =
                makeRequests(kPerProducer, k, 400 + p);
            std::vector<std::future<EngineResponse>> futures;
            for (const auto& acts : reqs)
                futures.push_back(engine.submit(handle, layer, acts));
            for (size_t i = 0; i < futures.size(); ++i) {
                try {
                    EngineResponse resp = futures[i].get();
                    if (resp.out != expected(layer, reqs[i]))
                        ++mismatches;
                } catch (...) {
                    ++failures;
                }
            }
        });
    }
    for (auto& t : producers)
        t.join();
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(failures.load(), 0u);

    engine.drain();
    const ServingStats s = engine.stats();
    EXPECT_EQ(s.requests, kProducers * kPerProducer);
    EXPECT_EQ(s.rejected, 0u); // Block policy never drops
    EXPECT_GE(s.dispatches, 1u);
    EXPECT_GE(s.maxQueueDepth, 1u);
}

TEST_F(AsyncPhiEngineTest, InvalidRequestRejectsOnlyItsOwnFuture)
{
    // (c) invalid requests interleaved with valid ones: each resolves
    // its own future with a typed EngineError; the valid neighbours
    // and the engine itself are untouched.
    AsyncPhiEngine engine(registry, withThreads(2));
    Rng rng(71);
    const std::vector<BinaryMatrix> good = makeRequests(6, 96, 501);
    BinaryMatrix wrongK = BinaryMatrix::random(16, 32, 0.2, rng);
    BinaryMatrix okShape = BinaryMatrix::random(16, 96, 0.2, rng);

    std::vector<std::future<EngineResponse>> goodFutures;
    goodFutures.push_back(engine.submit(handle, 0, good[0]));
    auto badShape = engine.submit(handle, 0, wrongK);   // ShapeMismatch
    goodFutures.push_back(engine.submit(handle, 0, good[1]));
    auto badLayer = engine.submit(handle, 9, okShape);  // InvalidLayer
    for (size_t i = 2; i < good.size(); ++i)
        goodFutures.push_back(engine.submit(handle, 0, good[i]));

    try {
        badShape.get();
        FAIL() << "wrong-K future resolved with a value";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::ShapeMismatch);
    }
    try {
        badLayer.get();
        FAIL() << "bad-layer future resolved with a value";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::InvalidLayer);
    }
    for (size_t i = 0; i < goodFutures.size(); ++i)
        EXPECT_EQ(goodFutures[i].get().out, expected(0, good[i]))
            << "valid request " << i << " poisoned by a rejected one";

    // Still serving afterwards.
    EXPECT_EQ(engine.submit(handle, 0, good[0]).get().out,
              expected(0, good[0]));
    EXPECT_EQ(engine.stats().requests, good.size() + 1);
}

TEST_F(AsyncPhiEngineTest, RejectPolicyResolvesOverflowWithQueueFull)
{
    // Pin the dispatcher in its linger window (long linger, batch
    // larger than the traffic) so the queue genuinely fills; the
    // overflow submit must resolve immediately with QueueFull and be
    // counted, while everything queued still serves.
    AsyncEngineConfig cfg;
    cfg.maxBatch = 64;
    cfg.maxLingerMicros = 2'000'000;
    cfg.maxQueueDepth = 3;
    cfg.backpressure = AsyncEngineConfig::Backpressure::Reject;
    AsyncPhiEngine engine(registry, withThreads(2), cfg);

    const std::vector<BinaryMatrix> reqs = makeRequests(4, 96, 601);
    std::vector<std::future<EngineResponse>> queued;
    for (size_t i = 0; i < 3; ++i)
        queued.push_back(engine.submit(handle, 0, reqs[i]));
    auto overflow = engine.submit(handle, 0, reqs[3]);
    try {
        overflow.get();
        FAIL() << "overflow submit was accepted past maxQueueDepth";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::QueueFull);
    }
    // shutdown() short-circuits the 2s linger and serves the queue now.
    engine.shutdown();
    for (size_t i = 0; i < queued.size(); ++i)
        EXPECT_EQ(queued[i].get().out, expected(0, reqs[i]));
    EXPECT_EQ(engine.stats().rejected, 1u);
    EXPECT_EQ(engine.stats().requests, 3u);
}

TEST_F(AsyncPhiEngineTest, BlockPolicySmallQueueIsLossless)
{
    // A 1-deep queue under the Block policy: producers stall instead
    // of dropping; every submission still resolves correctly.
    AsyncEngineConfig cfg;
    cfg.maxBatch = 1;
    cfg.maxLingerMicros = 0;
    cfg.maxQueueDepth = 1;
    AsyncPhiEngine engine(registry, withThreads(1), cfg);

    const std::vector<BinaryMatrix> reqs = makeRequests(8, 96, 701);
    std::vector<std::future<EngineResponse>> futures;
    for (const auto& acts : reqs)
        futures.push_back(engine.submit(handle, 0, acts));
    for (size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].get().out, expected(0, reqs[i]));
    EXPECT_EQ(engine.stats().rejected, 0u);
    EXPECT_EQ(engine.stats().requests, reqs.size());
}

TEST_F(AsyncPhiEngineTest, DrainWaitsForEverythingSubmitted)
{
    AsyncEngineConfig cfg;
    cfg.maxLingerMicros = 10'000;
    AsyncPhiEngine engine(registry, withThreads(2), cfg);
    const std::vector<BinaryMatrix> reqs = makeRequests(9, 96, 801);
    std::vector<std::future<EngineResponse>> futures;
    for (const auto& acts : reqs)
        futures.push_back(engine.submit(handle, 0, acts));
    engine.drain();
    // After drain() every already-submitted future is ready.
    for (auto& f : futures)
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    EXPECT_EQ(engine.queueDepth(), 0u);
    for (size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].get().out, expected(0, reqs[i]));
}

TEST_F(AsyncPhiEngineTest, ShutdownServesQueuedThenRefusesNewWork)
{
    const std::vector<BinaryMatrix> reqs = makeRequests(5, 96, 901);
    std::vector<std::future<EngineResponse>> futures;
    AsyncEngineConfig cfg;
    cfg.maxLingerMicros = 20'000; // queue them up before shutdown
    AsyncPhiEngine engine(registry, withThreads(2), cfg);
    for (const auto& acts : reqs)
        futures.push_back(engine.submit(handle, 0, acts));
    engine.shutdown();
    engine.shutdown(); // idempotent

    // Everything accepted before shutdown was served...
    for (size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].get().out, expected(0, reqs[i]));
    // ...and new work is refused recoverably.
    auto late = engine.submit(handle, 0, reqs[0]);
    try {
        late.get();
        FAIL() << "submit() accepted after shutdown";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineErrorCode::Stopped);
    }
}

TEST_F(AsyncPhiEngineTest, DestructorNeverBreaksPromises)
{
    // Futures taken from an engine destroyed mid-stream must resolve
    // with values (the destructor drains), never broken promises.
    std::vector<std::future<EngineResponse>> futures;
    const std::vector<BinaryMatrix> reqs = makeRequests(6, 96, 1001);
    {
        AsyncEngineConfig cfg;
        cfg.maxLingerMicros = 20'000;
        AsyncPhiEngine engine(registry, withThreads(2), cfg);
        for (const auto& acts : reqs)
            futures.push_back(engine.submit(handle, 0, acts));
    }
    for (size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].get().out, expected(0, reqs[i]));
}

TEST_F(AsyncPhiEngineTest, StatsSnapshotIsConsistentUnderLoad)
{
    // Readers polling stats() while producers stream must always see a
    // coherent snapshot (exercised under TSan in CI); spot-check the
    // final counters and the derived queue/linger metrics.
    AsyncEngineConfig cfg;
    cfg.maxBatch = 4;
    AsyncPhiEngine engine(registry, withThreads(2), cfg);

    std::atomic<bool> done{false};
    std::thread poller([&] {
        while (!done.load()) {
            const ServingStats s = engine.stats();
            EXPECT_LE(s.requests, 32u);
            std::this_thread::yield();
        }
    });
    std::vector<std::future<EngineResponse>> futures;
    const std::vector<BinaryMatrix> reqs = makeRequests(32, 96, 1101);
    for (const auto& acts : reqs)
        futures.push_back(engine.submit(handle, 0, acts));
    for (auto& f : futures)
        f.get();
    done.store(true);
    poller.join();

    engine.drain();
    const ServingStats s = engine.stats();
    EXPECT_EQ(s.requests, 32u);
    EXPECT_GE(s.dispatches, s.batches > 0 ? 1u : 0u);
    EXPECT_GE(s.meanQueueDepth(), 0.0);
    EXPECT_GE(s.meanLingerMicros(), 0.0);
    EXPECT_GT(s.windowSeconds(), 0.0);
    // Window-based throughput: a single engine's flushes never overlap,
    // so busy time can't exceed the serving window.
    EXPECT_LE(s.busySeconds, s.windowSeconds() + 1e-9);
}

// ---- lock-discipline regressions ------------------------------------
// These pin the interleavings audited for the thread-safety annotation
// pass: the mutex/statsMutex/joinMutex contracts now encoded as
// EXCLUDES clauses in async_engine.hh. A future change that nests
// these locks fails the clang analysis; these tests additionally prove
// the *runtime* behavior (no deadlock, no broken promise) on every
// compiler, and give the TSan leg the exact interleavings to race.

TEST_F(AsyncPhiEngineTest, ConcurrentShutdownsWithDrainWaitersResolve)
{
    AsyncEngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxQueueDepth = 64;
    AsyncPhiEngine engine(registry, withThreads(2), cfg);

    std::vector<std::future<EngineResponse>> futures;
    const std::vector<BinaryMatrix> reqs = makeRequests(24, 96, 2201);
    for (const auto& acts : reqs)
        futures.push_back(engine.submit(handle, 0, acts));

    // Racing shutdowns: each takes `mutex` (to stop intake), then the
    // leaf `joinMutex` (to join the dispatcher) — never both at once.
    // Racing drains park on `idle` under `mutex`. All must return; none
    // may deadlock against the dispatcher's own mutex/statsMutex cycle
    // or against each other, and a drain() outstanding when the
    // dispatcher exits must still be released.
    std::vector<std::thread> racers;
    for (int i = 0; i < 4; ++i) {
        racers.emplace_back([&engine] { engine.drain(); });
        racers.emplace_back([&engine] { engine.shutdown(); });
    }
    for (auto& t : racers)
        t.join();

    // Shutdown serves everything already queued, and the engine is
    // idle: a drain() after the dispatcher exited returns at once.
    for (auto& f : futures)
        EXPECT_NO_THROW(f.get());
    engine.drain();
    EXPECT_EQ(engine.queueDepth(), 0u);
}

TEST_F(AsyncPhiEngineTest, DropStatsForRacingStatsReadersIsSafe)
{
    AsyncEngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxQueueDepth = 64;
    AsyncPhiEngine engine(registry, withThreads(2), cfg);
    const std::string name = handle.name;

    // Readers hammer every stats surface (statsMutex) while a dropper
    // interleaves dropStatsFor (statsMutex then mutex, sequentially)
    // against live dispatch (mutex then statsMutex, also
    // sequentially). The EXCLUDES contracts say these locks are never
    // nested; this race proves the absence of the inversion deadlock
    // the annotation pass audited for.
    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load()) {
            (void)engine.stats();
            (void)engine.statsFor(name);
            (void)engine.perModelStats();
            std::this_thread::yield();
        }
    });
    std::thread dropper([&] {
        while (!done.load()) {
            engine.dropStatsFor(name);
            std::this_thread::yield();
        }
    });

    const std::vector<BinaryMatrix> reqs = makeRequests(48, 96, 2301);
    std::vector<std::future<EngineResponse>> futures;
    for (const auto& acts : reqs)
        futures.push_back(engine.submit(handle, 0, acts));
    for (size_t i = 0; i < futures.size(); ++i) {
        EngineResponse resp = futures[i].get();
        EXPECT_EQ(resp.out, expected(0, reqs[i])) << "request " << i;
    }
    engine.drain();
    done.store(true);
    reader.join();
    dropper.join();

    // Results stayed correct under the race; a final drop leaves the
    // per-model snapshot genuinely empty.
    engine.dropStatsFor(name);
    engine.stats(); // must not throw or deadlock post-drop
    EXPECT_EQ(engine.statsFor(name).requests, 0u);
}

} // namespace
} // namespace phi
