/**
 * @file
 * ModelRegistry tests: named, versioned multi-model residency and the
 * registry-routed serving surface.
 *
 * The acceptance criteria pinned here: (a) one process loads two
 * named models and serves both through one engine (sync and async),
 * every response reporting the {name, version} that served it; (b)
 * swap() under concurrent async producers is indistinguishable from
 * draining and then swapping — every response is bit-identical to the
 * reference output of the version it reports, none are dropped, and
 * no request ever observes a torn model; (c) unload() of a model with
 * in-flight requests fails with a typed EngineError instead of
 * racing the serve. Plus version monotonicity, typed rejection of
 * every misuse, and epoch lifetime (pins outlive swaps).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "core/pipeline.hh"
#include "io/model_io.hh"
#include "runtime/async_engine.hh"
#include "runtime/registry.hh"
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

/** One-layer compiled model over a fixed calibration, with weights
 *  varied by seed so versions produce distinguishable outputs. */
CompiledModel
makeModel(uint64_t weightSeed, size_t k = 96, size_t n = 24)
{
    Rng rng(17); // fixed: every version shares the pattern tables
    BinaryMatrix train = BinaryMatrix::random(160, k, 0.15, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 24;
    cfg.kmeans.maxIters = 8;
    Pipeline pipe(cfg);
    pipe.addLayer("l0", {&train})
        .bindWeights(test::randomWeights(k, n, weightSeed));
    return pipe.compile();
}

Matrix<int32_t>
expected(const CompiledModel& model, size_t layer,
         const BinaryMatrix& acts)
{
    return model.layer(layer).compute(model.layer(layer).decompose(acts));
}

std::vector<BinaryMatrix>
makeRequests(size_t count, size_t k, uint64_t seed)
{
    Rng rng(seed);
    std::vector<BinaryMatrix> reqs;
    for (size_t i = 0; i < count; ++i)
        reqs.push_back(
            BinaryMatrix::random(16 + 8 * (i % 5), k, 0.18, rng));
    return reqs;
}

TEST(ModelRegistry, LoadListPinUnloadLifecycle)
{
    ModelRegistry reg;
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_FALSE(reg.contains("vision"));
    EXPECT_EQ(reg.current("vision"), std::nullopt);

    const ModelHandle vision = reg.load("vision", makeModel(2));
    const ModelHandle nlp = reg.load("nlp", makeModel(3, 64, 10));
    EXPECT_EQ(vision.name, "vision");
    EXPECT_EQ(vision.version, 1u);
    EXPECT_TRUE(vision.valid());
    EXPECT_EQ(vision.str(), "vision@v1");
    EXPECT_EQ(nlp, (ModelHandle{"nlp", 1}));
    EXPECT_NE(nlp, vision);

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.contains("vision"));
    EXPECT_EQ(reg.current("vision"), vision);
    const std::vector<ModelHandle> all = reg.list();
    ASSERT_EQ(all.size(), 2u); // ordered by name
    EXPECT_EQ(all[0], nlp);
    EXPECT_EQ(all[1], vision);

    const ModelRegistry::Pinned pin = reg.pin("vision");
    EXPECT_TRUE(static_cast<bool>(pin));
    EXPECT_EQ(pin.handle, vision);
    EXPECT_EQ(pin->numLayers(), 1u);

    reg.unload("nlp");
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_FALSE(reg.contains("nlp"));
    try {
        reg.pin("nlp");
        FAIL() << "pinned an unloaded model";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
}

TEST(ModelRegistry, TypedRejectionOfEveryMisuse)
{
    ModelRegistry reg;
    reg.load("m", makeModel(2));

    try { // load of a resident name
        reg.load("m", makeModel(3));
        FAIL() << "double load accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::ModelExists);
    }
    try { // swap of an absent name
        reg.swap("ghost", makeModel(3));
        FAIL() << "swap of absent name accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
    try { // unload of an absent name
        reg.unload("ghost");
        FAIL() << "unload of absent name accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
    try { // layerless model
        reg.load("empty", CompiledModel{});
        FAIL() << "empty model accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::EmptyModel);
    }
    try { // nameless load
        reg.load("", makeModel(3));
        FAIL() << "empty name accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
    // None of the rejections disturbed the resident model.
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.current("m"), (ModelHandle{"m", 1}));
}

TEST(ModelRegistry, VersionsAreMonotonicAndNeverReused)
{
    ModelRegistry reg;
    EXPECT_EQ(reg.load("m", makeModel(2)).version, 1u);
    EXPECT_EQ(reg.swap("m", makeModel(3)).version, 2u);
    EXPECT_EQ(reg.swap("m", makeModel(4)).version, 3u);
    reg.unload("m");
    // A reload of the same name continues the sequence: version 3 can
    // only ever mean one set of compiled bytes.
    EXPECT_EQ(reg.load("m", makeModel(5)).version, 4u);
    // Other names version independently.
    EXPECT_EQ(reg.load("other", makeModel(6)).version, 1u);
}

TEST(ModelRegistry, PinKeepsOldEpochAliveAcrossSwapAndUnload)
{
    ModelRegistry reg;
    const CompiledModel v1 = makeModel(2);
    const CompiledModel v2 = makeModel(3);
    reg.load("m", makeModel(2)); // same seeds -> same bytes as v1/v2
    ModelRegistry::Pinned oldPin = reg.pin("m");
    reg.swap("m", makeModel(3));

    // The registry already routes to v2...
    EXPECT_EQ(reg.pin("m").handle.version, 2u);
    // ...and the superseded v1 epoch no longer blocks unload (only
    // pins of the *current* version are in-flight work)...
    EXPECT_NO_THROW(reg.unload("m"));
    // ...but the old pin still serves v1, bit-exactly, even with the
    // name gone from the registry entirely.
    const BinaryMatrix acts = makeRequests(1, 96, 9)[0];
    EXPECT_EQ(expected(*oldPin, 0, acts), expected(v1, 0, acts));
    EXPECT_NE(expected(v1, 0, acts), expected(v2, 0, acts))
        << "versions must differ for the epoch test to mean anything";
}

TEST(ModelRegistry, UnloadWithLivePinFailsTyped)
{
    // The in-flight guard, isolated: a live pin (what an engine holds
    // per queued request) makes unload fail with ModelBusy instead of
    // racing the serve; releasing the pin unblocks it.
    ModelRegistry reg;
    reg.load("m", makeModel(2));
    {
        ModelRegistry::Pinned inFlight = reg.pin("m");
        try {
            reg.unload("m");
            FAIL() << "unload raced a live pin";
        } catch (const EngineError& e) {
            EXPECT_EQ(e.code(), EngineError::Code::ModelBusy);
        }
        EXPECT_TRUE(reg.contains("m")) << "failed unload must not evict";
    }
    EXPECT_NO_THROW(reg.unload("m"));
    EXPECT_FALSE(reg.contains("m"));
}

TEST(ModelRegistry, LoadFromArtifactUsesMetaName)
{
    // A stamped artifact names itself: registry.load("", path) reads
    // the identity from the META section.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("phi_registry_meta_" + std::to_string(::getpid()) + ".phim"))
            .string();
    io::saveModel(makeModel(2), path, {"stamped", 7});

    ModelRegistry reg;
    const ModelHandle byMeta = reg.load("", path);
    EXPECT_EQ(byMeta.name, "stamped");
    EXPECT_EQ(byMeta.version, 1u) << "registry versions are its own";
    // An explicit name overrides the stamp.
    const ModelHandle byName = reg.load("renamed", path);
    EXPECT_EQ(byName.name, "renamed");
    // An unstamped artifact with no explicit name is rejected typed.
    io::saveModel(makeModel(2), path);
    try {
        reg.load("", path);
        FAIL() << "anonymous load accepted";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
    // swapFromFile routes the same way as swap().
    EXPECT_EQ(reg.swapFromFile("stamped", path).version, 2u);
    std::remove(path.c_str());
}

TEST(ModelRegistry, FailedSwapLeavesThePreviousEpochServing)
{
    // Strong exception safety on reload: a corrupt artifact must fail
    // the swap *before* the registry mutates, so the previous version
    // keeps serving — the whole point of CRC-verified hot reload.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("phi_registry_corrupt_" + std::to_string(::getpid()) +
          ".phim"))
            .string();

    ModelRegistry reg;
    const CompiledModel v1 = makeModel(2);
    reg.load("m", makeModel(2));
    const ModelRegistry::Pinned pinned = reg.pin("m");

    // A stamped artifact with one payload byte flipped: the CRC check
    // rejects it at parse time, before publish() can run.
    std::vector<uint8_t> bytes = io::serializeModel(makeModel(3));
    bytes[bytes.size() - 16] ^= 0x01; // inside the last payload
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(reg.swapFromFile("m", path), io::IoError);

    // v1 is still current and still serves bit-correct responses.
    ASSERT_TRUE(reg.current("m").has_value());
    EXPECT_EQ(reg.current("m")->version, 1u);
    const BinaryMatrix acts = makeRequests(1, 96, 77)[0];
    EXPECT_EQ(expected(*pinned.model, 0, acts), expected(v1, 0, acts));

    // load() of a fresh name fails the same way without creating a
    // half-registered entry.
    EXPECT_THROW(reg.load("fresh", path), io::IoError);
    EXPECT_FALSE(reg.contains("fresh"));

    // An intact artifact then swaps normally to v2.
    io::saveModel(makeModel(3), path);
    EXPECT_EQ(reg.swapFromFile("m", path).version, 2u);
    std::remove(path.c_str());
}

// ---- Registry-routed engines ----------------------------------------

TEST(RegistryEngine, ServesTwoModelsThroughOneEngine)
{
    const CompiledModel visionRef = makeModel(2);
    const CompiledModel nlpRef = makeModel(3, 64, 10);

    auto reg = std::make_shared<ModelRegistry>();
    const ModelHandle vision = reg->load("vision", makeModel(2));
    const ModelHandle nlp = reg->load("nlp", makeModel(3, 64, 10));

    PhiEngine engine(reg, withThreads(2));
    const std::vector<BinaryMatrix> visionReqs = makeRequests(3, 96, 21);
    const std::vector<BinaryMatrix> nlpReqs = makeRequests(3, 64, 22);

    // Interleaved requests against both models, one batch.
    const ModelRegistry::Pinned visionPin = reg->pin(vision);
    const ModelRegistry::Pinned nlpPin = reg->pin(nlp);
    std::vector<EngineRequest> batch;
    for (size_t i = 0; i < 3; ++i) {
        batch.push_back({visionPin, 0, &visionReqs[i]});
        batch.push_back({nlpPin, 0, &nlpReqs[i]});
    }
    const std::vector<EngineResponse> out = engine.serve(batch);
    ASSERT_EQ(out.size(), 6u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(out[2 * i].model, vision);
        EXPECT_EQ(out[2 * i].out, expected(visionRef, 0, visionReqs[i]));
        EXPECT_EQ(out[2 * i + 1].model, nlp);
        EXPECT_EQ(out[2 * i + 1].out, expected(nlpRef, 0, nlpReqs[i]));
    }

    // Per-model stats split the traffic; the process view merges it.
    EXPECT_EQ(engine.stats().requests, 6u);
    EXPECT_EQ(engine.stats().batches, 1u);
    EXPECT_EQ(engine.statsFor("vision").requests, 3u);
    EXPECT_EQ(engine.statsFor("nlp").requests, 3u);
    EXPECT_EQ(engine.statsFor("vision").batches, 1u);
    EXPECT_EQ(engine.statsFor("ghost").requests, 0u);
    EXPECT_EQ(engine.perModelStats().size(), 2u);

    // Retired names are prunable so ephemeral-model churn cannot
    // accrete per-name stats forever; the merged view is untouched.
    engine.dropStatsFor("nlp");
    EXPECT_EQ(engine.statsFor("nlp").requests, 0u);
    EXPECT_EQ(engine.perModelStats().size(), 1u);
    EXPECT_EQ(engine.stats().requests, 6u);

    // A name the registry does not hold routes nowhere.
    try {
        engine.serve(ModelHandle{"ghost", 1}, 0, visionReqs[0]);
        FAIL() << "served a model that was never loaded";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
}

TEST(RegistryEngine, SwapMidQueueServesEachRequestOnItsPinnedVersion)
{
    const CompiledModel v1 = makeModel(2);
    const CompiledModel v2 = makeModel(3);

    auto reg = std::make_shared<ModelRegistry>();
    const ModelHandle h1 = reg->load("m", makeModel(2));
    PhiEngine engine(reg, withThreads(2));

    // Each request is pinned when it is built; a swap between the two
    // pins splits one batch across both versions.
    const std::vector<BinaryMatrix> reqs = makeRequests(2, 96, 31);
    std::vector<EngineRequest> batch;
    batch.push_back({reg->pin(h1), 0, &reqs[0]});
    const ModelHandle h2 = reg->swap("m", makeModel(3));
    // Stale handle: pins the current version.
    batch.push_back({reg->pin(h1), 0, &reqs[1]});

    const auto out = engine.serve(batch);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].model.version, 1u);
    EXPECT_EQ(out[0].out, expected(v1, 0, reqs[0]));
    EXPECT_EQ(out[1].model, h2);
    EXPECT_EQ(out[1].out, expected(v2, 0, reqs[1]));
}

// ---- Async: hot-swap under fire -------------------------------------

TEST(RegistryAsyncEngine, ServesTwoModelsAndReportsVersions)
{
    const CompiledModel visionRef = makeModel(2);
    const CompiledModel nlpRef = makeModel(3, 64, 10);

    auto reg = std::make_shared<ModelRegistry>();
    const ModelHandle vision = reg->load("vision", makeModel(2));
    const ModelHandle nlp = reg->load("nlp", makeModel(3, 64, 10));

    AsyncPhiEngine engine(reg, withThreads(2));
    const std::vector<BinaryMatrix> visionReqs = makeRequests(4, 96, 51);
    const std::vector<BinaryMatrix> nlpReqs = makeRequests(4, 64, 52);
    std::vector<std::future<EngineResponse>> vf, nf;
    for (size_t i = 0; i < 4; ++i) {
        vf.push_back(engine.submit(vision, 0, visionReqs[i]));
        nf.push_back(engine.submit(nlp, 0, nlpReqs[i]));
    }
    for (size_t i = 0; i < 4; ++i) {
        EngineResponse v = vf[i].get();
        EXPECT_EQ(v.model, vision);
        EXPECT_EQ(v.out, expected(visionRef, 0, visionReqs[i]));
        EngineResponse n = nf[i].get();
        EXPECT_EQ(n.model, nlp);
        EXPECT_EQ(n.out, expected(nlpRef, 0, nlpReqs[i]));
    }
    engine.drain();
    EXPECT_EQ(engine.stats().requests, 8u);
    EXPECT_EQ(engine.statsFor("vision").requests, 4u);
    EXPECT_EQ(engine.statsFor("nlp").requests, 4u);
    EXPECT_EQ(engine.perModelStats().size(), 2u);

    // Async pruning of a retired name: the snapshot drops right away
    // and stays dropped with no further nlp traffic.
    engine.dropStatsFor("nlp");
    EXPECT_EQ(engine.statsFor("nlp").requests, 0u);
    EXPECT_EQ(engine.perModelStats().count("nlp"), 0u);
    EXPECT_EQ(engine.statsFor("vision").requests, 4u);

    // A name the registry does not hold fails its own future.
    auto fut = engine.submit(ModelHandle{"ghost", 1}, 0, visionReqs[0]);
    try {
        fut.get();
        FAIL() << "submit routed to a model that was never loaded";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
}

TEST(RegistryAsyncEngine, HotSwapUnderRacingProducersIsTearFree)
{
    // The tentpole acceptance test. 8 producers stream requests at
    // "m" while the main thread swaps it v1 -> v2 mid-traffic. The
    // outcome must be indistinguishable from draining and then
    // swapping: every future resolves (zero drops), every response
    // reports a version, and every response is bit-identical to that
    // version's reference output — the drain-then-swap run can serve
    // every request on whichever side of the swap it landed, and
    // nothing else. A torn model (pattern tables of one version,
    // weights/PWPs of another) would produce bytes matching neither
    // reference and fail the EXPECT below; the shared_ptr epochs are
    // also raced under TSan in CI.
    const CompiledModel v1 = makeModel(2);
    const CompiledModel v2 = makeModel(3);

    auto reg = std::make_shared<ModelRegistry>();
    const ModelHandle h1 = reg->load("m", makeModel(2));
    AsyncEngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxLingerMicros = 50;
    AsyncPhiEngine engine(reg, withThreads(2), cfg);

    constexpr size_t kProducers = 8;
    constexpr size_t kPerProducer = 16;
    std::atomic<size_t> wrongBytes{0}, dropped{0}, badVersion{0};
    std::atomic<size_t> servedByV2{0};

    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            const std::vector<BinaryMatrix> reqs =
                makeRequests(kPerProducer, 96, 600 + p);
            std::vector<std::future<EngineResponse>> futures;
            for (const auto& acts : reqs)
                futures.push_back(engine.submit(h1, 0, acts));
            for (size_t i = 0; i < futures.size(); ++i) {
                try {
                    EngineResponse resp = futures[i].get();
                    const CompiledModel* ref = nullptr;
                    if (resp.model.version == 1)
                        ref = &v1;
                    else if (resp.model.version == 2)
                        ref = &v2, ++servedByV2;
                    if (ref == nullptr)
                        ++badVersion;
                    else if (resp.out != expected(*ref, 0, reqs[i]))
                        ++wrongBytes;
                } catch (...) {
                    ++dropped;
                }
            }
        });
    }
    // Swap mid-traffic (no synchronisation: the race is the point).
    const ModelHandle h2 = reg->swap("m", makeModel(3));
    EXPECT_EQ(h2.version, 2u);
    for (auto& t : producers)
        t.join();

    EXPECT_EQ(dropped.load(), 0u) << "hot swap dropped responses";
    EXPECT_EQ(badVersion.load(), 0u);
    EXPECT_EQ(wrongBytes.load(), 0u)
        << "a response did not match its reported version: torn model";
    engine.drain();
    EXPECT_EQ(engine.stats().requests, kProducers * kPerProducer);
    EXPECT_EQ(engine.statsFor("m").requests, kProducers * kPerProducer);

    // Post-swap traffic routes to v2 (stale handles keep working).
    const BinaryMatrix after = makeRequests(1, 96, 700)[0];
    EngineResponse resp = engine.submit(h1, 0, after).get();
    EXPECT_EQ(resp.model, h2);
    EXPECT_EQ(resp.out, expected(v2, 0, after));

    // Sanity: the swap actually raced some traffic in both directions
    // on most runs; tolerate the extremes but log them.
    if (servedByV2.load() == 0)
        GTEST_LOG_(INFO) << "swap landed after all traffic this run";
}

TEST(RegistryAsyncEngine, HotSwapMatchesDrainThenSwapReference)
{
    // The deterministic half of the acceptance criterion: the
    // drain-then-swap reference run, byte-compared per version. Any
    // request served by v_i must produce exactly the drain-run's v_i
    // bytes — swap timing may move requests between versions, but can
    // never invent a third behaviour.
    const CompiledModel v1 = makeModel(2);
    const CompiledModel v2 = makeModel(3);
    const std::vector<BinaryMatrix> reqs = makeRequests(12, 96, 800);

    // Reference: serve everything on v1, drain, swap, serve on v2.
    std::vector<Matrix<int32_t>> refV1, refV2;
    {
        auto reg = std::make_shared<ModelRegistry>();
        const ModelHandle h = reg->load("m", makeModel(2));
        AsyncPhiEngine engine(reg, withThreads(2));
        std::vector<std::future<EngineResponse>> futures;
        for (const auto& acts : reqs)
            futures.push_back(engine.submit(h, 0, acts));
        for (auto& f : futures)
            refV1.push_back(f.get().out);
        engine.drain();
        reg->swap("m", makeModel(3));
        futures.clear();
        for (const auto& acts : reqs)
            futures.push_back(engine.submit(h, 0, acts));
        for (auto& f : futures)
            refV2.push_back(f.get().out);
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(refV1[i], expected(v1, 0, reqs[i]));
        EXPECT_EQ(refV2[i], expected(v2, 0, reqs[i]));
    }

    // Racing run: same traffic, swap unsynchronised; every response
    // must equal one of the two reference behaviours, chosen by its
    // reported version.
    auto reg = std::make_shared<ModelRegistry>();
    const ModelHandle h = reg->load("m", makeModel(2));
    AsyncEngineConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxLingerMicros = 20;
    AsyncPhiEngine engine(reg, withThreads(2), cfg);
    std::vector<std::future<EngineResponse>> futures;
    for (size_t i = 0; i < reqs.size(); ++i) {
        if (i == reqs.size() / 2)
            reg->swap("m", makeModel(3));
        futures.push_back(engine.submit(h, 0, reqs[i]));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        EngineResponse resp = futures[i].get();
        ASSERT_TRUE(resp.model.version == 1 || resp.model.version == 2);
        EXPECT_EQ(resp.out,
                  resp.model.version == 1 ? refV1[i] : refV2[i])
            << "request " << i << " diverged from the drain-then-swap "
            << "reference for " << resp.model;
    }
}

TEST(RegistryAsyncEngine, UnloadWithInFlightRequestsFailsTyped)
{
    // unload() must refuse to race in-flight work: queued (pinned)
    // requests make it throw ModelBusy; after a drain it succeeds and
    // later submits reject with UnknownModel.
    auto reg = std::make_shared<ModelRegistry>();
    const ModelHandle h = reg->load("m", makeModel(2));
    AsyncEngineConfig cfg;
    cfg.maxBatch = 64;
    cfg.maxLingerMicros = 10'000'000; // park requests in the queue
    AsyncPhiEngine engine(reg, withThreads(1), cfg);

    const std::vector<BinaryMatrix> reqs = makeRequests(4, 96, 900);
    std::vector<std::future<EngineResponse>> futures;
    for (const auto& acts : reqs)
        futures.push_back(engine.submit(h, 0, acts));
    try {
        reg->unload("m");
        FAIL() << "unload raced " << reqs.size() << " queued requests";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::ModelBusy);
    }
    // The refused unload dropped nothing: every request still serves
    // (shutdown short-circuits the parking linger and flushes now).
    engine.shutdown();
    for (size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].get().model.version, 1u);

    EXPECT_NO_THROW(reg->unload("m"));
    // submit() pins before anything else, so even on a stopped engine
    // the unloaded model reports UnknownModel — the registry, not the
    // lifecycle, owns that answer.
    auto late = engine.submit(h, 0, reqs[0]);
    try {
        late.get();
        FAIL() << "submit against an unloaded model resolved";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
}

TEST(RegistryAsyncEngine, QuantizedArtifactHotSwapsUnderLiveTraffic)
{
    // The PWP-quantization rollout path: a .phim artifact carrying a
    // LAYT section (int16 tier) is swapped in via swapFromFile while
    // producers stream requests. Quantization is lossless by
    // construction, so v2 responses must be bit-identical to the
    // *unquantized* v2 reference — and nothing may drop or tear
    // during the swap.
    const CompiledModel v1 = makeModel(2);
    const CompiledModel v2 = makeModel(3);

    // Same weights as v2, recompiled with an int16 PWP ceiling.
    CompiledModel v2q = [] {
        Rng rng(17);
        BinaryMatrix train = BinaryMatrix::random(160, 96, 0.15, rng);
        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = 24;
        cfg.kmeans.maxIters = 8;
        Pipeline pipe(cfg);
        pipe.setPwpQuant(PwpTier::Int16);
        pipe.addLayer("l0", {&train})
            .bindWeights(test::randomWeights(96, 24, 3));
        return pipe.compile();
    }();
    ASSERT_EQ(v2q.layer(0).pwpTier(), PwpTier::Int16);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("phi_registry_quant_" + std::to_string(::getpid()) + ".phim"))
            .string();
    io::saveModel(v2q, path);

    auto reg = std::make_shared<ModelRegistry>();
    const ModelHandle h1 = reg->load("m", makeModel(2));
    AsyncEngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxLingerMicros = 50;
    AsyncPhiEngine engine(reg, withThreads(2), cfg);

    constexpr size_t kProducers = 4;
    constexpr size_t kPerProducer = 12;
    std::atomic<size_t> wrongBytes{0}, dropped{0};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            const std::vector<BinaryMatrix> reqs =
                makeRequests(kPerProducer, 96, 800 + p);
            std::vector<std::future<EngineResponse>> futures;
            for (const auto& acts : reqs)
                futures.push_back(engine.submit(h1, 0, acts));
            for (size_t i = 0; i < futures.size(); ++i) {
                try {
                    EngineResponse resp = futures[i].get();
                    const CompiledModel& ref =
                        resp.model.version == 1 ? v1 : v2;
                    if (resp.out != expected(ref, 0, reqs[i]))
                        ++wrongBytes;
                } catch (...) {
                    ++dropped;
                }
            }
        });
    }
    const ModelHandle h2 = reg->swapFromFile("m", path);
    EXPECT_EQ(h2.version, 2u);
    for (auto& t : producers)
        t.join();
    std::remove(path.c_str());

    EXPECT_EQ(dropped.load(), 0u);
    EXPECT_EQ(wrongBytes.load(), 0u)
        << "quantized serving diverged from the exact reference";

    // The swapped-in epoch really is the quantized one (half the PWP
    // bytes), and post-swap traffic serves off it exactly.
    const ModelRegistry::Pinned pinned = reg->pin("m");
    EXPECT_EQ(pinned.model->layer(0).pwpTier(), PwpTier::Int16);
    const BinaryMatrix after = makeRequests(1, 96, 990)[0];
    EngineResponse resp = engine.submit(h1, 0, after).get();
    EXPECT_EQ(resp.model, h2);
    EXPECT_EQ(resp.out, expected(v2, 0, after));
}

} // namespace
} // namespace phi
