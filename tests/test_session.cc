/**
 * @file
 * SessionManager tests: stateful temporal serving.
 *
 * The acceptance criteria pinned here: (a) streaming T spike frames
 * through a session is bit-identical to the offline spikeGemm +
 * LifPopulation reference at 1/2/8 compute threads, however the pump
 * batched or interleaved the rounds; (b) the same holds across a
 * snapshot save -> restore into a fresh manager mid-stream; (c) >= 8
 * concurrent interleaved sessions each produce their own reference
 * stream exactly. Plus the lifecycle taxonomy (SessionNotFound /
 * SessionExpired / TooManySessions / Stopped), shape validation,
 * epoch pinning across hot-swap, and the `.phis` artifact's
 * corruption rejection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "artifact_cases.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "io/session_io.hh"
#include "numeric/gemm.hh"
#include "runtime/session.hh"
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

/** Copy one row of @p src into row @p dstRow of @p dst. */
void
copyRow(const BinaryMatrix& src, size_t srcRow, BinaryMatrix& dst,
        size_t dstRow)
{
    for (size_t c = 0; c < src.cols(); c += 64) {
        const int len =
            static_cast<int>(std::min<size_t>(64, src.cols() - c));
        dst.deposit(dstRow, c, len, src.extract(srcRow, c, len));
    }
}

/** Stack a sequence of spike rasters row-wise. */
BinaryMatrix
vstack(const std::vector<BinaryMatrix>& parts)
{
    size_t rows = 0;
    for (const auto& p : parts)
        rows += p.rows();
    BinaryMatrix out(rows, parts.front().cols());
    size_t at = 0;
    for (const auto& p : parts)
        for (size_t r = 0; r < p.rows(); ++r)
            copyRow(p, r, out, at++);
    return out;
}

/**
 * The offline reference: T frames through spikeGemm + LifPopulation,
 * one timestep at a time, layer l's spikes feeding layer l+1. The
 * populations persist across calls so a caller can split the stream
 * exactly like a client splits step() calls.
 */
BinaryMatrix
referenceForward(const BinaryMatrix& frames,
                 const std::vector<Matrix<int16_t>>& weights,
                 std::vector<LifPopulation>& pops)
{
    BinaryMatrix out(frames.rows(), weights.back().cols());
    for (size_t t = 0; t < frames.rows(); ++t) {
        BinaryMatrix cur(1, frames.cols());
        copyRow(frames, t, cur, 0);
        for (size_t l = 0; l < weights.size(); ++l) {
            const Matrix<int32_t> acc = spikeGemm(cur, weights[l]);
            BinaryMatrix next(1, weights[l].cols());
            pops[l].stepInto(acc.rowPtr(0), next, 0);
            cur = std::move(next);
        }
        copyRow(cur, 0, out, t);
    }
    return out;
}

class SessionManagerTest : public ::testing::Test
{
  protected:
    static constexpr size_t kK0 = 96; // layer-0 input width
    static constexpr size_t kN0 = 48; // layer-0 -> layer-1 width
    static constexpr size_t kN1 = 24; // final spike width

    void
    SetUp() override
    {
        w0 = test::randomWeights(kK0, kN0, 11);
        w1 = test::randomWeights(kN0, kN1, 12);
        registry = std::make_shared<ModelRegistry>();
        registry->load("m", makeModel(w0, w1, 3));
    }

    /** A two-layer model whose widths chain (N0 feeds layer 1). */
    static CompiledModel
    makeModel(const Matrix<int16_t>& l0, const Matrix<int16_t>& l1,
              uint64_t seed)
    {
        Rng rng(seed);
        BinaryMatrix train0 =
            BinaryMatrix::random(192, l0.rows(), 0.15, rng);
        BinaryMatrix train1 =
            BinaryMatrix::random(160, l1.rows(), 0.2, rng);
        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = 24;
        cfg.kmeans.maxIters = 8;
        Pipeline pipe(cfg);
        pipe.addLayer("proj", {&train0}).bindWeights(l0);
        pipe.addLayer("head", {&train1}).bindWeights(l1);
        return pipe.compile();
    }

    BinaryMatrix
    makeFrames(size_t t, uint64_t seed) const
    {
        Rng rng(seed);
        return BinaryMatrix::random(t, kK0, 0.18, rng);
    }

    std::vector<Matrix<int16_t>>
    weightChain() const
    {
        return {w0, w1};
    }

    Matrix<int16_t> w0, w1;
    std::shared_ptr<ModelRegistry> registry;
};

TEST_F(SessionManagerTest, StreamingMatchesOfflineReferenceAtAnyThreadCount)
{
    const BinaryMatrix frames = makeFrames(12, 501);
    std::vector<LifPopulation> ref{LifPopulation(kN0),
                                   LifPopulation(kN1)};
    const BinaryMatrix expected =
        referenceForward(frames, weightChain(), ref);

    for (int threads : {1, 2, 8}) {
        AsyncPhiEngine engine(registry, withThreads(threads));
        SessionManager mgr(engine);
        const uint64_t sid = mgr.open("m");

        // Split the stream unevenly so firstStep bookkeeping is
        // exercised, not just the T-in-one-call case.
        std::vector<BinaryMatrix> got;
        uint64_t at = 0;
        for (size_t chunk : {1u, 4u, 7u}) {
            BinaryMatrix part(chunk, kK0);
            for (size_t r = 0; r < chunk; ++r)
                copyRow(frames, at + r, part, r);
            SessionStepResult res = mgr.step(sid, part).get();
            EXPECT_EQ(res.sessionId, sid);
            EXPECT_EQ(res.firstStep, at);
            EXPECT_EQ(res.spikes.rows(), chunk);
            got.push_back(std::move(res.spikes));
            at += chunk;
        }
        EXPECT_TRUE(vstack(got) == expected)
            << "session stream diverged from the offline reference at "
            << threads << " threads";

        EXPECT_EQ(mgr.info(sid).steps, frames.rows());
        EXPECT_EQ(mgr.close(sid), frames.rows());
        const ServingStats s = mgr.stats();
        EXPECT_EQ(s.sessionSteps, frames.rows());
        EXPECT_EQ(s.sessionsOpened, 1u);
        EXPECT_EQ(s.sessionsClosed, 1u);
    }
}

TEST_F(SessionManagerTest, ConcurrentInterleavedSessionsStayBitExact)
{
    constexpr size_t kSessions = 8;
    constexpr size_t kT = 10;

    AsyncPhiEngine engine(registry, withThreads(4));
    SessionManager mgr(engine);

    std::vector<BinaryMatrix> frames;
    std::vector<BinaryMatrix> expected;
    for (size_t i = 0; i < kSessions; ++i) {
        frames.push_back(makeFrames(kT, 900 + i));
        std::vector<LifPopulation> ref{LifPopulation(kN0),
                                       LifPopulation(kN1)};
        expected.push_back(
            referenceForward(frames.back(), weightChain(), ref));
    }

    std::vector<std::thread> clients;
    // One byte per client: vector<bool> packs bits, so concurrent
    // writes to neighbouring entries would race.
    std::vector<char> matched(kSessions, 0);
    for (size_t i = 0; i < kSessions; ++i) {
        clients.emplace_back([&, i] {
            const uint64_t sid = mgr.open("m");
            // Frame-at-a-time steps maximise pump interleave: every
            // round batches whichever sessions have work.
            std::vector<BinaryMatrix> got;
            for (size_t t = 0; t < kT; ++t) {
                BinaryMatrix one(1, kK0);
                copyRow(frames[i], t, one, 0);
                got.push_back(mgr.step(sid, one).get().spikes);
            }
            matched[i] = vstack(got) == expected[i];
            mgr.close(sid);
        });
    }
    for (auto& t : clients)
        t.join();
    for (size_t i = 0; i < kSessions; ++i)
        EXPECT_TRUE(matched[i]) << "session " << i << " diverged";

    const ServingStats s = mgr.stats();
    EXPECT_EQ(s.sessionSteps, kSessions * kT);
    EXPECT_EQ(s.sessionsOpened, kSessions);
    EXPECT_EQ(s.sessionsClosed, kSessions);
    EXPECT_EQ(s.activeSessions(), 0u);
}

TEST_F(SessionManagerTest, SnapshotRestoreMidStreamIsBitIdentical)
{
    const BinaryMatrix frames = makeFrames(12, 733);
    std::vector<LifPopulation> ref{LifPopulation(kN0),
                                   LifPopulation(kN1)};
    const BinaryMatrix expected =
        referenceForward(frames, weightChain(), ref);

    // First half in process one.
    io::SessionSnapshot snap;
    BinaryMatrix firstHalf(6, kK0);
    uint64_t sid = 0;
    {
        AsyncPhiEngine engine(registry, withThreads(2));
        SessionManager mgr(engine);
        sid = mgr.open("m");
        for (size_t r = 0; r < 6; ++r)
            copyRow(frames, r, firstHalf, r);
        SessionStepResult res = mgr.step(sid, firstHalf).get();
        BinaryMatrix head(6, kN1);
        for (size_t r = 0; r < 6; ++r) {
            copyRow(expected, r, head, r);
        }
        EXPECT_TRUE(res.spikes == head);
        snap = mgr.snapshot();
    }

    // Round-trip the snapshot through actual bytes — what a restart
    // reads is the serialized artifact, not the in-memory struct.
    const std::vector<uint8_t> bytes = io::serializeSessions(snap);
    const io::SessionSnapshot reloaded =
        io::parseSessions(bytes.data(), bytes.size());

    // Second half in a fresh engine + manager ("process two").
    AsyncPhiEngine engine(registry, withThreads(2));
    SessionManager mgr(engine);
    ASSERT_EQ(mgr.restore(reloaded), 1u);
    EXPECT_EQ(mgr.info(sid).steps, 6u);

    BinaryMatrix secondHalf(6, kK0);
    for (size_t r = 0; r < 6; ++r)
        copyRow(frames, 6 + r, secondHalf, r);
    SessionStepResult res = mgr.step(sid, secondHalf).get();
    EXPECT_EQ(res.firstStep, 6u);
    BinaryMatrix tail(6, kN1);
    for (size_t r = 0; r < 6; ++r)
        copyRow(expected, 6 + r, tail, r);
    EXPECT_TRUE(res.spikes == tail)
        << "restored session diverged from the uninterrupted reference";

    // New opens in the restored manager never reuse a restored id.
    const uint64_t fresh = mgr.open("m");
    EXPECT_GT(fresh, sid);
}

TEST_F(SessionManagerTest, SessionPinsItsEpochAcrossHotSwap)
{
    const BinaryMatrix frames = makeFrames(8, 404);
    std::vector<LifPopulation> ref{LifPopulation(kN0),
                                   LifPopulation(kN1)};
    const BinaryMatrix expectedV1 =
        referenceForward(frames, weightChain(), ref);

    AsyncPhiEngine engine(registry, withThreads(2));
    SessionManager mgr(engine);
    const uint64_t sid = mgr.open("m");
    EXPECT_EQ(mgr.info(sid).model.version, 1u);

    BinaryMatrix head(4, kK0);
    for (size_t r = 0; r < 4; ++r)
        copyRow(frames, r, head, r);
    const BinaryMatrix got0 = mgr.step(sid, head).get().spikes;

    // Hot-swap the name to different weights mid-stream.
    const Matrix<int16_t> w0b = test::randomWeights(kK0, kN0, 77);
    const Matrix<int16_t> w1b = test::randomWeights(kN0, kN1, 78);
    registry->swap("m", makeModel(w0b, w1b, 5));

    // The open stream keeps serving epoch 1 bit-for-bit...
    BinaryMatrix tailIn(4, kK0);
    for (size_t r = 0; r < 4; ++r)
        copyRow(frames, 4 + r, tailIn, r);
    const BinaryMatrix got1 = mgr.step(sid, tailIn).get().spikes;
    EXPECT_TRUE(vstack({got0, got1}) == expectedV1);

    // ...while a new session pins the swapped epoch.
    const uint64_t sid2 = mgr.open("m");
    EXPECT_EQ(mgr.info(sid2).model.version, 2u);
    std::vector<LifPopulation> ref2{LifPopulation(kN0),
                                    LifPopulation(kN1)};
    const BinaryMatrix expectedV2 =
        referenceForward(frames, {w0b, w1b}, ref2);
    const BinaryMatrix gotV2 = mgr.step(sid2, frames).get().spikes;
    EXPECT_TRUE(gotV2 == expectedV2);
}

TEST_F(SessionManagerTest, LifecycleErrorsAreTyped)
{
    AsyncPhiEngine engine(registry, withThreads(1));
    SessionConfig cfg;
    cfg.maxSessions = 2;
    SessionManager mgr(engine, cfg);

    // Unknown ids: typed, both on the future path and the throw path.
    try {
        mgr.step(999, makeFrames(1, 1)).get();
        FAIL() << "step on an unknown session did not fail";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::SessionNotFound);
    }
    EXPECT_THROW(mgr.close(999), EngineError);
    EXPECT_THROW(mgr.info(999), EngineError);
    EXPECT_THROW(mgr.open("no-such-model"), EngineError);

    // The cap: the third open is refused, typed and counted.
    mgr.open("m");
    mgr.open("m");
    try {
        mgr.open("m");
        FAIL() << "open beyond the cap did not fail";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::TooManySessions);
    }
    EXPECT_EQ(mgr.stats().sessionsRejected, 1u);
    EXPECT_EQ(mgr.size(), 2u);
}

TEST_F(SessionManagerTest, IdleTtlEvictsWithTombstones)
{
    AsyncPhiEngine engine(registry, withThreads(1));
    SessionConfig cfg;
    cfg.idleTtlMillis = 20;
    SessionManager mgr(engine, cfg);

    const uint64_t sid = mgr.open("m");
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    // The pump self-sweeps every TTL interval, so the session may
    // already be gone; the manual sweep just must not double-count.
    mgr.sweepIdle();
    EXPECT_EQ(mgr.size(), 0u);
    EXPECT_EQ(mgr.stats().sessionsExpired, 1u);

    // Evicted: SessionExpired — the id was real, its state is gone.
    try {
        mgr.step(sid, makeFrames(1, 2)).get();
        FAIL() << "step on an evicted session did not fail";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::SessionExpired);
    }
    // Never existed: SessionNotFound, not SessionExpired.
    try {
        mgr.info(sid + 1000);
        FAIL();
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::SessionNotFound);
    }
}

TEST_F(SessionManagerTest, ShapeValidationIsTyped)
{
    AsyncPhiEngine engine(registry, withThreads(1));
    SessionManager mgr(engine);

    // Params count must match the layer count exactly (or be empty).
    try {
        mgr.open("m", {LifParams{}});
        FAIL() << "one LifParams for a two-layer model did not fail";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::ShapeMismatch);
    }
    // Client-supplied params are request errors, not assertions.
    LifParams bad;
    bad.threshold = -1.0f;
    EXPECT_THROW(mgr.open("m", {bad, LifParams{}}), EngineError);

    const uint64_t sid = mgr.open("m");
    try {
        mgr.step(sid, BinaryMatrix(2, kK0 + 1)).get();
        FAIL() << "frame width mismatch did not fail";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::ShapeMismatch);
    }
    try {
        mgr.step(sid, BinaryMatrix(0, kK0)).get();
        FAIL() << "zero frames did not fail";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::ShapeMismatch);
    }
    // The session survived every rejected step.
    EXPECT_EQ(mgr.info(sid).steps, 0u);
    BinaryMatrix ok = makeFrames(2, 3);
    EXPECT_EQ(mgr.step(sid, ok).get().spikes.rows(), 2u);
}

TEST_F(SessionManagerTest, ShutdownResolvesEverything)
{
    AsyncPhiEngine engine(registry, withThreads(2));
    std::vector<std::future<SessionStepResult>> futures;
    {
        SessionManager mgr(engine);
        const uint64_t sid = mgr.open("m");
        for (int i = 0; i < 16; ++i)
            futures.push_back(mgr.step(sid, makeFrames(2, 50 + i)));
        mgr.shutdown();
        // Post-shutdown intake is typed.
        try {
            mgr.open("m");
            FAIL() << "open after shutdown did not fail";
        } catch (const EngineError& e) {
            EXPECT_EQ(e.code(), EngineError::Code::Stopped);
        }
        // Snapshot still works after shutdown — the drain path
        // persists sessions on the way out.
        EXPECT_EQ(mgr.snapshot().sessions.size(), 1u);
    }
    // Every future resolved: served before the stop, or Stopped.
    size_t served = 0, stopped = 0;
    for (auto& f : futures) {
        try {
            f.get();
            ++served;
        } catch (const EngineError& e) {
            EXPECT_EQ(e.code(), EngineError::Code::Stopped);
            ++stopped;
        }
    }
    EXPECT_EQ(served + stopped, futures.size());
}

TEST_F(SessionManagerTest, RestoreValidatesAllOrNothing)
{
    AsyncPhiEngine engine(registry, withThreads(1));
    SessionManager mgr(engine);
    const uint64_t sid = mgr.open("m");
    io::SessionSnapshot snap = mgr.snapshot();
    ASSERT_EQ(snap.sessions.size(), 1u);

    AsyncPhiEngine engine2(registry, withThreads(1));

    // A record whose model is no longer resident: UnknownModel.
    {
        io::SessionSnapshot bad = snap;
        bad.sessions[0].model = "gone";
        SessionManager fresh(engine2);
        EXPECT_THROW(fresh.restore(bad), EngineError);
        EXPECT_EQ(fresh.size(), 0u);
    }
    // Saved state that no longer fits the resident model.
    {
        io::SessionSnapshot bad = snap;
        bad.sessions[0].layerState[0].membrane.pop_back();
        bad.sessions[0].layerState[0].refractory.pop_back();
        SessionManager fresh(engine2);
        try {
            fresh.restore(bad);
            FAIL() << "neuron-count mismatch did not fail";
        } catch (const EngineError& e) {
            EXPECT_EQ(e.code(), EngineError::Code::ShapeMismatch);
        }
        EXPECT_EQ(fresh.size(), 0u);
    }
    // An id collision with an open session is an internal error.
    try {
        mgr.restore(snap);
        FAIL() << "restoring over an open id did not fail";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::Internal);
    }
    // Restore past the cap is refused whole.
    {
        SessionConfig cfg;
        cfg.maxSessions = 1;
        SessionManager capped(engine2, cfg);
        capped.open("m");
        try {
            capped.restore(snap);
            FAIL() << "restore past the cap did not fail";
        } catch (const EngineError& e) {
            EXPECT_EQ(e.code(), EngineError::Code::TooManySessions);
        }
    }
    EXPECT_EQ(mgr.close(sid), 0u);
}

// ---- .phis artifact ---------------------------------------------------

TEST(SessionIoTest, SnapshotBytesRoundTripExactly)
{
    io::SessionSnapshot snap;
    snap.nextSessionId = 42;
    io::SessionStateRecord rec;
    rec.id = 7;
    rec.model = "vision";
    rec.version = 3;
    rec.steps = 1234;
    LifParams p;
    p.leak = 0.625f;
    p.threshold = 1.5f;
    p.hardReset = false;
    p.refractory = 2;
    rec.layerParams = {p};
    rec.layerState.push_back(
        {{0.25f, -3.5f, 0.0f}, {0, 2, 1}});
    snap.sessions.push_back(rec);

    const std::vector<uint8_t> bytes = io::serializeSessions(snap);
    const io::SessionSnapshot back =
        io::parseSessions(bytes.data(), bytes.size());
    ASSERT_EQ(back.sessions.size(), 1u);
    EXPECT_EQ(back.nextSessionId, 42u);
    const io::SessionStateRecord& r = back.sessions[0];
    EXPECT_EQ(r.id, 7u);
    EXPECT_EQ(r.model, "vision");
    EXPECT_EQ(r.version, 3u);
    EXPECT_EQ(r.steps, 1234u);
    ASSERT_EQ(r.layerParams.size(), 1u);
    EXPECT_EQ(r.layerParams[0].leak, 0.625f);
    EXPECT_EQ(r.layerParams[0].threshold, 1.5f);
    EXPECT_FALSE(r.layerParams[0].hardReset);
    EXPECT_EQ(r.layerParams[0].refractory, 2);
    EXPECT_EQ(r.layerState[0].membrane,
              (std::vector<float>{0.25f, -3.5f, 0.0f}));
    EXPECT_EQ(r.layerState[0].refractory,
              (std::vector<int32_t>{0, 2, 1}));
}

/** A one-session, one-layer snapshot image. */
std::vector<uint8_t>
smallSnapshotImage()
{
    io::SessionSnapshot snap;
    snap.nextSessionId = 2;
    io::SessionStateRecord rec;
    rec.id = 1;
    rec.model = "m";
    rec.layerParams = {LifParams{}};
    rec.layerState.push_back({{1.0f, 2.0f}, {0, 0}});
    snap.sessions.push_back(rec);
    return io::serializeSessions(snap);
}

TEST(SessionIoTest, TruncatedSnapshotIsRejected)
{
    test::expectRejectsTruncationAtEveryBoundary(smallSnapshotImage(),
                                                 test::parseSessionsImage);
}

TEST(SessionIoTest, CorruptPayloadIsRejectedByCrc)
{
    test::expectCrcFlipNamesTheSection(smallSnapshotImage(),
                                       test::parseSessionsImage);
}

TEST(SessionIoTest, RejectsBadMagic)
{
    test::expectRejectsBadMagic(smallSnapshotImage(),
                                test::parseSessionsImage);
}

TEST(SessionIoTest, RejectsUnsupportedVersion)
{
    test::expectRejectsUnsupportedVersion(smallSnapshotImage(),
                                          test::parseSessionsImage);
}

TEST(SessionIoTest, RejectsWrongKind)
{
    test::expectRejectsKind(smallSnapshotImage(), test::parseSessionsImage,
                            2);
}

TEST(SessionIoTest, RejectsLyingSectionTable)
{
    test::expectRejectsLyingSectionTable(smallSnapshotImage(),
                                         test::parseSessionsImage);
}

TEST(SessionIoTest, ContainerLayoutIsPinnedByLiteralBytes)
{
    // The empty snapshot: one SESS section holding nextSessionId = 1
    // and a zero session count.
    const std::vector<uint8_t> bytes =
        io::serializeSessions(io::SessionSnapshot{});
    const std::vector<uint8_t> expected = {
        0x50, 0x48, 0x49, 0x53,                         // "PHIS"
        0x01, 0x00, 0x00, 0x00,                         // version 1
        0x01, 0x00, 0x00, 0x00,                         // kind 1
        0x01, 0x00, 0x00, 0x00,                         // 1 section
        0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 64 bytes
        0x53, 0x45, 0x53, 0x53,                         // "SESS"
        0xC4, 0xDA, 0xD3, 0x42,                         // CRC-32
        0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // offset 48
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 16 bytes
    };
    ASSERT_EQ(bytes.size(), 64u);
    EXPECT_EQ(std::vector<uint8_t>(bytes.begin(),
                                   bytes.begin() + expected.size()),
              expected);
}

TEST(SessionIoTest, InconsistentIdsAreRejected)
{
    io::SessionSnapshot snap;
    snap.nextSessionId = 1; // lies: record id 5 >= nextSessionId
    io::SessionStateRecord rec;
    rec.id = 5;
    rec.model = "m";
    rec.layerParams = {LifParams{}};
    rec.layerState.push_back({{0.0f}, {0}});
    snap.sessions.push_back(rec);
    const std::vector<uint8_t> bytes = io::serializeSessions(snap);
    EXPECT_THROW(io::parseSessions(bytes.data(), bytes.size()),
                 io::IoError);
}

TEST(SessionIoTest, FileRoundTripAndMissingFile)
{
    io::SessionSnapshot snap;
    snap.nextSessionId = 9;
    io::SessionStateRecord rec;
    rec.id = 8;
    rec.model = "m";
    rec.layerParams = {LifParams{}};
    rec.layerState.push_back({{0.5f}, {0}});
    snap.sessions.push_back(rec);

    const std::string path =
        ::testing::TempDir() + "session_io_roundtrip.phis";
    io::saveSessions(snap, path);
    const io::SessionSnapshot back = io::loadSessions(path);
    EXPECT_EQ(back.nextSessionId, 9u);
    ASSERT_EQ(back.sessions.size(), 1u);
    EXPECT_EQ(back.sessions[0].id, 8u);
    std::remove(path.c_str());

    EXPECT_THROW(io::loadSessions(path), io::IoError);
}

} // namespace
} // namespace phi
