/**
 * @file
 * PhiServer tests over live loopback sockets: bit-exact serving
 * through the wire, concurrent connections, hot-swap mid-traffic,
 * protocol hardening (truncated/lying/oversized frames, mid-request
 * disconnects), slow-client write bounds, timeouts, the STATS verb,
 * and graceful drain semantics.
 *
 * The hostile-reality contract pinned throughout: every malformed or
 * hostile interaction yields a typed wire error or a clean close —
 * never a hang, a crash, a poisoned neighbour connection, or a leaked
 * file descriptor (asserted by counting /proc/self/fd before and
 * after).
 */

#ifdef __linux__

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/rng.hh"
#include "core/pipeline.hh"
#include "io/model_io.hh"
#include "io/session_io.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "numeric/gemm.hh"
#include "snn/lif.hh"
#include "test_support.hh"

namespace phi::net
{
namespace
{

/** Open fds of this process — the leak detector. */
size_t
openFdCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

CompiledModel
makeModel(size_t k, const Matrix<int16_t>& weights, uint64_t seed)
{
    Rng rng(seed);
    BinaryMatrix train = BinaryMatrix::random(256, k, 0.15, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 24;
    cfg.kmeans.maxIters = 8;
    Pipeline pipe(cfg);
    pipe.addLayer("l0", {&train}).bindWeights(weights);
    return pipe.compile();
}

class PhiServerTest : public ::testing::Test
{
  protected:
    static constexpr size_t kK = 96;

    void
    SetUp() override
    {
        weights = test::randomWeights(kK, 24, 5);
        registry = std::make_shared<ModelRegistry>();
        registry->load("m", makeModel(kK, weights, 3));
    }

    /** Start a server on an ephemeral loopback port. */
    std::unique_ptr<PhiServer>
    startServer(PhiServerConfig cfg = {})
    {
        AsyncEngineConfig engineCfg;
        engineCfg.maxLingerMicros = 0;
        engineCfg.backpressure =
            AsyncEngineConfig::Backpressure::Reject;
        auto server = std::make_unique<PhiServer>(
            registry, ExecutionConfig{}, engineCfg, cfg);
        server->start();
        return server;
    }

    BinaryMatrix
    makeActs(size_t rows, uint64_t seed) const
    {
        Rng rng(seed);
        return BinaryMatrix::random(rows, kK, 0.2, rng);
    }

    Matrix<int16_t> weights;
    std::shared_ptr<ModelRegistry> registry;
};

TEST_F(PhiServerTest, ServesBitExactOverTheWire)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());
    const BinaryMatrix acts = makeActs(20, 17);
    const WireResponse resp = client.request("m", 0, acts);
    EXPECT_EQ(resp.model, "m");
    EXPECT_EQ(resp.version, 1u);
    EXPECT_TRUE(resp.out == spikeGemm(acts, weights));
}

TEST_F(PhiServerTest, ConcurrentConnectionsAllServeCorrectly)
{
    auto server = startServer();
    constexpr size_t kClients = 8;
    constexpr size_t kPerClient = 16;
    std::vector<std::thread> threads;
    std::atomic<size_t> exact{0};
    for (size_t t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            PhiClient client("127.0.0.1", server->port());
            for (size_t i = 0; i < kPerClient; ++i) {
                const BinaryMatrix acts = makeActs(8, 100 + t * 31 + i);
                const WireResponse resp = client.request("m", 0, acts);
                if (resp.out == spikeGemm(acts, weights))
                    ++exact;
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(exact.load(), kClients * kPerClient);
    const ServerCounters c = server->counters();
    EXPECT_EQ(c.requests, kClients * kPerClient);
    EXPECT_EQ(c.responses, kClients * kPerClient);
    EXPECT_EQ(c.wireErrors, 0u);
}

TEST_F(PhiServerTest, PipelinedRequestsComeBackInOrder)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());
    constexpr size_t kDepth = 24;
    std::vector<BinaryMatrix> acts;
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < kDepth; ++i) {
        acts.push_back(makeActs(4 + i % 5, 300 + i));
        WireRequest req;
        req.model = "m";
        req.acts = acts.back();
        ids.push_back(client.sendRequest(req));
    }
    for (size_t i = 0; i < kDepth; ++i) {
        const WireReply reply = client.readReply();
        ASSERT_TRUE(reply.ok);
        // One connection's replies come back in submission order (the
        // completion thread consumes futures FIFO).
        EXPECT_EQ(reply.response.id, ids[i]);
        EXPECT_TRUE(reply.response.out == spikeGemm(acts[i], weights));
    }
}

TEST_F(PhiServerTest, EngineErrorsCrossTheWireTyped)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());

    // Unknown model -> EngineError(UnknownModel), exactly as
    // in-process.
    try {
        client.request("ghost", 0, makeActs(4, 1));
        FAIL() << "unknown model was served";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }

    // Wrong activation width -> ShapeMismatch.
    Rng rng(2);
    try {
        WireRequest req;
        req.model = "m";
        req.acts = BinaryMatrix::random(4, 32, 0.2, rng);
        client.request(req);
        FAIL() << "mismatched K was served";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::ShapeMismatch);
    }

    // Invalid layer -> InvalidLayer.
    try {
        client.request("m", 7, makeActs(4, 3));
        FAIL() << "invalid layer was served";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::InvalidLayer);
    }

    // Expired deadline -> DeadlineExceeded... but a 1ms budget may
    // also be met; use the enormous-lateness path instead: deadlineMs
    // is unsigned, so the smallest budget is 1ms — submit under heavy
    // queue pressure is timing-dependent. Skip exactness here; the
    // resilience suite owns deadline semantics. The wire mapping
    // itself is covered by the code-mapping tests.

    // The connection survives every typed rejection.
    const BinaryMatrix acts = makeActs(6, 4);
    EXPECT_TRUE(client.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
}

TEST_F(PhiServerTest, HotSwapOverTheWireIsSeamless)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());

    const BinaryMatrix acts = makeActs(10, 21);
    EXPECT_EQ(client.request("m", 0, acts).version, 1u);
    EXPECT_TRUE(client.request("m", 0, acts).out ==
                spikeGemm(acts, weights));

    // Swap to new weights while the connection stays up.
    const Matrix<int16_t> weights2 = test::randomWeights(kK, 24, 99);
    registry->swap("m", makeModel(kK, weights2, 4));

    const WireResponse after = client.request("m", 0, acts);
    EXPECT_EQ(after.version, 2u);
    EXPECT_TRUE(after.out == spikeGemm(acts, weights2));
}

TEST_F(PhiServerTest, CorruptArtifactSwapRejectsWhileServingOverWire)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());

    // A corrupted .phim swap attempt fails typed and leaves the wire
    // serving the old version, bit-exact.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("phi_net_swap_" + std::to_string(::getpid()) + ".phim"))
            .string();
    std::vector<uint8_t> bytes =
        io::serializeModel(makeModel(kK, weights, 3));
    bytes[bytes.size() - 16] ^= 0x20;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(registry->swapFromFile("m", path), io::IoError);
    std::filesystem::remove(path);

    ASSERT_TRUE(registry->current("m").has_value());
    EXPECT_EQ(registry->current("m")->version, 1u);
    const BinaryMatrix acts = makeActs(5, 33);
    EXPECT_TRUE(client.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
}

TEST_F(PhiServerTest, PatternPastTheWeightEdgeIsRefusedAndServingGoesOn)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());

    // K = 20 with k = 16: the ragged partition 1 covers weight rows
    // 16..19, but pattern 0x800F's bit 15 names row 31. Such an
    // artifact must be refused at load, not abort the server on the
    // first request that matches the pattern.
    PatternTable table(16, {PatternSet(16, {0x00FF}),
                            PatternSet(16, {0x800F})});
    const Matrix<int16_t> w = test::randomWeights(20, 8, 9);
    const std::vector<uint8_t> image =
        test::rawModelImage("l0", table, w, computeLayerPwps(table, w));
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("phi_net_edge_" + std::to_string(::getpid()) + ".phim"))
            .string();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(image.data()),
                  static_cast<std::streamsize>(image.size()));
    }
    EXPECT_THROW(registry->swapFromFile("m", path), io::IoError);
    std::filesystem::remove(path);
    ASSERT_EQ(registry->current("m")->version, 1u);

    // The request that would have matched 0x800F gets a typed answer
    // from the model still serving, and serving goes on bit-exact.
    WireRequest req;
    req.model = "m";
    req.acts = BinaryMatrix(2, 20);
    req.acts.deposit(0, 16, 4, 0xF);
    try {
        client.request(req);
        FAIL() << "a 20-column request was served by a 96-column model";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::ShapeMismatch);
    }
    for (uint64_t seed = 40; seed < 43; ++seed) {
        const BinaryMatrix acts = makeActs(7, seed);
        EXPECT_TRUE(client.request("m", 0, acts).out ==
                    spikeGemm(acts, weights));
    }
}

// ---- protocol hardening over live sockets ---------------------------

TEST_F(PhiServerTest, MalformedFrameGetsTypedErrorAndKeepsPoolAlive)
{
    auto server = startServer();
    PhiClient healthy("127.0.0.1", server->port());
    PhiClient hostile("127.0.0.1", server->port());

    // A cleanly-framed Request whose body is garbage: typed
    // MalformedFrame, connection survives.
    const std::vector<uint8_t> junkBody = {0x01, 0x02, 0x03};
    const std::vector<uint8_t> frame =
        encodeFrame(FrameType::Request, junkBody);
    hostile.sendRaw(frame.data(), frame.size());
    const WireReply reply = [&] {
        try {
            return hostile.readReply();
        } catch (const NetError&) {
            return WireReply{};
        }
    }();
    EXPECT_FALSE(reply.ok);

    // The hostile connection still serves after the rejection...
    const BinaryMatrix acts = makeActs(4, 50);
    EXPECT_TRUE(hostile.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
    // ...and the neighbour never noticed.
    EXPECT_TRUE(healthy.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
}

TEST_F(PhiServerTest, RowsWithoutColumnsGetsMalformedFrameAndConnectionServes)
{
    // A 2^32 - 1 x 0 activation shape passes every byte budget; the
    // server must answer it MalformedFrame at once (not stall its net
    // loop walking empty rows) and keep the connection serving.
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());
    io::ByteWriter body;
    body.u32(9);           // id
    body.str("m");         // model
    body.u64(0);           // version
    body.u32(0);           // layer
    body.u32(0);           // deadline
    body.i32(0);           // priority
    body.u32(0xFFFF'FFFF); // rows
    body.u32(0);           // cols
    const std::vector<uint8_t> frame =
        encodeFrame(FrameType::Request, body.buffer());
    client.sendRaw(frame.data(), frame.size());
    // The body never decoded, so the error carries id 0 and the client
    // raises it as a NetError.
    try {
        client.readReply();
        FAIL() << "a rows-without-columns request was answered";
    } catch (const NetError& e) {
        EXPECT_EQ(e.code(), WireErrorCode::MalformedFrame);
    }

    const BinaryMatrix acts = makeActs(4, 51);
    EXPECT_TRUE(client.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
}

TEST_F(PhiServerTest, BadMagicClosesOnlyTheGuiltyConnection)
{
    auto server = startServer();
    PhiClient healthy("127.0.0.1", server->port());
    PhiClient hostile("127.0.0.1", server->port());

    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    hostile.sendRaw(garbage, sizeof(garbage) - 1);
    // The server reports BadMagic (typed) and closes; either surfaces
    // as an exception on the next exchange, never a hang.
    EXPECT_THROW(
        {
            try {
                hostile.request("m", 0, makeActs(4, 51));
            } catch (const NetError& e) {
                EXPECT_TRUE(e.code() == WireErrorCode::BadMagic ||
                            e.code() == WireErrorCode::ConnectionLost)
                    << e.what();
                throw;
            }
        },
        NetError);

    const BinaryMatrix acts = makeActs(4, 52);
    EXPECT_TRUE(healthy.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
}

TEST_F(PhiServerTest, LyingLengthFieldIsRejectedTyped)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());

    // Header claims a body far over the server's limit.
    io::ByteWriter w;
    w.u32(kMagic);
    w.u32(static_cast<uint32_t>(FrameType::Request));
    w.u32(0x7FFF'FFFFu);
    client.sendRaw(w.buffer().data(), w.buffer().size());

    try {
        client.readReply();
        FAIL() << "oversized frame was not rejected";
    } catch (const NetError& e) {
        EXPECT_TRUE(e.code() == WireErrorCode::FrameTooLarge ||
                    e.code() == WireErrorCode::ConnectionLost)
            << e.what();
    }
}

TEST_F(PhiServerTest, MidRequestDisconnectIsAbsorbed)
{
    auto server = startServer();
    const size_t fdsBefore = openFdCount();
    {
        PhiClient dropper("127.0.0.1", server->port());
        // Send half a valid request frame, then vanish.
        io::ByteWriter body;
        WireRequest req;
        req.model = "m";
        req.acts = makeActs(16, 60);
        encodeRequest(body, req);
        const std::vector<uint8_t> frame =
            encodeFrame(FrameType::Request, body.buffer());
        dropper.sendRaw(frame.data(), frame.size() / 2);
        dropper.close();
    }
    {
        // And one that vanishes with a request *in flight*.
        PhiClient dropper("127.0.0.1", server->port());
        WireRequest req;
        req.model = "m";
        req.acts = makeActs(16, 61);
        dropper.sendRequest(req);
        dropper.close();
    }

    // The server keeps serving; its dropped-peer bookkeeping must
    // converge (responses for dead connections are consumed+dropped).
    PhiClient client("127.0.0.1", server->port());
    const BinaryMatrix acts = makeActs(4, 62);
    EXPECT_TRUE(client.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
    client.close();

    // Connection close is observed by epoll asynchronously; poll until
    // the server has reaped both droppers (and our client).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server->connectionCount() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(server->connectionCount(), 0u);

    // No leaked fds once every connection is reaped.
    const size_t fdsAfter = openFdCount();
    EXPECT_EQ(fdsAfter, fdsBefore);
}

TEST_F(PhiServerTest, SlowClientHitsWriteBoundAndIsDropped)
{
    PhiServerConfig cfg;
    cfg.maxWriteBufferBytes = 4096; // tiny: a few responses overflow
    cfg.writeTimeoutMs = 0;         // isolate the byte bound
    auto server = startServer(cfg);

    PhiClient slow("127.0.0.1", server->port());
    // Pipeline many large-output requests without ever reading, while
    // shrinking our kernel-side receive window to stall the server's
    // sends quickly.
    const int tiny = 1;
    ::setsockopt(slow.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    try {
        for (size_t i = 0; i < 64; ++i) {
            WireRequest req;
            req.model = "m";
            req.acts = makeActs(64, 70 + i);
            slow.sendRequest(req);
        }
    } catch (const NetError& e) {
        // The server may sever us mid-loop — the very behaviour under
        // test — which surfaces here as a typed ConnectionLost (EPIPE).
        EXPECT_EQ(e.code(), WireErrorCode::ConnectionLost);
    }

    // The server must disconnect us rather than buffer without bound.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool dropped = false;
    while (!dropped && std::chrono::steady_clock::now() < deadline) {
        if (server->counters().slowClientDrops > 0)
            dropped = true;
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(dropped);

    // And the pool keeps serving.
    PhiClient healthy("127.0.0.1", server->port());
    const BinaryMatrix acts = makeActs(4, 80);
    EXPECT_TRUE(healthy.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
}

TEST_F(PhiServerTest, StalledPartialFrameHitsReadTimeout)
{
    PhiServerConfig cfg;
    cfg.readTimeoutMs = 100;
    auto server = startServer(cfg);

    PhiClient staller("127.0.0.1", server->port());
    const uint8_t half[6] = {'P', 'H', 'I', 'W', 1, 0}; // header cut
    staller.sendRaw(half, sizeof(half));

    // The server times the stalled frame out: we observe a typed
    // Timeout error frame or a close, within a bounded wait.
    try {
        staller.readReply();
        FAIL() << "stalled frame did not time out";
    } catch (const NetError& e) {
        EXPECT_TRUE(e.code() == WireErrorCode::Timeout ||
                    e.code() == WireErrorCode::ConnectionLost)
            << e.what();
    }
    EXPECT_GE(server->counters().timeouts, 1u);
}

TEST_F(PhiServerTest, IdleConnectionIsReaped)
{
    PhiServerConfig cfg;
    cfg.idleTimeoutMs = 100;
    auto server = startServer(cfg);

    PhiClient idler("127.0.0.1", server->port());
    // One healthy exchange, then silence.
    const BinaryMatrix acts = makeActs(4, 90);
    EXPECT_TRUE(idler.request("m", 0, acts).out ==
                spikeGemm(acts, weights));

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server->connectionCount() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server->connectionCount(), 0u);
}

TEST_F(PhiServerTest, ConnectionCapRefusesExtrasTyped)
{
    PhiServerConfig cfg;
    cfg.maxConnections = 2;
    auto server = startServer(cfg);

    PhiClient a("127.0.0.1", server->port());
    PhiClient b("127.0.0.1", server->port());
    // Ensure both are registered server-side before the third knocks.
    const BinaryMatrix acts = makeActs(4, 95);
    a.request("m", 0, acts);
    b.request("m", 0, acts);

    PhiClient c("127.0.0.1", server->port());
    try {
        c.request("m", 0, acts);
        FAIL() << "third connection was admitted past the cap";
    } catch (const NetError& e) {
        EXPECT_TRUE(e.code() == WireErrorCode::TooManyConnections ||
                    e.code() == WireErrorCode::ConnectionLost)
            << e.what();
    }
    // The admitted pair keeps serving.
    EXPECT_TRUE(a.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
}

// ---- STATS ----------------------------------------------------------

TEST_F(PhiServerTest, StatsVerbServesPerModelCounters)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());
    const BinaryMatrix acts = makeActs(4, 110);
    client.request("m", 0, acts);
    client.request("m", 0, acts);

    const std::string text = client.statsText();
    EXPECT_NE(text.find("phi-server"), std::string::npos);
    EXPECT_NE(text.find("requests 2"), std::string::npos) << text;
    EXPECT_GE(server->counters().statsServed, 1u);

    // The model line carries exactly these fields, in this order:
    // expiry and shedding are process-wide (engine_expired/_shed).
    const size_t at = text.find("\nmodel m ");
    ASSERT_NE(at, std::string::npos) << text;
    std::istringstream line(
        text.substr(at + 1, text.find('\n', at + 1) - at - 1));
    std::string word, name;
    line >> word >> name;
    std::vector<std::string> keys;
    std::map<std::string, double> fields;
    for (double v; line >> word >> v;) {
        keys.push_back(word);
        fields[word] = v;
    }
    EXPECT_TRUE(line.eof()) << "unparsable model line in\n" << text;
    const std::vector<std::string> want = {"requests", "rows", "p50_ms",
                                           "p99_ms"};
    EXPECT_EQ(keys, want) << text;
    EXPECT_EQ(fields["requests"], 2.0);
    EXPECT_EQ(fields["rows"], 8.0);
    EXPECT_GT(fields["p50_ms"], 0.0);
    EXPECT_LE(fields["p50_ms"], fields["p99_ms"]);
}

TEST_F(PhiServerTest, PlaintextStatsVerbWorksWithoutAPhiClient)
{
    auto server = startServer();
    PhiClient raw("127.0.0.1", server->port());
    raw.sendRaw("STATS\n", 6);
    // The reply is plaintext, not a frame — read bytes straight off
    // the socket until the server closes.
    std::string reply;
    char buf[512];
    while (true) {
        const ssize_t n = ::recv(raw.fd(), buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<size_t>(n));
    }
    EXPECT_NE(reply.find("phi-server"), std::string::npos);
    EXPECT_NE(reply.find("end"), std::string::npos);
}

// ---- graceful drain -------------------------------------------------

TEST_F(PhiServerTest, DrainServesInFlightAndRejectsNewTyped)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());

    // Pipeline a burst, then drain while it is being served.
    constexpr size_t kBurst = 16;
    std::vector<BinaryMatrix> acts;
    for (size_t i = 0; i < kBurst; ++i) {
        acts.push_back(makeActs(32, 200 + i));
        WireRequest req;
        req.model = "m";
        req.acts = acts.back();
        client.sendRequest(req);
    }
    // Wait until the server has *admitted* the whole burst (the drain
    // guarantee covers submitted requests; frames still unparsed when
    // the drain lands are rejected typed instead).
    const auto admitDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server->counters().requests < kBurst &&
           std::chrono::steady_clock::now() < admitDeadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server->counters().requests, kBurst);
    server->requestDrain();

    // Every pre-drain request is served, bit-exact — drain never
    // drops work it already accepted.
    size_t served = 0;
    for (size_t i = 0; i < kBurst; ++i) {
        const WireReply reply = client.readReply();
        if (reply.ok && reply.response.out == spikeGemm(acts[i], weights))
            ++served;
    }
    EXPECT_EQ(served, kBurst);

    server->waitUntilStopped();
    EXPECT_FALSE(server->running());

    // Post-drain connects are refused outright (listener is gone).
    EXPECT_THROW(PhiClient("127.0.0.1", server->port()), NetError);
}

TEST_F(PhiServerTest, RequestSentAfterDrainGetsServerDraining)
{
    PhiServerConfig cfg;
    cfg.drainTimeoutMs = 5000;
    auto server = startServer(cfg);
    PhiClient client("127.0.0.1", server->port());
    // Prime the connection so it exists server-side.
    client.request("m", 0, makeActs(4, 300));

    server->requestDrain();

    // A request racing in after the drain request: either typed
    // ServerDraining, or the drain already closed us — never served,
    // never hung.
    try {
        client.request("m", 0, makeActs(4, 301));
        FAIL() << "post-drain request was served";
    } catch (const NetError& e) {
        EXPECT_TRUE(e.code() == WireErrorCode::ServerDraining ||
                    e.code() == WireErrorCode::ConnectionLost)
            << e.what();
    } catch (const EngineError& e) {
        FAIL() << "engine saw a post-drain request: " << e.what();
    }
    server->waitUntilStopped();
}

TEST_F(PhiServerTest, DrainCompletesWithNoTrafficAndReleasesFds)
{
    const size_t fdsBefore = openFdCount();
    {
        auto server = startServer();
        server->requestDrain();
        server->waitUntilStopped();
        EXPECT_FALSE(server->running());
    }
    EXPECT_EQ(openFdCount(), fdsBefore);
}

// ---- stateful sessions over the wire --------------------------------

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

/** Offline reference for the fixture's one-layer model: spikeGemm
 *  into a persistent LifPopulation, one timestep at a time. */
BinaryMatrix
referenceSteps(const BinaryMatrix& frames,
               const Matrix<int16_t>& weights, LifPopulation& pop)
{
    BinaryMatrix out(frames.rows(), weights.cols());
    for (size_t t = 0; t < frames.rows(); ++t) {
        BinaryMatrix cur(1, frames.cols());
        copyRow(frames, t, cur, 0);
        const Matrix<int32_t> acc = spikeGemm(cur, weights);
        pop.stepInto(acc.rowPtr(0), out, t);
    }
    return out;
}

TEST_F(PhiServerTest, SessionStreamOverTheWireIsBitExact)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());

    const WireSessionOpened opened = client.openSession("m");
    EXPECT_EQ(opened.model, "m");
    EXPECT_EQ(opened.version, 1u);
    EXPECT_EQ(opened.layers, 1u);

    LifPopulation ref(weights.cols());
    uint64_t at = 0;
    for (size_t chunk : {3u, 1u, 5u}) {
        const BinaryMatrix frames = makeActs(chunk, 600 + chunk);
        const BinaryMatrix expected =
            referenceSteps(frames, weights, ref);
        const WireSessionStepped got =
            client.stepSession(opened.sessionId, frames);
        EXPECT_EQ(got.sessionId, opened.sessionId);
        EXPECT_EQ(got.firstStep, at);
        EXPECT_TRUE(got.spikes == expected)
            << "wire session diverged at step " << at;
        at += chunk;
    }

    const WireSessionClosed closed =
        client.closeSession(opened.sessionId);
    EXPECT_EQ(closed.steps, at);

    const ServerCounters c = server->counters();
    EXPECT_EQ(c.sessionOpens, 1u);
    EXPECT_EQ(c.sessionCloses, 1u);
    EXPECT_EQ(c.sessionStepFrames, 3u);
    EXPECT_EQ(c.wireErrors, 0u);
}

TEST_F(PhiServerTest, SessionSurvivesReconnectBecauseIdsAreServerScoped)
{
    auto server = startServer();
    LifPopulation ref(weights.cols());
    uint64_t sid = 0;
    const BinaryMatrix half1 = makeActs(4, 700);
    const BinaryMatrix half2 = makeActs(4, 701);
    const BinaryMatrix want1 = referenceSteps(half1, weights, ref);
    const BinaryMatrix want2 = referenceSteps(half2, weights, ref);
    {
        PhiClient client("127.0.0.1", server->port());
        sid = client.openSession("m").sessionId;
        EXPECT_TRUE(client.stepSession(sid, half1).spikes == want1);
    } // drop the connection mid-stream
    PhiClient again("127.0.0.1", server->port());
    const WireSessionStepped got = again.stepSession(sid, half2);
    EXPECT_EQ(got.firstStep, 4u);
    EXPECT_TRUE(got.spikes == want2)
        << "session state was lost across the reconnect";
    EXPECT_EQ(again.closeSession(sid).steps, 8u);
}

TEST_F(PhiServerTest, SessionErrorsCrossTheWireTyped)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());

    try {
        client.stepSession(12345, makeActs(1, 800));
        FAIL() << "step on an unknown session was served";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::SessionNotFound);
    }
    try {
        client.openSession("no-such-model");
        FAIL() << "open against an unknown model succeeded";
    } catch (const EngineError& e) {
        EXPECT_EQ(e.code(), EngineError::Code::UnknownModel);
    }
    // The connection survived both typed failures.
    const BinaryMatrix acts = makeActs(4, 801);
    EXPECT_TRUE(client.request("m", 0, acts).out ==
                spikeGemm(acts, weights));
}

TEST_F(PhiServerTest, DrainSnapshotsSessionsAndRestoreResumesExactly)
{
    const std::string path =
        ::testing::TempDir() + "drain_sessions.phis";
    std::remove(path.c_str());

    LifPopulation ref(weights.cols());
    const BinaryMatrix half1 = makeActs(5, 810);
    const BinaryMatrix half2 = makeActs(5, 811);
    const BinaryMatrix want1 = referenceSteps(half1, weights, ref);
    const BinaryMatrix want2 = referenceSteps(half2, weights, ref);

    uint64_t sid = 0;
    {
        PhiServerConfig cfg;
        cfg.sessionSnapshotPath = path;
        auto server = startServer(cfg);
        PhiClient client("127.0.0.1", server->port());
        sid = client.openSession("m").sessionId;
        EXPECT_TRUE(client.stepSession(sid, half1).spikes == want1);
        server->requestDrain();
        server->waitUntilStopped();
        EXPECT_EQ(server->counters().sessionsSnapshotted, 1u);
    }

    // A fresh server — the "restarted" process — restores the .phis
    // and the stream resumes exactly where SIGTERM cut it.
    auto server = startServer();
    ASSERT_EQ(server->sessions().restore(io::loadSessions(path)), 1u);
    PhiClient client("127.0.0.1", server->port());
    const WireSessionStepped got = client.stepSession(sid, half2);
    EXPECT_EQ(got.firstStep, 5u);
    EXPECT_TRUE(got.spikes == want2)
        << "restored stream diverged from the uninterrupted reference";
    EXPECT_EQ(client.closeSession(sid).steps, 10u);
    std::remove(path.c_str());
}

TEST_F(PhiServerTest, SessionVerbsAreRejectedTypedDuringDrain)
{
    PhiServerConfig cfg;
    cfg.drainTimeoutMs = 5000;
    auto server = startServer(cfg);
    PhiClient client("127.0.0.1", server->port());
    const uint64_t sid = client.openSession("m").sessionId;

    server->requestDrain();

    // Session verbs racing the drain: typed ServerDraining, or the
    // drain already closed the socket — never served, never hung.
    try {
        client.stepSession(sid, makeActs(1, 820));
        FAIL() << "post-drain step was served";
    } catch (const NetError& e) {
        EXPECT_TRUE(e.code() == WireErrorCode::ServerDraining ||
                    e.code() == WireErrorCode::ConnectionLost)
            << e.what();
    }
    server->waitUntilStopped();
}

TEST_F(PhiServerTest, StopIsIdempotentAndDestructorIsClean)
{
    auto server = startServer();
    PhiClient client("127.0.0.1", server->port());
    client.request("m", 0, makeActs(4, 400));
    server->stop();
    server->stop();
    EXPECT_FALSE(server->running());
    // Destructor after stop() must be a no-op (no double-join/close).
}

TEST_F(PhiServerTest, ServerLifecycleLeaksNoFds)
{
    const size_t fdsBefore = openFdCount();
    {
        auto server = startServer();
        {
            PhiClient c1("127.0.0.1", server->port());
            PhiClient c2("127.0.0.1", server->port());
            c1.request("m", 0, makeActs(4, 500));
            c2.request("m", 0, makeActs(4, 501));
        }
        server->stop();
    }
    EXPECT_EQ(openFdCount(), fdsBefore);
}

TEST(PhiClient, ReservedEngineCode105SurfacesAsNetError)
{
    // Wire code 105 was PendingRequests and stays reserved. A peer that
    // still sends it must reach the client as a transport-band
    // NetError carrying 105, not as an EngineError. The peer is a bare
    // loopback socket that answers any request with that error frame.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t addrLen = sizeof(addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    // Bounds the peer's accept() and recv(), so a client that never
    // connects cannot hang the join below.
    const timeval bound{5, 0};
    ASSERT_EQ(::setsockopt(listener, SOL_SOCKET, SO_RCVTIMEO, &bound,
                           sizeof(bound)),
              0);
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                            &addrLen),
              0);

    std::thread peer([listener] {
        const int conn = ::accept(listener, nullptr, nullptr);
        if (conn < 0)
            return;
        const timeval connBound{5, 0};
        ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &connBound,
                     sizeof(connBound));
        // Swallow the request frame before answering it.
        std::vector<uint8_t> in;
        uint8_t buf[4096];
        while (in.size() < kFrameHeaderBytes ||
               in.size() < kFrameHeaderBytes +
                               io::ByteReader(in.data() + 8, 4).u32()) {
            const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            in.insert(in.end(), buf, buf + n);
        }
        const std::vector<uint8_t> frame = encodeErrorFrame(
            1, static_cast<WireErrorCode>(105), "retired code");
        (void)::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL);
        ::close(conn);
    });

    bool sawNetError = false;
    try {
        PhiClient client("127.0.0.1", ntohs(addr.sin_port), 5'000);
        Rng rng(105);
        client.request("m", 0, BinaryMatrix::random(2, 64, 0.2, rng));
        ADD_FAILURE() << "reserved code 105 read as a response";
    } catch (const EngineError& e) {
        ADD_FAILURE() << "105 surfaced as an EngineError: " << e.what();
    } catch (const NetError& e) {
        sawNetError = true;
        EXPECT_EQ(static_cast<uint16_t>(e.code()), 105);
        EXPECT_EQ(engineCodeOf(e.code()), std::nullopt);
    } catch (const std::exception& e) {
        ADD_FAILURE() << "105 surfaced as neither band: " << e.what();
    }
    peer.join();
    ::close(listener);
    EXPECT_TRUE(sawNetError);
}

} // namespace
} // namespace phi::net

#endif // __linux__
