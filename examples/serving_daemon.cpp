/**
 * @file
 * Serving daemon: many models, one TCP frontend, hot-swapped under fire.
 *
 * Where quickstart.cpp shows the synchronous compile-once/serve-many
 * loop, this example is the serving-process shape the network frontend
 * exists for: a ModelRegistry hosts two named models ("vision" and
 * "nlp") behind a PhiServer bound to loopback, four producer threads
 * stream requests at both *over the wire* through PhiClient, and
 * mid-run the main thread swap()s "vision" to a new version — with
 * zero downtime, zero dropped responses, and every wire response
 * reporting exactly which {name, version} served it. Malformed
 * requests fail only themselves with a typed EngineError carried
 * across the wire, a raw garbage frame kills only its own connection,
 * and the process never aborts on bad traffic.
 *
 * The second half demonstrates the resilience layer: an
 * already-expired deadline is rejected before compute
 * (DeadlineExceeded), a saturated queue sheds its lowest-priority
 * entry to admit an outranking request (QueueFull for the victim,
 * a served value for the winner), a hot-swap to a deliberately
 * corrupted .phim artifact is rejected by the per-section CRC check
 * while wire traffic keeps serving bit-exact from the previous
 * version. A stateful session then streams spike frames with live LIF
 * membrane state held server-side — two step calls over the wire
 * bit-equal one offline reference — and finally the server drains
 * gracefully: in-flight work finishes, new connections are refused,
 * and the open session is snapshotted to a restorable .phis artifact
 * instead of dropped.
 *
 * stdout is deterministic (bit-exactness verdicts and counts only);
 * timing-dependent stats — including the port and the per-model
 * split — go to stderr.
 *
 * Build & run:  ./build/examples/example_serving_daemon
 */

#include <phi/phi.hh>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

// Internal (non-facade) helpers: the clustered spike generator that
// stands in for real SNN traffic, and the reference GEMM the verdicts
// compare against.
#include "numeric/gemm.hh"
#include "snn/activation_gen.hh"

using namespace phi;

namespace
{

Matrix<int16_t>
randomWeights(size_t k, size_t n, uint64_t seed)
{
    Rng rng(seed);
    Matrix<int16_t> w(k, n);
    for (size_t r = 0; r < w.rows(); ++r)
        for (size_t c = 0; c < w.cols(); ++c)
            w(r, c) = static_cast<int16_t>(rng.uniformInt(-64, 63));
    return w;
}

/** Offline: calibrate + bind + compile one model (see quickstart.cpp
 *  for the save/load artifact round-trip this normally hides). */
CompiledModel
compileModel(size_t k, const Matrix<int16_t>& weights, uint64_t seed)
{
    ClusterGenConfig gen_cfg;
    gen_cfg.bitDensity = 0.10;
    gen_cfg.l2DensityTarget = 0.02;
    ClusteredSpikeGenerator gen(gen_cfg, k, seed);
    Rng rng(seed + 1);
    BinaryMatrix train = gen.generate(768, rng);

    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 64;
    Pipeline pipe(cfg);
    pipe.addLayer("l0", {&train}).bindWeights(weights);
    return pipe.compile();
}

/** Offline session reference for a one-layer model: per timestep,
 *  spikeGemm into a persistent LifPopulation — exactly what a
 *  server-side session computes with live membrane state. */
BinaryMatrix
sessionReference(const BinaryMatrix& frames, const Matrix<int16_t>& w,
                 LifPopulation& pop)
{
    BinaryMatrix out(frames.rows(), w.cols());
    for (size_t t = 0; t < frames.rows(); ++t) {
        BinaryMatrix cur(1, frames.cols());
        for (size_t c = 0; c < frames.cols(); c += 64) {
            const int len = static_cast<int>(
                std::min<size_t>(64, frames.cols() - c));
            cur.deposit(0, c, len, frames.extract(t, c, len));
        }
        pop.stepInto(spikeGemm(cur, w).rowPtr(0), out, t);
    }
    return out;
}

} // namespace

#ifdef __linux__

int
main()
{
    // Offline: two independent models (different K, different
    // weights), plus the successor weights "vision" will hot-swap to.
    const Matrix<int16_t> visionW1 = randomWeights(256, 64, 2);
    const Matrix<int16_t> visionW2 = randomWeights(256, 64, 3);
    const Matrix<int16_t> nlpW = randomWeights(128, 32, 4);

    // Online: one registry, one TCP frontend over it. Models are
    // named + versioned; requests route by name over the wire and
    // every response stamps the {name, version} that served it.
    auto registry = std::make_shared<ModelRegistry>();
    registry->load("vision", compileModel(256, visionW1, 7));
    registry->load("nlp", compileModel(128, nlpW, 8));

    AsyncEngineConfig async_cfg;
    async_cfg.maxBatch = 8;
    async_cfg.maxLingerMicros = 200;
    async_cfg.maxQueueDepth = 64;
    async_cfg.backpressure = AsyncEngineConfig::Backpressure::Reject;
    net::PhiServerConfig net_cfg; // loopback, ephemeral port
    // Open sessions survive the drain: SIGTERM writes them here, and a
    // restarted daemon restores them (phi_serve --session-snapshot).
    const std::string sessionPath =
        (std::filesystem::temp_directory_path() /
         ("phi_daemon_sessions_" + std::to_string(::getpid()) +
          ".phis"))
            .string();
    net_cfg.sessionSnapshotPath = sessionPath;
    net::PhiServer server(registry, ExecutionConfig{}, async_cfg,
                          net_cfg);
    server.start();
    std::cerr << "listening on 127.0.0.1:" << server.port() << "\n";

    std::cout << "Hosting " << registry->size()
              << " models behind one TCP frontend\n";

    // Four producers — two per model — each open their own PhiClient
    // connection, stream deterministic request streams over the wire,
    // and check every response against the reference GEMM of the
    // version the response says served it. Meanwhile the main thread
    // swaps "vision" to v2 mid-traffic (unsynchronised: the race is
    // the point; the swap is atomic and epoch-pinned, so requests
    // serve whichever version they were dispatched against — and the
    // wire response reports which).
    constexpr size_t kProducers = 4;
    constexpr size_t kPerProducer = 12;
    std::vector<size_t> exact(kProducers, 0);
    std::vector<size_t> versioned(kProducers, 0);
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            const bool onVision = p % 2 == 0;
            const std::string name = onVision ? "vision" : "nlp";
            const size_t k = onVision ? 256 : 128;
            ClusterGenConfig gen_cfg;
            gen_cfg.bitDensity = 0.10;
            gen_cfg.l2DensityTarget = 0.02;
            ClusteredSpikeGenerator pgen(gen_cfg, k, 100 + p);
            Rng prng(200 + p);
            std::vector<BinaryMatrix> reqs;
            for (size_t i = 0; i < kPerProducer; ++i)
                reqs.push_back(pgen.generate(192, prng));

            net::PhiClient client("127.0.0.1", server.port());
            for (size_t i = 0; i < reqs.size(); ++i) {
                const net::WireResponse resp =
                    client.request(name, 0, reqs[i]);
                const Matrix<int16_t>* w = nullptr;
                if (!onVision && resp.version == 1)
                    w = &nlpW;
                else if (onVision && resp.version == 1)
                    w = &visionW1;
                else if (onVision && resp.version == 2)
                    w = &visionW2;
                if (w != nullptr)
                    ++versioned[p];
                if (w != nullptr &&
                    resp.out == spikeGemm(reqs[i], *w))
                    ++exact[p];
            }
        });
    }
    const ModelHandle vision2 =
        registry->swap("vision", compileModel(256, visionW2, 7));
    for (auto& t : producers)
        t.join();

    size_t exactTotal = 0, versionedTotal = 0;
    for (size_t p = 0; p < kProducers; ++p) {
        exactTotal += exact[p];
        versionedTotal += versioned[p];
    }
    const size_t total = kProducers * kPerProducer;
    std::cout << "Served " << total << " requests over TCP from "
              << kProducers
              << " concurrent connections across 2 models\n"
              << "Every response on a valid version: "
              << (versionedTotal == total ? "YES" : "NO (bug!)") << "\n"
              << "Hot-swapped vision mid-run; lossless: "
              << (exactTotal == total ? "YES (bit-exact per reported version)"
                                      : "NO (bug!)")
              << "\n";

    // After the swap, name-routed wire requests land on v2 — clients
    // never reconnect, relink, or learn about the swap.
    net::PhiClient client("127.0.0.1", server.port());
    ClusterGenConfig gen_cfg;
    gen_cfg.bitDensity = 0.10;
    gen_cfg.l2DensityTarget = 0.02;
    ClusteredSpikeGenerator vgen(gen_cfg, 256, 55);
    Rng vrng(56);
    BinaryMatrix after = vgen.generate(64, vrng);
    const net::WireResponse postSwap =
        client.request("vision", 0, after);
    std::cout << "Post-swap wire request served by vision:v"
              << postSwap.version << ": "
              << (postSwap.version == 2 &&
                          postSwap.out == spikeGemm(after, visionW2)
                      ? "YES (new version, bit-exact)"
                      : "NO (bug!)")
              << "\n";

    // Bad traffic is survivable: a malformed request crosses the wire,
    // fails typed in the engine, and comes back as the *same*
    // EngineError a local caller would see — and only that request
    // dies; the connection keeps serving.
    BinaryMatrix wrongK(4, 32);
    try {
        client.request("vision", 0, wrongK);
        std::cout << "BUG: malformed request was accepted\n";
    } catch (const EngineError& e) {
        std::cout << "Malformed request recoverably rejected: "
                  << e.code() << "\n";
    }
    BinaryMatrix again = vgen.generate(64, vrng);
    const bool stillServing =
        client.request("vision", 0, again).out ==
        spikeGemm(again, visionW2);
    std::cout << "Still serving on the same connection: "
              << (stillServing ? "YES" : "NO (bug!)") << "\n";

    // A connection that speaks garbage is severed with a typed
    // connection-level error — and *only* that connection: the
    // well-behaved client above never notices.
    bool garbageTyped = false;
    try {
        net::PhiClient vandal("127.0.0.1", server.port());
        const char junk[] = "GET / HTTP/1.1\r\n\r\n";
        vandal.sendRaw(junk, sizeof(junk) - 1);
        vandal.readReply();
    } catch (const net::NetError& e) {
        garbageTyped = e.code() == net::WireErrorCode::BadMagic ||
                       e.code() == net::WireErrorCode::ConnectionLost;
    }
    BinaryMatrix unbothered = vgen.generate(64, vrng);
    const bool poolSurvives =
        client.request("vision", 0, unbothered).out ==
        spikeGemm(unbothered, visionW2);
    std::cout << "Garbage frame severed only its own connection: "
              << (garbageTyped && poolSurvives ? "YES (typed close)"
                                               : "NO (bug!)")
              << "\n";

    // ---- Resilience: time-aware admission ---------------------------
    // A request whose deadline has already passed is dropped before a
    // single cycle of compute is spent on it; its future fails with
    // DeadlineExceeded and the expired counter records the drop. (Wire
    // deadlines are relative budgets anchored at server receipt, so a
    // pre-expired absolute deadline is an in-process demonstration —
    // on the very engine the server serves from.)
    bool deadlineTyped = false;
    SubmitOptions lateOpts;
    lateOpts.deadline = std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(1);
    try {
        server.engine()
            .submit(ModelHandle{"vision", 2}, 0,
                    vgen.generate(64, vrng), lateOpts)
            .get();
    } catch (const EngineError& e) {
        deadlineTyped = e.code() == EngineError::Code::DeadlineExceeded;
    }
    std::cout << "Expired-deadline request dropped before compute: "
              << (deadlineTyped ? "YES (DeadlineExceeded)" : "NO (bug!)")
              << "\n";

    // Priority shedding: saturate a depth-1 queue while the dispatcher
    // lingers, then outrank the queued request. The victim fails typed
    // with QueueFull, the high-priority request serves bit-exact.
    bool victimTyped = false;
    bool winnerServed = false;
    {
        AsyncEngineConfig shed_cfg;
        shed_cfg.maxBatch = 8;
        shed_cfg.maxLingerMicros = 300'000;
        shed_cfg.maxQueueDepth = 1;
        shed_cfg.backpressure = AsyncEngineConfig::Backpressure::Reject;
        AsyncPhiEngine shedEngine(registry, ExecutionConfig{}, shed_cfg);
        const ModelHandle vision{"vision", 2};
        const BinaryMatrix lowActs = vgen.generate(64, vrng);
        const BinaryMatrix highActs = vgen.generate(64, vrng);
        auto lowFut = shedEngine.submit(vision, 0, lowActs); // priority 0
        SubmitOptions highOpts;
        highOpts.priority = 5;
        auto highFut = shedEngine.submit(vision, 0, highActs, highOpts);
        try {
            lowFut.get();
        } catch (const EngineError& e) {
            victimTyped = e.code() == EngineError::Code::QueueFull;
        }
        winnerServed =
            highFut.get().out == spikeGemm(highActs, visionW2);
        shedEngine.drain();
        std::cerr << "shed-engine stats: shed=" << shedEngine.stats().shed
                  << ", expired=" << shedEngine.stats().expired << "\n";
    }
    std::cout << "Saturated queue shed its lowest-priority entry: "
              << (victimTyped ? "YES (QueueFull)" : "NO (bug!)") << "\n"
              << "Outranking request served after the shed: "
              << (winnerServed ? "YES (bit-exact)" : "NO (bug!)") << "\n";

    // ---- Resilience: artifact integrity on hot reload ---------------
    // Serialize a would-be v3 of "vision", flip one payload byte, and
    // try to swap it in from disk. The per-section CRC rejects the
    // artifact before the registry mutates: the IoError names the file
    // and section, "vision" stays at v2, and wire traffic keeps
    // serving through the rejection.
    const std::string artifact =
        (std::filesystem::temp_directory_path() /
         ("phi_daemon_swap_" + std::to_string(::getpid()) + ".phim"))
            .string();
    std::vector<uint8_t> corrupt =
        io::serializeModel(compileModel(256, visionW1, 9));
    corrupt[corrupt.size() - 24] ^= 0x40; // one bit, deep in a payload
    {
        std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(corrupt.data()),
                  static_cast<std::streamsize>(corrupt.size()));
    }
    bool corruptRejected = false;
    bool errorNamesBoth = false;
    try {
        registry->swapFromFile("vision", artifact);
    } catch (const io::IoError& e) {
        corruptRejected = true;
        const std::string what = e.what();
        errorNamesBoth = what.find("CRC") != std::string::npos &&
                         what.find(artifact) != std::string::npos;
    }
    const bool stillV2 = registry->current("vision").has_value() &&
                         registry->current("vision")->version == 2;
    BinaryMatrix afterCorrupt = vgen.generate(64, vrng);
    const bool servesThroughIt =
        client.request("vision", 0, afterCorrupt).out ==
        spikeGemm(afterCorrupt, visionW2);
    std::cout << "Corrupt .phim hot-swap rejected by its CRC: "
              << (corruptRejected ? "YES" : "NO (bug!)") << "\n"
              << "IoError names the file and the bad section: "
              << (errorNamesBoth ? "YES" : "NO (bug!)") << "\n"
              << "Previous version kept serving over the wire: "
              << (stillV2 && servesThroughIt ? "YES (v2, bit-exact)"
                                             : "NO (bug!)")
              << "\n";
    std::remove(artifact.c_str());

    // The STATS verb exports the per-model serving split over the same
    // socket — no sidecar, no scrape port.
    const std::string stats = client.statsText();
    const bool statsComplete =
        stats.find("model vision") != std::string::npos &&
        stats.find("model nlp") != std::string::npos &&
        stats.find("engine_requests") != std::string::npos;
    std::cout << "STATS reports both models over the wire: "
              << (statsComplete ? "YES" : "NO (bug!)") << "\n";
    std::cerr << stats;

    // ---- Stateful sessions: streams, not requests -------------------
    // Where a Request is one stateless GEMM, a session carries live
    // LIF membrane state across step calls: it pins "vision" at the
    // version current at open (v2, post-swap), and streaming 12 frames
    // as two 6-frame steps must equal the offline LifPopulation
    // reference computed over the same 12 frames in one piece — the
    // membrane state crossed the wire boundary intact.
    const net::WireSessionOpened sess = client.openSession("vision");
    ClusteredSpikeGenerator sgen(gen_cfg, 256, 77);
    Rng srng(78);
    const BinaryMatrix chunkA = sgen.generate(6, srng);
    const BinaryMatrix chunkB = sgen.generate(6, srng);
    LifPopulation sessionRef(64);
    const BinaryMatrix wantA =
        sessionReference(chunkA, visionW2, sessionRef);
    const BinaryMatrix wantB =
        sessionReference(chunkB, visionW2, sessionRef);
    const net::WireSessionStepped stepA =
        client.stepSession(sess.sessionId, chunkA);
    const net::WireSessionStepped stepB =
        client.stepSession(sess.sessionId, chunkB);
    const bool sessionExact = sess.version == 2 &&
                              stepA.spikes == wantA &&
                              stepB.firstStep == 6 &&
                              stepB.spikes == wantB;
    std::cout << "Stateful session pinned vision:v" << sess.version
              << "; 2 step calls == one 12-step reference: "
              << (sessionExact ? "YES (LIF state persisted)"
                               : "NO (bug!)")
              << "\n";
    // Deliberately left open: the graceful drain below must snapshot
    // it instead of dropping its membrane state.

    // ---- Graceful drain ---------------------------------------------
    // requestDrain() is what a SIGTERM handler calls: stop accepting,
    // serve everything already admitted, flush, release every fd.
    server.requestDrain();
    server.waitUntilStopped();
    bool refusedAfterDrain = false;
    try {
        net::PhiClient late("127.0.0.1", server.port());
        late.request("vision", 0, after);
    } catch (const net::NetError&) {
        refusedAfterDrain = true; // connect or request refused — drained
    } catch (const EngineError&) {
        refusedAfterDrain = true;
    }
    std::cout << "Graceful drain: in-flight served, sockets released: "
              << (!server.running() ? "YES" : "NO (bug!)") << "\n"
              << "New work refused after drain: "
              << (refusedAfterDrain ? "YES" : "NO (bug!)") << "\n";

    // The drain wrote the open session — 12 temporal steps of live
    // membrane state — to the snapshot a restarted daemon restores.
    bool sessionSnapshotted = false;
    try {
        const io::SessionSnapshot snap = io::loadSessions(sessionPath);
        sessionSnapshotted = snap.sessions.size() == 1 &&
                             snap.sessions[0].steps == 12 &&
                             snap.sessions[0].model == "vision";
    } catch (const io::IoError&) {
    }
    std::cout << "Drain snapshotted the open session (12 steps): "
              << (sessionSnapshotted ? "YES (restorable .phis)"
                                     : "NO (bug!)")
              << "\n";
    std::remove(sessionPath.c_str());

    const auto& c = server.counters();
    std::cerr << "server counters: accepted=" << c.accepted
              << ", requests=" << c.requests << ", responses="
              << c.responses << ", wire_errors=" << c.wireErrors
              << ", protocol_errors=" << c.protocolErrors
              << ", drain_rejected=" << c.drainRejected << "\n";
    const ServingStats s = server.engine().stats();
    std::cerr << "stats: " << s.requests << " requests in " << s.batches
              << " batches, " << s.dispatches << " dispatches, rps="
              << s.throughputRps()
              << ", p99=" << s.latency.percentileMs(99)
              << "ms, mean queue depth=" << s.meanQueueDepth()
              << ", mean linger=" << s.meanLingerMicros()
              << "us, rejected=" << s.rejected << ", expired="
              << s.expired << ", shed=" << s.shed
              << ", watchdog restarts=" << s.watchdogRestarts << "\n";
    for (const auto& [name, ms] : server.engine().perModelStats())
        std::cerr << "  " << name << ": " << ms.requests
                  << " requests, p99=" << ms.latency.percentileMs(99)
                  << "ms\n";

    const bool resilient = deadlineTyped && victimTyped && winnerServed &&
                           corruptRejected && errorNamesBoth && stillV2 &&
                           servesThroughIt && garbageTyped &&
                           poolSurvives && statsComplete &&
                           sessionExact && sessionSnapshotted &&
                           refusedAfterDrain && !server.running();
    return exactTotal == total && versionedTotal == total &&
                   stillServing && resilient
               ? 0
               : 1;
}

#else // !__linux__

int
main()
{
    std::cout << "serving_daemon requires Linux (epoll TCP frontend); "
                 "skipping\n";
    return 0;
}

#endif // __linux__
