/**
 * @file
 * Serving-runtime micro-benchmark: requests/sec and p50/p99 latency of
 * PhiEngine batched serving, swept over batch size and thread count.
 *
 * The workload is the steady-state serving loop the compile/serve split
 * exists for: one compiled layer (K=256, N=256, 128 patterns/partition),
 * a stream of M=1024-row activation requests, PWPs reused across every
 * request. The per-request work is sized so that spreading a batch
 * across pool threads amortises dispatch: a request is ~16x the work
 * of the original 256-row/64-column bench, whose requests were so
 * small that 8-thread serving lost to 1-thread on dispatch overhead.
 * Results (the computed matrices) are bit-identical across all
 * configurations; only the timing varies.
 *
 * Two scenarios are swept:
 *
 * - sync:  the single-caller PhiEngine loop (threads x batch size),
 *   the steady-state numbers recorded since PR 2.
 * - async: N producer threads streaming the same request set through
 *   AsyncPhiEngine::submit() while the dispatcher coalesces
 *   micro-batches (producers x maxBatch) — the multi-producer serving
 *   shape the async frontend exists for. Throughput is reported over
 *   the monotonic first-to-last-flush window, so overlapping
 *   producer/dispatcher work is never double-counted.
 * - resilience: a deliberately saturated queue (producers submit a
 *   burst far above service capacity into a deep queue), once without
 *   deadlines — every request is served, so client-observed p99 grows
 *   with queue position — and once with a per-request deadline, where
 *   the dispatcher drops expired entries before compute and the p99 of
 *   the requests actually admitted stays bounded near the deadline.
 * - network (Linux only): the same model served through the epoll TCP
 *   frontend on loopback, swept over concurrent connections. Each
 *   connection is a synchronous request/response client, so this
 *   measures the full wire path — encode, kernel socket hop, frame
 *   parse, engine dispatch, encode back — against the in-process
 *   async numbers above it.
 * - sessions: stateful temporal serving. S concurrent sessions on a
 *   two-layer model (K=256 -> 128 -> 64) each stream T spike frames
 *   through SessionManager in 8-frame step calls; the pump batches
 *   co-resident sessions' timesteps into shared engine submits per
 *   layer. Reports aggregate temporal steps/sec and the p50/p99
 *   latency of one pump round (one timestep through both layers).
 *
 * Usage:  serving_throughput [out.json]
 *         writes a BENCH_serving.json-style report when a path is given.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "core/pipeline.hh"
#include "core/stats.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "numeric/simd.hh"
#include "runtime/async_engine.hh"
#include "runtime/engine.hh"
#include "runtime/registry.hh"
#include "runtime/session.hh"
#include "snn/activation_gen.hh"

using namespace phi;

namespace
{

/** Workload constants; emitted into the JSON report so the recorded
 *  metadata always matches what was measured. */
constexpr size_t kRequestRows = 1024;
constexpr size_t kReductionK = 256;
constexpr size_t kOutputN = 256;
constexpr int kPatternsQ = 128;
constexpr size_t kNumRequests = 64;

struct Result
{
    int threads;
    size_t batch;
    uint64_t requests;
    double rps;
    double rowsPerSec;
    double p50Ms;
    double p99Ms;
    double meanMs;
};

struct AsyncResult
{
    int producers;
    size_t maxBatch;
    uint64_t requests;
    double rps;
    double rowsPerSec;
    double p50Ms;
    double p99Ms;
    double meanMs;
    double meanQueueDepth;
    double meanLingerUs;
    uint64_t dispatches;
    uint64_t rejected;
};

struct NetworkResult
{
    int connections;
    uint64_t requests;
    double rps;
    double rowsPerSec;
    double p50Ms;
    double p99Ms;
    uint64_t errors;
};

struct SessionResult
{
    size_t sessions;
    size_t stepsPerSession;
    uint64_t totalSteps;
    double stepsPerSec;
    double p50StepMs;
    double p99StepMs;
};

struct ResilienceResult
{
    const char* mode;
    double deadlineMs; // 0 = none
    uint64_t offered;
    uint64_t served;
    uint64_t expired;
    double p99ServedMs; // client-observed submit->get of served reqs
    double maxServedMs;
};

CompiledModel
buildModel()
{
    ClusterGenConfig gen_cfg;
    gen_cfg.bitDensity = 0.10;
    gen_cfg.l2DensityTarget = 0.02;
    ClusteredSpikeGenerator gen(gen_cfg, kReductionK, /*seed=*/7);
    Rng rng(1);
    BinaryMatrix train = gen.generate(2048, rng);

    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = kPatternsQ;
    Pipeline pipe(cfg);
    LayerPipeline& layer = pipe.addLayer("serve", {&train});

    Rng wrng(2);
    Matrix<int16_t> weights(kReductionK, kOutputN);
    for (size_t r = 0; r < weights.rows(); ++r)
        for (size_t c = 0; c < weights.cols(); ++c)
            weights(r, c) = static_cast<int16_t>(wrng.uniformInt(-64, 63));
    layer.bindWeights(weights);
    return pipe.compile();
}

std::vector<BinaryMatrix>
buildRequests(size_t count)
{
    ClusterGenConfig gen_cfg;
    gen_cfg.bitDensity = 0.10;
    gen_cfg.l2DensityTarget = 0.02;
    ClusteredSpikeGenerator gen(gen_cfg, kReductionK, /*seed=*/9);
    Rng rng(3);
    std::vector<BinaryMatrix> reqs;
    reqs.reserve(count);
    for (size_t i = 0; i < count; ++i)
        reqs.push_back(gen.generate(kRequestRows, rng));
    return reqs;
}

Result
runConfig(const std::shared_ptr<ModelRegistry>& registry,
          const ModelHandle& model,
          const std::vector<BinaryMatrix>& requests, int threads,
          size_t batch)
{
    ExecutionConfig exec;
    exec.threads = threads;
    PhiEngine engine(registry, exec);

    // Warm-up batch (pattern memo caches, pool spin-up) then the
    // measured stream, served in place (activations borrowed).
    engine.serve(model, 0, requests[0]);
    engine.resetStats();

    const ModelRegistry::Pinned pin = registry->pin(model);
    std::vector<EngineRequest> batchRequests;
    size_t i = 0;
    while (i < requests.size()) {
        const size_t end = std::min(requests.size(), i + batch);
        batchRequests.clear();
        for (; i < end; ++i)
            batchRequests.push_back({pin, 0, &requests[i]});
        engine.serve(batchRequests);
    }

    const ServingStats& s = engine.stats();
    return {threads,
            batch,
            s.requests,
            s.throughputRps(),
            s.rowThroughputRps(),
            s.latency.percentileMs(50),
            s.latency.percentileMs(99),
            s.latency.meanMs()};
}

/**
 * The multi-producer scenario: @p producers threads each stream their
 * slice of the request set through submit(), the dispatcher coalesces
 * up to @p maxBatch requests per batch. Runs after the sync sweep, so
 * the pool and allocator caches are already warm.
 */
AsyncResult
runAsyncConfig(const std::shared_ptr<ModelRegistry>& registry,
               const ModelHandle& model,
               const std::vector<BinaryMatrix>& requests, int producers,
               size_t maxBatch)
{
    ExecutionConfig exec;
    exec.threads = 4;
    AsyncEngineConfig cfg;
    cfg.maxBatch = maxBatch;
    cfg.maxLingerMicros = 200;
    AsyncPhiEngine engine(registry, exec, cfg);

    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            std::vector<std::future<EngineResponse>> futures;
            for (size_t i = p; i < requests.size();
                 i += static_cast<size_t>(producers))
                futures.push_back(engine.submit(model, 0, requests[i]));
            for (auto& f : futures)
                f.get();
        });
    }
    for (auto& t : threads)
        t.join();
    engine.drain();

    const ServingStats s = engine.stats();
    return {producers,
            maxBatch,
            s.requests,
            s.throughputRps(),
            s.rowThroughputRps(),
            s.latency.percentileMs(50),
            s.latency.percentileMs(99),
            s.latency.meanMs(),
            s.meanQueueDepth(),
            s.meanLingerMicros(),
            s.dispatches,
            s.rejected};
}

/**
 * The saturated-queue scenario behind the resilience layer: four
 * producers dump @p offered requests into a deep queue all at once —
 * far above what the dispatcher can serve during the burst — and every
 * producer timestamps its own submit->get() window (the latency a
 * client would see, queue wait included). Without deadlines the tail
 * request waits behind the whole backlog; with one, expired entries
 * are dropped at dispatch and the served tail stays near the deadline.
 */
ResilienceResult
runResilienceConfig(const std::shared_ptr<ModelRegistry>& registry,
                    const ModelHandle& model,
                    const std::vector<BinaryMatrix>& requests,
                    size_t offered, double deadlineMs)
{
    using Clock = std::chrono::steady_clock;
    ExecutionConfig exec;
    exec.threads = 4;
    AsyncEngineConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxLingerMicros = 200;
    cfg.maxQueueDepth = 4096; // deep enough that nothing is rejected
    AsyncPhiEngine engine(registry, exec, cfg);
    engine.submit(model, 0, requests[0]).get(); // warm-up

    constexpr int kProducers = 4;
    std::vector<LatencyHistogram> served(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            std::vector<std::future<EngineResponse>> futures;
            std::vector<Clock::time_point> starts;
            for (size_t i = static_cast<size_t>(p); i < offered;
                 i += kProducers) {
                SubmitOptions opts;
                const auto start = Clock::now();
                if (deadlineMs > 0.0)
                    opts.deadline =
                        start + std::chrono::microseconds(
                                    static_cast<int64_t>(deadlineMs *
                                                         1000.0));
                starts.push_back(start);
                futures.push_back(engine.submit(
                    model, 0, requests[i % requests.size()], opts));
            }
            for (size_t i = 0; i < futures.size(); ++i) {
                try {
                    futures[i].get();
                    served[p].record(std::chrono::duration<double>(
                                         Clock::now() - starts[i])
                                         .count());
                } catch (const EngineError&) {
                    // expired (or shed); counted from engine stats
                }
            }
        });
    }
    for (auto& t : producers)
        t.join();
    engine.drain();

    LatencyHistogram all;
    for (const LatencyHistogram& h : served)
        all.merge(h);
    const ServingStats s = engine.stats();
    return {deadlineMs > 0.0 ? "deadline" : "no_deadline",
            deadlineMs,
            static_cast<uint64_t>(offered),
            all.count(),
            s.expired,
            all.percentileMs(99),
            all.percentileMs(100)};
}

/** The temporal chain the session sweep serves: K -> 128 -> 64. */
CompiledModel
buildSessionModel()
{
    ClusterGenConfig gen_cfg;
    gen_cfg.bitDensity = 0.10;
    gen_cfg.l2DensityTarget = 0.02;
    ClusteredSpikeGenerator gen0(gen_cfg, kReductionK, /*seed=*/21);
    ClusteredSpikeGenerator gen1(gen_cfg, 128, /*seed=*/22);
    Rng rng(23);
    BinaryMatrix train0 = gen0.generate(1024, rng);
    BinaryMatrix train1 = gen1.generate(1024, rng);

    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 64;
    Pipeline pipe(cfg);
    Rng wrng(24);
    Matrix<int16_t> w0(kReductionK, 128), w1(128, 64);
    for (size_t r = 0; r < w0.rows(); ++r)
        for (size_t c = 0; c < w0.cols(); ++c)
            w0(r, c) = static_cast<int16_t>(wrng.uniformInt(-64, 63));
    for (size_t r = 0; r < w1.rows(); ++r)
        for (size_t c = 0; c < w1.cols(); ++c)
            w1(r, c) = static_cast<int16_t>(wrng.uniformInt(-64, 63));
    pipe.addLayer("l0", {&train0}).bindWeights(w0);
    pipe.addLayer("l1", {&train1}).bindWeights(w1);
    return pipe.compile();
}

/**
 * The stateful-session scenario: @p sessions concurrent streams each
 * advance @p steps timesteps in 8-frame step() calls. At most 16
 * driver threads submit for their owned sessions and wait the round,
 * so the pump always sees many co-resident sessions to batch into
 * shared per-layer submits. Step latency is the pump's per-round
 * recording: one timestep through the whole layer chain.
 */
SessionResult
runSessionConfig(const std::shared_ptr<ModelRegistry>& registry,
                 size_t sessions, size_t steps)
{
    using Clock = std::chrono::steady_clock;
    ExecutionConfig exec;
    exec.threads = 4;
    AsyncPhiEngine engine(registry, exec);
    SessionConfig scfg;
    scfg.maxSessions = sessions;
    SessionManager mgr(engine, scfg);

    constexpr size_t kChunk = 8;
    Rng rng(31);
    const BinaryMatrix chunk =
        BinaryMatrix::random(kChunk, kReductionK, 0.10, rng);

    std::vector<uint64_t> sids(sessions);
    for (size_t i = 0; i < sessions; ++i)
        sids[i] = mgr.open("sess");

    const size_t workers = std::min<size_t>(sessions, 16);
    const auto wallStart = Clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        drivers.emplace_back([&, w] {
            for (size_t done = 0; done < steps; done += kChunk) {
                std::vector<std::future<SessionStepResult>> futures;
                for (size_t i = w; i < sessions; i += workers)
                    futures.push_back(mgr.step(sids[i], chunk));
                for (auto& f : futures)
                    f.get();
            }
        });
    }
    for (auto& t : drivers)
        t.join();
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart).count();

    const ServingStats s = mgr.stats();
    for (uint64_t sid : sids)
        mgr.close(sid);
    const uint64_t total = static_cast<uint64_t>(sessions) * steps;
    return {sessions,
            steps,
            total,
            wallSec > 0.0 ? static_cast<double>(total) / wallSec : 0.0,
            s.latency.percentileMs(50),
            s.latency.percentileMs(99)};
}

#ifdef __linux__
/**
 * The wire-path capacity scenario: the compiled model is hosted behind
 * a PhiServer on loopback, and @p connections synchronous clients each
 * stream @p perConnection requests through their own socket. Achieved
 * throughput is the total served over the slowest client's window —
 * the number an operator sizing connection counts against a single
 * server process actually gets.
 */
NetworkResult
runNetworkConfig(const std::shared_ptr<ModelRegistry>& registry,
                 const ModelHandle& model,
                 const std::vector<BinaryMatrix>& requests,
                 int connections, size_t perConnection)
{
    using Clock = std::chrono::steady_clock;
    ExecutionConfig exec;
    exec.threads = 4;
    AsyncEngineConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxLingerMicros = 200;
    cfg.maxQueueDepth = 1024;
    cfg.backpressure = AsyncEngineConfig::Backpressure::Reject;
    net::PhiServer server(registry, exec, cfg, net::PhiServerConfig{});
    server.start();

    std::vector<LatencyHistogram> latencies(
        static_cast<size_t>(connections));
    std::atomic<uint64_t> errors{0};
    const auto wallStart = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(connections));
    for (int c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            net::PhiClient client("127.0.0.1", server.port());
            for (size_t i = 0; i < perConnection; ++i) {
                const BinaryMatrix& acts =
                    requests[(static_cast<size_t>(c) * perConnection +
                              i) %
                             requests.size()];
                const auto start = Clock::now();
                try {
                    client.request(model.name, 0, acts);
                    latencies[static_cast<size_t>(c)].record(
                        std::chrono::duration<double>(Clock::now() -
                                                      start)
                            .count());
                } catch (const std::exception&) {
                    ++errors;
                }
            }
        });
    }
    for (auto& t : clients)
        t.join();
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart).count();
    server.requestDrain();
    server.waitUntilStopped();

    LatencyHistogram all;
    for (const LatencyHistogram& h : latencies)
        all.merge(h);
    const uint64_t served = all.count();
    return {connections,
            served,
            wallSec > 0.0 ? static_cast<double>(served) / wallSec : 0.0,
            wallSec > 0.0 ? static_cast<double>(served * kRequestRows) /
                                wallSec
                          : 0.0,
            all.percentileMs(50),
            all.percentileMs(99),
            errors.load()};
}
#endif // __linux__

void
writeJson(const std::string& path, const std::vector<Result>& results,
          const std::vector<AsyncResult>& asyncResults,
          const std::vector<ResilienceResult>& resilience,
          const std::vector<NetworkResult>& network,
          const std::vector<SessionResult>& sessionResults)
{
    std::ofstream out(path);
    out << "{\n  \"benchmark\": \"serving_throughput\",\n"
        << "  \"build_type\": \""
        << (phi::bench::kReleaseBuild ? "release" : "debug")
        << "\",\n  \"simd\": \"" << simdIsaName(simd::activeIsa())
        << "\",\n"
        << "  \"workload\": {\"layers\": 1, \"m\": " << kRequestRows
        << ", \"k\": " << kReductionK << ", \"n\": " << kOutputN
        << ", \"q\": " << kPatternsQ << ", \"requests\": "
        << kNumRequests << "},\n"
        << "  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        out << "    {\"threads\": " << r.threads
            << ", \"batch\": " << r.batch
            << ", \"requests\": " << r.requests
            << ", \"rps\": " << r.rps
            << ", \"rows_per_sec\": " << r.rowsPerSec
            << ", \"p50_ms\": " << r.p50Ms
            << ", \"p99_ms\": " << r.p99Ms
            << ", \"mean_ms\": " << r.meanMs << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"async_results\": [\n";
    for (size_t i = 0; i < asyncResults.size(); ++i) {
        const AsyncResult& r = asyncResults[i];
        out << "    {\"producers\": " << r.producers
            << ", \"max_batch\": " << r.maxBatch
            << ", \"requests\": " << r.requests
            << ", \"rps\": " << r.rps
            << ", \"rows_per_sec\": " << r.rowsPerSec
            << ", \"p50_ms\": " << r.p50Ms
            << ", \"p99_ms\": " << r.p99Ms
            << ", \"mean_ms\": " << r.meanMs
            << ", \"mean_queue_depth\": " << r.meanQueueDepth
            << ", \"mean_linger_us\": " << r.meanLingerUs
            << ", \"dispatches\": " << r.dispatches
            << ", \"rejected\": " << r.rejected << "}"
            << (i + 1 < asyncResults.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"resilience\": [\n";
    for (size_t i = 0; i < resilience.size(); ++i) {
        const ResilienceResult& r = resilience[i];
        out << "    {\"mode\": \"" << r.mode
            << "\", \"deadline_ms\": " << r.deadlineMs
            << ", \"offered\": " << r.offered
            << ", \"served\": " << r.served
            << ", \"expired\": " << r.expired
            << ", \"p99_served_ms\": " << r.p99ServedMs
            << ", \"max_served_ms\": " << r.maxServedMs << "}"
            << (i + 1 < resilience.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"network\": [\n";
    for (size_t i = 0; i < network.size(); ++i) {
        const NetworkResult& r = network[i];
        out << "    {\"connections\": " << r.connections
            << ", \"requests\": " << r.requests
            << ", \"rps\": " << r.rps
            << ", \"rows_per_sec\": " << r.rowsPerSec
            << ", \"p50_ms\": " << r.p50Ms
            << ", \"p99_ms\": " << r.p99Ms
            << ", \"errors\": " << r.errors << "}"
            << (i + 1 < network.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"sessions\": [\n";
    for (size_t i = 0; i < sessionResults.size(); ++i) {
        const SessionResult& r = sessionResults[i];
        out << "    {\"sessions\": " << r.sessions
            << ", \"steps_per_session\": " << r.stepsPerSession
            << ", \"total_steps\": " << r.totalSteps
            << ", \"steps_per_sec\": " << r.stepsPerSec
            << ", \"p50_step_ms\": " << r.p50StepMs
            << ", \"p99_step_ms\": " << r.p99StepMs << "}"
            << (i + 1 < sessionResults.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    std::cerr << "building compiled model (K=" << kReductionK << ", N="
              << kOutputN << ", q=" << kPatternsQ << ")...\n";
    auto registry = std::make_shared<ModelRegistry>();
    const ModelHandle model = registry->load("bench", buildModel());
    const std::vector<BinaryMatrix> requests = buildRequests(kNumRequests);

    std::vector<Result> results;
    Table t({"Threads", "Batch", "Req/s", "kRows/s", "p50 ms", "p99 ms",
             "mean ms"});
    for (int threads : {1, 2, 4, 8}) {
        for (size_t batch : {size_t{1}, size_t{8}, size_t{32}}) {
            Result r =
                runConfig(registry, model, requests, threads, batch);
            results.push_back(r);
            t.addRow({std::to_string(r.threads), std::to_string(r.batch),
                      Table::fmt(r.rps, 1), Table::fmt(r.rowsPerSec / 1e3, 1),
                      Table::fmt(r.p50Ms, 3), Table::fmt(r.p99Ms, 3),
                      Table::fmt(r.meanMs, 3)});
            std::cerr << "  threads=" << threads << " batch=" << batch
                      << " done\n";
        }
    }
    t.print(std::cout);

    // Multi-producer async frontend: the same request stream pushed by
    // concurrent submitters through the coalescing dispatcher.
    std::vector<AsyncResult> asyncResults;
    Table at({"Producers", "MaxBatch", "Req/s", "kRows/s", "p50 ms",
              "p99 ms", "QDepth", "Linger us"});
    for (int producers : {1, 4, 8}) {
        for (size_t maxBatch : {size_t{1}, size_t{8}, size_t{32}}) {
            AsyncResult r = runAsyncConfig(registry, model, requests,
                                           producers, maxBatch);
            asyncResults.push_back(r);
            at.addRow({std::to_string(r.producers),
                       std::to_string(r.maxBatch), Table::fmt(r.rps, 1),
                       Table::fmt(r.rowsPerSec / 1e3, 1),
                       Table::fmt(r.p50Ms, 3), Table::fmt(r.p99Ms, 3),
                       Table::fmt(r.meanQueueDepth, 2),
                       Table::fmt(r.meanLingerUs, 1)});
            std::cerr << "  async producers=" << producers
                      << " maxBatch=" << maxBatch << " done\n";
        }
    }
    std::cout << "\nAsync frontend (engine threads=4, linger=200us):\n";
    at.print(std::cout);

    // Saturated-queue resilience: the same burst with and without a
    // per-request deadline. The contrast the resilience entry records:
    // without deadlines the served p99 includes the whole queue wait;
    // with one, expired requests are shed before compute and the p99
    // of admitted requests stays near the deadline.
    constexpr size_t kBurst = 160;
    constexpr double kDeadlineMs = 50.0;
    std::vector<ResilienceResult> resilience;
    resilience.push_back(
        runResilienceConfig(registry, model, requests, kBurst, 0.0));
    std::cerr << "  resilience no_deadline done\n";
    resilience.push_back(
        runResilienceConfig(registry, model, requests, kBurst,
                            kDeadlineMs));
    std::cerr << "  resilience deadline done\n";
    Table rt({"Mode", "Deadline ms", "Offered", "Served", "Expired",
              "p99 srv ms", "max srv ms"});
    for (const ResilienceResult& r : resilience)
        rt.addRow({r.mode, Table::fmt(r.deadlineMs, 0),
                   std::to_string(r.offered), std::to_string(r.served),
                   std::to_string(r.expired), Table::fmt(r.p99ServedMs, 2),
                   Table::fmt(r.maxServedMs, 2)});
    std::cout << "\nSaturated queue (4 producers, depth 4096, "
                 "client-observed latency of served requests):\n";
    rt.print(std::cout);

    // Wire-path capacity: the same model behind the TCP frontend on
    // loopback, swept over concurrent synchronous connections.
    std::vector<NetworkResult> network;
#ifdef __linux__
    Table nt({"Conns", "Req/s", "kRows/s", "p50 ms", "p99 ms",
              "Errors"});
    for (int conns : {1, 4, 8, 16}) {
        NetworkResult r = runNetworkConfig(registry, model, requests,
                                           conns, /*perConnection=*/32);
        network.push_back(r);
        nt.addRow({std::to_string(r.connections), Table::fmt(r.rps, 1),
                   Table::fmt(r.rowsPerSec / 1e3, 1),
                   Table::fmt(r.p50Ms, 3), Table::fmt(r.p99Ms, 3),
                   std::to_string(r.errors)});
        std::cerr << "  network conns=" << conns << " done\n";
    }
    std::cout << "\nTCP frontend on loopback (engine threads=4, "
                 "synchronous clients):\n";
    nt.print(std::cout);
#endif

    // Stateful sessions: S concurrent temporal streams on a two-layer
    // chain, batched per round by the session pump.
    std::cerr << "building session model (K=" << kReductionK
              << " -> 128 -> 64)...\n";
    auto sessionRegistry = std::make_shared<ModelRegistry>();
    sessionRegistry->load("sess", buildSessionModel());
    constexpr size_t kSessionSteps = 32;
    std::vector<SessionResult> sessionResults;
    Table st({"Sessions", "Steps", "Steps/s", "p50 step ms",
              "p99 step ms"});
    for (size_t s : {size_t{1}, size_t{8}, size_t{64}, size_t{256}}) {
        SessionResult r =
            runSessionConfig(sessionRegistry, s, kSessionSteps);
        sessionResults.push_back(r);
        st.addRow({std::to_string(r.sessions),
                   std::to_string(r.stepsPerSession),
                   Table::fmt(r.stepsPerSec, 1),
                   Table::fmt(r.p50StepMs, 3),
                   Table::fmt(r.p99StepMs, 3)});
        std::cerr << "  sessions=" << s << " done\n";
    }
    std::cout << "\nStateful sessions (two-layer temporal chain, "
                 "engine threads=4):\n";
    st.print(std::cout);

    if (argc > 1) {
        phi::bench::requireReleaseForJson(argv[1]);
        writeJson(argv[1], results, asyncResults, resilience, network,
                  sessionResults);
        std::cerr << "wrote " << argv[1] << "\n";
    }
    return 0;
}
