/**
 * @file
 * phi_bench: the end-to-end and per-layer benchmark of the Phi serving
 * stack. Every later speed claim is measured against its numbers.
 *
 * Each workload runs in its own process against an in-process
 * net::PhiServer configured like phi_serve (maxBatch 32, Reject, queue
 * depth 1024). One run:
 *   1. compiles the workload's .phim artifact from fixed model seeds in
 *      a forked child (not timed, and kept out of this process's RSS);
 *   2. boots the server kBoots times — io::loadModel,
 *      ModelRegistry::load, PhiServer::start, first served response —
 *      and reports the median boot as setup_s;
 *   3. warms up with a closed loop, then runs rounds of an open loop at
 *      the workload's `lo` rate, an open loop at `hi` and a closed loop
 *      (see PhasePlan);
 *   4. checks outputs bit-exact against the spikeGemm / LIF reference
 *      and exits non-zero on any mismatch.
 *
 * The program only sees generated inputs: a pool of kPoolSize distinct
 * inputs drawn from --seed, cycled over. Open-loop latency is timed
 * from each request's due time, so a stall is charged to every request
 * it delays; how late the generator itself ran is reported per phase.
 * The load generator uses at most four threads and four connections.
 *
 * --trace DIR adds the per-layer view. The phases run a second time
 * with a client-side span per request (the difference is the tracing
 * overhead), then sampled pool inputs are replayed through each
 * module's public functions in the order the server calls them. Spans
 * stay in memory until exit, when they are written as Chrome
 * trace-event JSON to DIR/<workload>.trace.json and summarised as a
 * per-layer table of count, median, p99 and self time. Nothing inside
 * src/ is instrumented.
 *
 * Usage:
 *   phi_bench [--workload NAME] [--seed S] [--seconds T] [--trace DIR]
 *             [--json OUT]
 *
 * Without --workload every workload runs, each in a fresh child
 * process. --seconds T scales the phases (warmup:lo:hi:closed =
 * 3:10:15:12) so they last T seconds in total; the default is the
 * full 37 s. The last stdout line of a single-workload
 * run is one JSON object {correct, attempted, failed, metrics}: the
 * end-to-end metrics, or with --trace the per-layer ones.
 */

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "common/sync.hh"
#include "core/pipeline.hh"
#include "io/model_io.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "numeric/gemm.hh"
#include "numeric/simd.hh"
#include "runtime/async_engine.hh"
#include "runtime/registry.hh"
#include "runtime/session.hh"
#include "snn/activation_gen.hh"
#include "snn/lif.hh"

using namespace phi;

namespace
{

using Clock = std::chrono::steady_clock;

// ---- workloads ---------------------------------------------------------

/** One traffic mix. Later changes cite these names; they are final. */
struct Workload
{
    std::string name;
    /** Stateful sessions driven in-process through server.sessions();
     *  otherwise stateless requests over the wire. */
    bool stateful;
    /** Rows per request (frames per step call). */
    size_t rows;
    /** K, then the output width of every layer. */
    std::vector<size_t> widths;
    int q;
    uint64_t modelSeed;
    /** Traffic prototypes differ from the calibration ones. */
    bool drifted;
    double loRate; // requests (step calls) per second
    double hiRate;
    double limitMs; // latency limit behind slo_share
};

// Why each workload exists is recorded in bench/e2e/README.md.
const std::vector<Workload> kWorkloads = {
    {"bulk_clustered", false, 1024, {256, 256}, 128, 7, false, 40, 150, 50},
    {"bulk_drifted", false, 1024, {256, 256}, 128, 7, true, 40, 150, 50},
    {"small_wire", false, 8, {256, 64}, 64, 11, false, 1000, 3500, 5},
    {"sessions_stream", true, 8, {256, 128, 64}, 64, 21, false, 640, 2400,
     20},
};

constexpr size_t kPoolSize = 256;
constexpr size_t kSessions = 64;
constexpr size_t kBoots = 5;
constexpr size_t kOpenConnections = 3;   // plus the scheduler thread
constexpr size_t kClosedConnections = 4; // one thread each
constexpr uint64_t kClientTimeoutMs = 10'000;
constexpr double kGenLagFlagMs = 1.0;
constexpr const char* kModelName = "bench";
constexpr const char* kHost = "127.0.0.1";

enum Phase : size_t
{
    kWarmup,
    kLo,
    kHi,
    kClosed,
    kNumPhases
};
const char* const kPhaseNames[kNumPhases] = {"warmup", "lo", "hi",
                                             "closed"};

/**
 * How long each phase runs in total, and in how many rounds. After the
 * warmup, the lo, hi and closed phases alternate round by round: the
 * host's background shifts every few seconds, and spreading each
 * phase over the whole run averages several of those shifts instead of
 * catching one.
 */
struct PhasePlan
{
    std::array<double, kNumPhases> seconds{};
    size_t rounds = 1;
};

/** Phases in the proportion 3:10:15:12 lasting @p total seconds
 *  (0 = 37 s); rounds of about five seconds. The warmup never drops
 *  below a second: shorter ones leave a cold server that can back up
 *  past the write-buffer cap. */
PhasePlan
planPhases(double total)
{
    constexpr std::array<double, kNumPhases> kFull = {3, 10, 15, 12};
    constexpr double kRoundSeconds = 5.0;
    const double scale = total > 0 ? total / 37.0 : 1.0;
    PhasePlan plan;
    for (size_t p = 0; p < kNumPhases; ++p)
        plan.seconds[p] = kFull[p] * scale;
    plan.seconds[kWarmup] = std::max(1.0, plan.seconds[kWarmup]);
    const double measured = 34.0 * scale;
    plan.rounds = std::max<size_t>(
        1, static_cast<size_t>(std::lround(measured / kRoundSeconds)));
    return plan;
}

// ---- small helpers -----------------------------------------------------

const Clock::time_point gEpoch = Clock::now();

int64_t
sinceEpochNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - gEpoch)
        .count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** Linear-interpolated percentile, p in [0, 100]; 0 with no samples. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Peak resident set of this process (VmHWM), MiB. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * 64-bit digest of a matrix's logical elements. Every step is a
 * bijection of its lane's state and the fold is a bijection of each
 * lane, so any single differing element always changes the digest;
 * one digest per pool input is all the reference a stateless check
 * needs to keep. Four lanes keep it cheap on the reader threads.
 */
uint64_t
digest(const Matrix<int32_t>& m)
{
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t lane[4] = {0xcbf29ce484222325ull, m.rows(), m.cols(), 1};
    for (size_t r = 0; r < m.rows(); ++r) {
        const int32_t* row = m.rowPtr(r);
        for (size_t c = 0; c < m.cols(); ++c)
            lane[c % 4] = (lane[c % 4] ^ static_cast<uint32_t>(row[c])) *
                          kPrime;
    }
    return (((lane[0] * kPrime) ^ lane[1]) * kPrime ^ lane[2]) * kPrime ^
           lane[3];
}

/** Copy row @p from of @p src into row @p to of @p dst (same width). */
void
copyRow(const BinaryMatrix& src, size_t from, BinaryMatrix& dst, size_t to)
{
    for (size_t c = 0; c < src.cols(); c += 64) {
        const int len = static_cast<int>(std::min<size_t>(64, src.cols() - c));
        dst.deposit(to, c, len, src.extract(from, c, len));
    }
}

BinaryMatrix
rowOf(const BinaryMatrix& src, size_t r)
{
    BinaryMatrix out(1, src.cols());
    copyRow(src, r, out, 0);
    return out;
}

Matrix<float>
toFloat(const BinaryMatrix& m)
{
    Matrix<float> out(m.rows(), m.cols());
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            out(r, c) = m.get(r, c) ? 1.0f : 0.0f;
    return out;
}

Matrix<float>
toFloat(const Matrix<int16_t>& m)
{
    Matrix<float> out(m.rows(), m.cols());
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            out(r, c) = static_cast<float>(m(r, c));
    return out;
}

/** A JSON number; non-finite values (never expected) become 0. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

// ---- model and traffic -------------------------------------------------

ClusterGenConfig
generatorConfig()
{
    ClusterGenConfig cfg;
    cfg.bitDensity = 0.10;
    cfg.l2DensityTarget = 0.02;
    return cfg;
}

/** The workload's model, calibrated on traffic from its generators. */
CompiledModel
compileModel(const Workload& w)
{
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = w.q;
    Pipeline pipe(cfg);
    for (size_t l = 0; l + 1 < w.widths.size(); ++l) {
        const uint64_t seed = w.modelSeed + l;
        ClusteredSpikeGenerator gen(generatorConfig(), w.widths[l], seed);
        Rng rng(seed * 1000 + 1);
        const BinaryMatrix train = gen.generate(2048, rng);
        Rng wrng(seed * 1000 + 2);
        Matrix<int16_t> weights(w.widths[l], w.widths[l + 1]);
        for (size_t r = 0; r < weights.rows(); ++r)
            for (size_t c = 0; c < weights.cols(); ++c)
                weights(r, c) =
                    static_cast<int16_t>(wrng.uniformInt(-64, 63));
        pipe.addLayer("l" + std::to_string(l), {&train})
            .bindWeights(std::move(weights));
    }
    return pipe.compile();
}

/**
 * Compile @p w's model into @p path in a forked child, so the
 * compiler's memory never counts toward this process's peak RSS. Must
 * run before this process starts any thread.
 */
void
prepareArtifact(const Workload& w, const std::string& path)
{
    std::cout.flush();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        int code = 0;
        try {
            io::saveModel(compileModel(w), path);
        } catch (const std::exception& e) {
            std::cerr << "artifact preparation failed: " << e.what()
                      << "\n";
            code = 1;
        }
        std::_Exit(code);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            throw std::runtime_error("waitpid failed");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("could not prepare " + path);
}

/** The generated inputs a run cycles over, with their references. */
struct Traffic
{
    std::vector<BinaryMatrix> pool;
    /** Stateless workloads: digest of spikeGemm(pool[i], weights). */
    std::vector<uint64_t> refDigest;
    std::atomic<uint64_t> cursor{0};

    /** Sequence number of the next request; its input is
     *  pool[seq % pool.size()]. */
    uint64_t take() { return cursor.fetch_add(1); }

    const BinaryMatrix&
    input(uint64_t seq) const
    {
        return pool[seq % pool.size()];
    }

    bool
    matches(uint64_t seq, const Matrix<int32_t>& out) const
    {
        return digest(out) == refDigest[seq % pool.size()];
    }
};

void
makeTraffic(const Workload& w, uint64_t seed, const CompiledModel& model,
            Traffic& traffic)
{
    const uint64_t protoSeed = w.drifted ? w.modelSeed + 1000 : w.modelSeed;
    ClusteredSpikeGenerator gen(generatorConfig(), w.widths[0], protoSeed);
    Rng rng(seed);
    traffic.pool.reserve(kPoolSize);
    for (size_t i = 0; i < kPoolSize; ++i)
        traffic.pool.push_back(gen.generate(w.rows, rng));
    if (w.stateful)
        return;
    const Matrix<int16_t>& weights = model.layer(0).weights();
    for (const BinaryMatrix& acts : traffic.pool)
        traffic.refDigest.push_back(digest(spikeGemm(acts, weights)));
}

// ---- outcome recording -------------------------------------------------

/** One timed interval; `parent` indexes the same log (-1 = root). */
struct Span
{
    const char* name;
    int64_t startNs;
    int64_t endNs;
    int64_t parent;
    uint64_t req;
    uint32_t lane; // trace-viewer row
};

/** Tallies of one load phase, summed over its rounds. */
struct PhaseTally
{
    double seconds = 0; // wall time the phase took, replies included
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    std::vector<double> latencyMs; // answered requests
    std::vector<double> lagMs;     // how late the generator sent
};

/** Thread-safe sink for request outcomes during one pass. */
class Recorder
{
  public:
    explicit Recorder(bool tracing) : tracing(tracing) {}

    void
    sent(Phase p, std::optional<double> lagMs = std::nullopt)
    {
        MutexLock lock(mu);
        tallies[p].sent += 1;
        if (lagMs)
            tallies[p].lagMs.push_back(*lagMs);
    }

    void
    failed(Phase p)
    {
        MutexLock lock(mu);
        tallies[p].failed += 1;
    }

    void
    answered(Phase p, uint64_t req, uint32_t lane, Clock::time_point from,
             Clock::time_point done, bool correct)
    {
        const double ms = msBetween(from, done);
        MutexLock lock(mu);
        tallies[p].ok += 1;
        tallies[p].latencyMs.push_back(ms);
        if (!correct)
            mismatchCount += 1;
        if (tracing)
            requestSpans.push_back({"request", sinceEpochNs(from),
                                    sinceEpochNs(done), -1, req, lane});
    }

    void
    addSeconds(Phase p, double s)
    {
        MutexLock lock(mu);
        tallies[p].seconds += s;
    }

    void
    reconnected()
    {
        MutexLock lock(mu);
        reconnectCount += 1;
    }

    uint64_t
    reconnects() const
    {
        MutexLock lock(mu);
        return reconnectCount;
    }

    std::array<PhaseTally, kNumPhases>
    phases() const
    {
        MutexLock lock(mu);
        return tallies;
    }

    uint64_t
    mismatches() const
    {
        MutexLock lock(mu);
        return mismatchCount;
    }

    std::vector<Span>
    spans() const
    {
        MutexLock lock(mu);
        return requestSpans;
    }

  private:
    const bool tracing;
    mutable Mutex mu;
    std::array<PhaseTally, kNumPhases> tallies GUARDED_BY(mu);
    uint64_t mismatchCount GUARDED_BY(mu) = 0;
    uint64_t reconnectCount GUARDED_BY(mu) = 0;
    std::vector<Span> requestSpans GUARDED_BY(mu);
};

/**
 * Answers of a few sampled sessions, kept for the offline replay that
 * checks the whole stream bit-exact (spikeGemm + LifPopulation).
 */
class SessionLog
{
  public:
    static constexpr size_t kSampled[] = {0, 21, 42, 63};

    void
    record(size_t session, uint64_t firstStep, uint64_t seq,
           BinaryMatrix spikes)
    {
        if (std::find(std::begin(kSampled), std::end(kSampled), session) ==
            std::end(kSampled))
            return;
        MutexLock lock(mu);
        streams[session][firstStep] = {seq, std::move(spikes)};
    }

    /** Replay every sampled stream; returns mismatching step calls. */
    uint64_t
    verify(const CompiledModel& model, const Traffic& traffic) const
    {
        MutexLock lock(mu);
        uint64_t bad = 0;
        for (const auto& [session, steps] : streams) {
            std::vector<LifPopulation> lif;
            for (const CompiledLayer& l : model.layers())
                lif.emplace_back(l.weights().cols());
            uint64_t expect = 0;
            for (const auto& [first, answer] : steps) {
                if (first != expect) { // an answer is missing
                    bad += 1;
                    break;
                }
                const BinaryMatrix& frames = traffic.input(answer.seq);
                bool same = answer.spikes.rows() == frames.rows();
                for (size_t t = 0; same && t < frames.rows(); ++t) {
                    BinaryMatrix acts = rowOf(frames, t);
                    for (size_t l = 0; l < lif.size(); ++l) {
                        const Matrix<int32_t> cur =
                            spikeGemm(acts, model.layer(l).weights());
                        BinaryMatrix next(1, cur.cols());
                        lif[l].stepInto(cur.rowPtr(0), next, 0);
                        acts = std::move(next);
                    }
                    same = acts == rowOf(answer.spikes, t);
                }
                if (!same) {
                    bad += 1;
                    break;
                }
                expect += frames.rows();
            }
        }
        return bad;
    }

  private:
    struct Answer
    {
        uint64_t seq = 0;
        BinaryMatrix spikes;
    };

    mutable Mutex mu;
    std::map<size_t, std::map<uint64_t, Answer>> streams GUARDED_BY(mu);
};

// ---- wire load ---------------------------------------------------------

/**
 * Open-loop wire load: the calling thread sends each request at its due
 * time, round-robin over pipelined connections, and one reader thread
 * per connection matches replies by id. A severed connection fails its
 * in-flight requests and reconnects; the schedule never waits for it.
 */
class WireOpenLoop
{
  public:
    WireOpenLoop(uint16_t port, Traffic& traffic, Recorder& rec)
        : port(port), traffic(traffic), rec(rec)
    {
        // Connect everything first: a throw here leaves no thread behind.
        std::array<std::shared_ptr<net::PhiClient>, kOpenConnections> clients;
        for (auto& client : clients)
            client =
                std::make_shared<net::PhiClient>(kHost, port, kClientTimeoutMs);
        for (size_t i = 0; i < conns.size(); ++i) {
            Conn& c = conns[i];
            {
                MutexLock lock(c.mu);
                c.client = clients[i];
            }
            c.reader = std::thread(
                [this, &c, client = clients[i]] { readLoop(c, client); });
        }
    }

    ~WireOpenLoop()
    {
        stopping = true;
        for (Conn& c : conns) {
            MutexLock lock(c.mu);
            if (c.client)
                ::shutdown(c.client->fd(), SHUT_RDWR);
        }
        for (Conn& c : conns)
            c.reader.join();
    }

    WireOpenLoop(const WireOpenLoop&) = delete;
    WireOpenLoop& operator=(const WireOpenLoop&) = delete;

    /** Send at @p rate for @p seconds, then wait for every reply. */
    void
    run(Phase phase, double rate, double seconds)
    {
        const Clock::time_point start = Clock::now();
        const auto n = static_cast<uint64_t>(rate * seconds);
        for (uint64_t j = 0; j < n; ++j) {
            const Clock::time_point due =
                start + toDuration(static_cast<double>(j) / rate);
            std::this_thread::sleep_until(due);
            rec.sent(phase, msBetween(due, Clock::now()));
            send(conns[j % conns.size()], phase, due);
        }
        for (Conn& c : conns) {
            UniqueLock lock(c.mu);
            while (!c.inflight.empty())
                c.idle.wait(lock);
        }
        rec.addSeconds(phase, msBetween(start, Clock::now()) / 1e3);
    }

  private:
    struct Pending
    {
        Clock::time_point due;
        uint64_t seq;
        Phase phase;
    };

    struct Conn
    {
        Mutex mu;
        CondVar idle; // inflight became empty
        std::shared_ptr<net::PhiClient> client GUARDED_BY(mu);
        std::unordered_map<uint32_t, Pending> inflight GUARDED_BY(mu);
        std::thread reader;
    };

    void
    send(Conn& c, Phase phase, Clock::time_point due)
    {
        const uint64_t seq = traffic.take();
        const auto id = static_cast<uint32_t>(seq + 1);
        std::shared_ptr<net::PhiClient> client;
        {
            MutexLock lock(c.mu);
            client = c.client;
            if (client)
                c.inflight.emplace(id, Pending{due, seq, phase});
        }
        if (!client) { // reconnecting
            rec.failed(phase);
            return;
        }
        net::WireRequest req;
        req.id = id;
        req.model = kModelName;
        req.acts = traffic.input(seq);
        try {
            client->sendRequest(req);
        } catch (const std::exception&) {
            if (settle(c, id))
                rec.failed(phase);
            ::shutdown(client->fd(), SHUT_RDWR); // reader reconnects
        }
    }

    /** Remove @p id from the in-flight set; false if already gone. */
    std::optional<Pending>
    settle(Conn& c, uint32_t id)
    {
        MutexLock lock(c.mu);
        auto it = c.inflight.find(id);
        if (it == c.inflight.end())
            return std::nullopt;
        Pending p = it->second;
        c.inflight.erase(it);
        if (c.inflight.empty())
            c.idle.notify_all();
        return p;
    }

    void
    readLoop(Conn& c, std::shared_ptr<net::PhiClient> client)
    {
        const auto lane = static_cast<uint32_t>(&c - conns.data());
        for (;;) {
            try {
                for (;;) {
                    net::WireReply reply = client->readReply();
                    const Clock::time_point done = Clock::now();
                    const uint32_t id =
                        reply.ok ? reply.response.id : reply.error.id;
                    const std::optional<Pending> p = settle(c, id);
                    if (!p)
                        continue;
                    if (!reply.ok)
                        rec.failed(p->phase);
                    else
                        rec.answered(p->phase, id, lane, p->due, done,
                                     traffic.matches(p->seq,
                                                     reply.response.out));
                }
            } catch (const std::exception&) {
                // Reset, timeout or a server-side drop: whatever was in
                // flight on this connection is lost.
            }
            std::vector<Phase> lost;
            {
                MutexLock lock(c.mu);
                c.client.reset();
                for (const auto& [id, p] : c.inflight)
                    lost.push_back(p.phase);
                c.inflight.clear();
                c.idle.notify_all();
            }
            for (Phase p : lost)
                rec.failed(p);
            client.reset();
            while (!client) {
                if (stopping)
                    return;
                try {
                    client = std::make_shared<net::PhiClient>(
                        kHost, port, kClientTimeoutMs);
                } catch (const net::NetError&) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                }
            }
            {
                MutexLock lock(c.mu);
                if (stopping)
                    return;
                c.client = client;
            }
            rec.reconnected();
        }
    }

    const uint16_t port;
    Traffic& traffic;
    Recorder& rec;
    std::atomic<bool> stopping{false};
    std::array<Conn, kOpenConnections> conns;
};

/** Closed loop: each connection sends its next request as soon as the
 *  previous reply arrives. */
void
runWireClosedLoop(uint16_t port, Traffic& traffic, Recorder& rec, Phase phase,
                  double seconds)
{
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + toDuration(seconds);
    auto drive = [&](uint32_t lane) {
        std::unique_ptr<net::PhiClient> client;
        bool lost = false;
        while (Clock::now() < end) {
            if (!client) {
                try {
                    client = std::make_unique<net::PhiClient>(
                        kHost, port, kClientTimeoutMs);
                } catch (const net::NetError&) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                    continue;
                }
                if (lost)
                    rec.reconnected();
            }
            const uint64_t seq = traffic.take();
            rec.sent(phase);
            const Clock::time_point sentAt = Clock::now();
            try {
                const net::WireResponse resp =
                    client->request(kModelName, 0, traffic.input(seq));
                rec.answered(phase, seq + 1, lane, sentAt, Clock::now(),
                             traffic.matches(seq, resp.out));
            } catch (const EngineError&) {
                rec.failed(phase); // typed refusal; connection intact
            } catch (const std::exception&) {
                rec.failed(phase);
                client.reset();
                lost = true;
            }
        }
    };
    std::vector<std::thread> helpers;
    for (uint32_t lane = 1; lane < kClosedConnections; ++lane)
        helpers.emplace_back(drive, kOpenConnections + lane);
    drive(kOpenConnections);
    for (std::thread& t : helpers)
        t.join();
    rec.addSeconds(phase, msBetween(start, Clock::now()) / 1e3);
}

// ---- session load ------------------------------------------------------

/** Step calls into the server's SessionManager, shared by both loops. */
class SessionDriver
{
  public:
    SessionDriver(SessionManager& mgr, const std::vector<uint64_t>& sids,
                  Traffic& traffic, Recorder& rec, SessionLog& log)
        : mgr(mgr), sids(sids), traffic(traffic), rec(rec), log(log)
    {
    }

    /** One in-flight step call. */
    struct Call
    {
        std::future<SessionStepResult> future;
        Clock::time_point from; // due time (open) or send time (closed)
        uint64_t seq = 0;
        size_t session = 0;
        Phase phase = kWarmup;
    };

    Call
    step(size_t session, Phase phase, Clock::time_point from)
    {
        const uint64_t seq = traffic.take();
        return {mgr.step(sids[session], traffic.input(seq)), from, seq,
                session, phase};
    }

    void
    settle(Call& call)
    {
        try {
            SessionStepResult res = call.future.get();
            rec.answered(call.phase, call.seq + 1,
                         static_cast<uint32_t>(call.session), call.from,
                         Clock::now(), true);
            log.record(call.session, res.firstStep, call.seq,
                       std::move(res.spikes));
        } catch (const std::exception&) {
            rec.failed(call.phase);
        }
    }

    size_t sessions() const { return sids.size(); }
    Recorder& recorder() { return rec; }

  private:
    SessionManager& mgr;
    const std::vector<uint64_t>& sids;
    Traffic& traffic;
    Recorder& rec;
    SessionLog& log;
};

/**
 * Open-loop session load: step call j goes to session j % kSessions at
 * its due time, so each session is an independent sensor sending one
 * chunk per period. Waiter threads resolve the futures in order.
 */
class SessionOpenLoop
{
  public:
    explicit SessionOpenLoop(SessionDriver& driver) : driver(driver)
    {
        for (Waiter& w : waiters)
            w.thread = std::thread([this, &w] { waitLoop(w); });
    }

    ~SessionOpenLoop()
    {
        for (Waiter& w : waiters) {
            MutexLock lock(w.mu);
            w.stop = true;
            w.cv.notify_all();
        }
        for (Waiter& w : waiters)
            w.thread.join();
    }

    SessionOpenLoop(const SessionOpenLoop&) = delete;
    SessionOpenLoop& operator=(const SessionOpenLoop&) = delete;

    /** Step at @p rate calls/s for @p seconds, then wait for all. */
    void
    run(Phase phase, double rate, double seconds)
    {
        const Clock::time_point start = Clock::now();
        const auto n = static_cast<uint64_t>(rate * seconds);
        for (uint64_t j = 0; j < n; ++j) {
            const Clock::time_point due =
                start + toDuration(static_cast<double>(j) / rate);
            std::this_thread::sleep_until(due);
            driver.recorder().sent(phase, msBetween(due, Clock::now()));
            SessionDriver::Call call =
                driver.step(j % driver.sessions(), phase, due);
            Waiter& w = waiters[j % waiters.size()];
            MutexLock lock(w.mu);
            w.calls.push_back(std::move(call));
            w.outstanding += 1;
            w.cv.notify_all();
        }
        for (Waiter& w : waiters) {
            UniqueLock lock(w.mu);
            while (w.outstanding > 0)
                w.cv.wait(lock);
        }
        driver.recorder().addSeconds(phase,
                                       msBetween(start, Clock::now()) / 1e3);
    }

  private:
    struct Waiter
    {
        Mutex mu;
        CondVar cv;
        std::deque<SessionDriver::Call> calls GUARDED_BY(mu);
        size_t outstanding GUARDED_BY(mu) = 0;
        bool stop GUARDED_BY(mu) = false;
        std::thread thread;
    };

    void
    waitLoop(Waiter& w)
    {
        for (;;) {
            SessionDriver::Call call;
            {
                UniqueLock lock(w.mu);
                while (!w.stop && w.calls.empty())
                    w.cv.wait(lock);
                if (w.calls.empty())
                    return;
                call = std::move(w.calls.front());
                w.calls.pop_front();
            }
            driver.settle(call);
            MutexLock lock(w.mu);
            w.outstanding -= 1;
            w.cv.notify_all();
        }
    }

    SessionDriver& driver;
    std::array<Waiter, kOpenConnections> waiters;
};

/** Closed loop: every session re-steps as soon as its previous call
 *  completes; kClosedConnections threads each drive a share. */
void
runSessionClosedLoop(SessionDriver& driver, Phase phase, double seconds)
{
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + toDuration(seconds);
    auto drive = [&](size_t lane) {
        std::vector<SessionDriver::Call> calls;
        for (size_t s = lane; s < driver.sessions(); s += kClosedConnections) {
            driver.recorder().sent(phase);
            calls.push_back(driver.step(s, phase, Clock::now()));
        }
        for (bool active = true; active;) {
            active = false;
            for (SessionDriver::Call& call : calls) {
                if (!call.future.valid())
                    continue;
                driver.settle(call);
                if (Clock::now() < end) {
                    driver.recorder().sent(phase);
                    call = driver.step(call.session, phase, Clock::now());
                    active = true;
                }
            }
        }
    };
    std::vector<std::thread> helpers;
    for (size_t lane = 1; lane < kClosedConnections; ++lane)
        helpers.emplace_back(drive, lane);
    drive(0);
    for (std::thread& t : helpers)
        t.join();
    driver.recorder().addSeconds(phase,
                                   msBetween(start, Clock::now()) / 1e3);
}

// ---- one pass over the phases -----------------------------------------

/** Engine counters accumulated over the rounds of one phase. */
struct EngineDelta
{
    uint64_t requests = 0;
    uint64_t rows = 0;
    uint64_t dispatches = 0;
    uint64_t queueDepthSum = 0;
    double lingerSeconds = 0;
    double busySeconds = 0;

    void
    add(const ServingStats& before, const ServingStats& after)
    {
        requests += after.requests - before.requests;
        rows += after.rows - before.rows;
        dispatches += after.dispatches - before.dispatches;
        queueDepthSum += after.queueDepthSum - before.queueDepthSum;
        lingerSeconds += after.lingerSeconds - before.lingerSeconds;
        busySeconds += after.busySeconds - before.busySeconds;
    }
};

/** What one pass over the load phases measured. */
struct Pass
{
    std::array<PhaseTally, kNumPhases> phases;
    uint64_t mismatches = 0;
    uint64_t reconnects = 0;
    std::vector<Span> spans;
    EngineDelta hiEngine; // engine counters during the hi phase

    uint64_t
    attempted() const
    {
        uint64_t n = 0;
        for (const PhaseTally& t : phases)
            n += t.sent;
        return n;
    }

    uint64_t
    failed() const
    {
        uint64_t n = 0;
        for (const PhaseTally& t : phases)
            n += t.failed;
        return n;
    }
};

/**
 * Warm up, then run the plan's rounds of lo, hi and closed load. Each
 * round's open loop is gone before its closed loop starts, so the
 * generator never holds more than four threads or connections.
 */
template <typename MakeOpenLoop, typename ClosedLoop>
void
runRounds(const Workload& w, const PhasePlan& plan, AsyncPhiEngine& engine,
          MakeOpenLoop makeOpenLoop, ClosedLoop closedLoop, Pass& pass)
{
    const auto share = [&](Phase p) {
        return plan.seconds[p] / static_cast<double>(plan.rounds);
    };
    // A closed-loop warmup drives allocator, socket buffers and pool to
    // full throughput without the backlog an open loop builds while the
    // server is still cold.
    closedLoop(kWarmup, plan.seconds[kWarmup]);
    for (size_t r = 0; r < plan.rounds; ++r) {
        {
            auto open = makeOpenLoop();
            open->run(kLo, w.loRate, share(kLo));
            const ServingStats before = engine.stats();
            open->run(kHi, w.hiRate, share(kHi));
            pass.hiEngine.add(before, engine.stats());
        }
        closedLoop(kClosed, share(kClosed));
    }
}

Pass
runPass(const Workload& w, const PhasePlan& plan, net::PhiServer& server,
        Traffic& traffic, const std::vector<uint64_t>& sids, SessionLog& log,
        bool tracing)
{
    Recorder rec(tracing);
    Pass pass;
    if (w.stateful) {
        SessionDriver driver(server.sessions(), sids, traffic, rec, log);
        runRounds(
            w, plan, server.engine(),
            [&] { return std::make_unique<SessionOpenLoop>(driver); },
            [&](Phase p, double s) { runSessionClosedLoop(driver, p, s); },
            pass);
    } else {
        const uint16_t port = server.port();
        runRounds(
            w, plan, server.engine(),
            [&] { return std::make_unique<WireOpenLoop>(port, traffic, rec); },
            [&](Phase p, double s) {
                runWireClosedLoop(port, traffic, rec, p, s);
            },
            pass);
    }
    pass.phases = rec.phases();
    pass.mismatches = rec.mismatches();
    pass.reconnects = rec.reconnects();
    pass.spans = rec.spans();
    return pass;
}

// ---- boots -------------------------------------------------------------

/** The engine configuration phi_serve runs with. */
AsyncEngineConfig
serveEngineConfig()
{
    AsyncEngineConfig cfg;
    cfg.maxBatch = 32;
    cfg.maxQueueDepth = 1024;
    cfg.backpressure = AsyncEngineConfig::Backpressure::Reject;
    return cfg;
}

struct BootTimes
{
    double loadMs = 0;     // io::loadModel
    double registryMs = 0; // ModelRegistry::load
    double startMs = 0;    // PhiServer::start through first response
    double totalS = 0;
};

/** One boot, timed by stage; returns the serving server. */
std::unique_ptr<net::PhiServer>
boot(const Workload& w, const std::string& artifact,
     const BinaryMatrix& firstInput, BootTimes& t)
{
    const Clock::time_point t0 = Clock::now();
    CompiledModel model = io::loadModel(artifact);
    const Clock::time_point t1 = Clock::now();
    auto registry = std::make_shared<ModelRegistry>();
    registry->load(kModelName, std::move(model));
    const Clock::time_point t2 = Clock::now();
    auto server = std::make_unique<net::PhiServer>(
        registry, ExecutionConfig{}, serveEngineConfig(),
        net::PhiServerConfig{});
    server->start();
    if (w.stateful) {
        SessionManager& mgr = server->sessions();
        const uint64_t sid = mgr.open(kModelName);
        mgr.step(sid, firstInput).get();
        mgr.close(sid);
    } else {
        net::PhiClient client(kHost, server->port(), kClientTimeoutMs);
        client.request(kModelName, 0, firstInput);
    }
    const Clock::time_point t3 = Clock::now();
    t = {msBetween(t0, t1), msBetween(t1, t2), msBetween(t2, t3),
         msBetween(t0, t3) / 1e3};
    return server;
}

void
shutdownServer(net::PhiServer& server)
{
    server.requestDrain();
    server.waitUntilStopped();
}

// ---- per-layer replay --------------------------------------------------

/** In-memory span log of the replay. */
class SpanLog
{
  public:
    int64_t
    open(const char* name, int64_t parent, uint64_t req)
    {
        const int64_t now = sinceEpochNs(Clock::now());
        spans.push_back({name, now, now, parent, req, 0});
        return static_cast<int64_t>(spans.size()) - 1;
    }

    void
    close(int64_t idx)
    {
        spans[static_cast<size_t>(idx)].endNs = sinceEpochNs(Clock::now());
    }

    /** Time fn() as a span named @p name under @p parent. */
    template <typename F>
    void
    timed(const char* name, int64_t parent, uint64_t req, F&& fn)
    {
        const int64_t idx = open(name, parent, req);
        fn();
        close(idx);
    }

    std::vector<Span> spans;
};

template <typename Msg, typename Encode>
std::vector<uint8_t>
frameOf(net::FrameType type, const Msg& msg, Encode encode)
{
    io::ByteWriter body;
    encode(body, msg);
    return net::encodeFrame(type, body.buffer());
}

template <typename Decode>
auto
parseFrame(const std::vector<uint8_t>& frame, Decode decode)
{
    net::ParsedFrame parsed;
    net::WireErrorCode code{};
    std::string why;
    if (net::tryParseFrame(frame.data(), frame.size(),
                           net::kDefaultMaxFrameBytes, parsed, code,
                           why) != net::ParseStatus::Frame)
        throw std::runtime_error("replayed frame did not parse: " + why);
    io::ByteReader r(parsed.body, parsed.bodyLen);
    return decode(r);
}

/** Layer-level numbers the replay measures beyond its spans. */
struct ReplayCounts
{
    std::vector<SparsityBreakdown> breakdowns;
    uint64_t nonzeroTiles = 0;
    double responseBytes = 0;
    uint64_t mismatches = 0;
};

uint64_t
nonzeroTiles(const BinaryMatrix& acts, int k)
{
    uint64_t n = 0;
    for (size_t r = 0; r < acts.rows(); ++r)
        for (size_t c = 0; c < acts.cols(); c += static_cast<size_t>(k))
            n += acts.extract(r, c,
                              static_cast<int>(std::min<size_t>(
                                  static_cast<size_t>(k), acts.cols() - c))) !=
                 0;
    return n;
}

/**
 * Replay @p samples pool inputs of a stateless workload through the
 * server's call order: request codec, decompose, gather, response
 * codec; then the spikeGemm / dense / LIF baselines on the same input.
 */
void
replayStateless(const CompiledModel& model, const Traffic& traffic,
                size_t samples, SpanLog& log, ReplayCounts& counts)
{
    // One thread: a request's work as the server runs it in any batch
    // of two or more. A lone request's kernels may spread over the
    // pool, which runtime.submit_to_future_us shows.
    ExecutionConfig one;
    one.threads = 1;
    const CompiledLayer& layer = model.layer(0);
    const Matrix<float> weightsF = toFloat(layer.weights());
    const int k = layer.table().k();
    for (size_t s = 0; s < samples; ++s) {
        const uint64_t seq = s * (kPoolSize / samples);
        const BinaryMatrix& acts = traffic.input(seq);
        const int64_t root = log.open("replay", -1, seq + 1);
        std::vector<uint8_t> reqFrame;
        log.timed("net.encode_request", root, seq + 1, [&] {
            net::WireRequest req;
            req.id = static_cast<uint32_t>(seq + 1);
            req.model = kModelName;
            req.acts = acts;
            reqFrame = frameOf(net::FrameType::Request, req,
                               net::encodeRequest);
        });
        net::WireRequest parsed;
        log.timed("net.parse_request", root, seq + 1, [&] {
            parsed = parseFrame(reqFrame, net::decodeRequest);
        });
        LayerDecomposition dec;
        log.timed("core.decompose", root, seq + 1,
                  [&] { dec = layer.decompose(parsed.acts, one); });
        Matrix<int32_t> out =
            Matrix<int32_t>::uninitialized(acts.rows(), layer.weights().cols());
        log.timed("core.gather", root, seq + 1,
                  [&] { layer.computeInto(out, dec, one); });
        counts.mismatches += !traffic.matches(seq, out);
        const net::WireResponse resp{static_cast<uint32_t>(seq + 1),
                                     kModelName, 1, 0, out};
        std::vector<uint8_t> respFrame;
        log.timed("net.encode_response", root, seq + 1, [&] {
            respFrame = frameOf(net::FrameType::Response, resp,
                                net::encodeResponse);
        });
        log.timed("net.parse_response", root, seq + 1, [&] {
            parseFrame(respFrame, net::decodeResponse);
        });
        log.close(root);
        counts.responseBytes = static_cast<double>(respFrame.size());
        counts.breakdowns.push_back(layer.breakdown(acts, dec));
        counts.nonzeroTiles += nonzeroTiles(acts, k);

        const int64_t base = log.open("baseline", -1, seq + 1);
        Matrix<int32_t> ref;
        log.timed("numeric.spike_gemm", base, seq + 1,
                  [&] { ref = spikeGemm(acts, layer.weights(), one); });
        const Matrix<float> actsF = toFloat(acts);
        log.timed("numeric.dense_gemm", base, seq + 1,
                  [&] { denseGemm(actsF, weightsF, one); });
        // The LIF update a following layer would apply, one timestep
        // per output row.
        LifPopulation pop(ref.cols());
        BinaryMatrix spikes(ref.rows(), ref.cols());
        for (size_t r = 0; r < std::min<size_t>(ref.rows(), 64); ++r)
            log.timed("snn.lif_step", base, seq + 1,
                      [&] { pop.stepInto(ref.rowPtr(r), spikes, r); });
        log.close(base);
    }
}

/**
 * Replay @p samples pump rounds of the stateful workload: one frame of
 * every session stacked into an m = kSessions submit per layer, the
 * per-session LIF update, and the step-call codec; then the baselines
 * on each layer's round input.
 */
void
replaySessions(const CompiledModel& model, const Traffic& traffic,
               size_t samples, SpanLog& log, ReplayCounts& counts)
{
    ExecutionConfig one;
    one.threads = 1;
    const size_t frames = traffic.pool.front().rows();
    std::vector<std::vector<LifPopulation>> lif(model.numLayers());
    for (size_t l = 0; l < model.numLayers(); ++l)
        for (size_t i = 0; i < kSessions; ++i)
            lif[l].emplace_back(model.layer(l).weights().cols());
    std::vector<Matrix<float>> weightsF;
    for (const CompiledLayer& l : model.layers())
        weightsF.push_back(toFloat(l.weights()));

    for (size_t s = 0; s < samples; ++s) {
        const uint64_t req = s + 1;
        BinaryMatrix acts(kSessions, model.layer(0).weights().rows());
        for (size_t i = 0; i < kSessions; ++i) {
            const uint64_t flat = s * kSessions + i;
            copyRow(traffic.input(flat / frames), flat % frames, acts, i);
        }
        const int64_t root = log.open("replay", -1, req);
        std::vector<uint8_t> reqFrame;
        log.timed("net.encode_request", root, req, [&] {
            reqFrame = frameOf(net::FrameType::StepSession,
                               net::WireStepSession{static_cast<uint32_t>(req),
                                                    1, traffic.input(s)},
                               net::encodeStepSession);
        });
        log.timed("net.parse_request", root, req, [&] {
            parseFrame(reqFrame, net::decodeStepSession);
        });
        std::vector<BinaryMatrix> inputs;
        for (size_t l = 0; l < model.numLayers(); ++l) {
            const CompiledLayer& layer = model.layer(l);
            LayerDecomposition dec;
            log.timed("core.decompose", root, req,
                      [&] { dec = layer.decompose(acts, one); });
            Matrix<int32_t> out = Matrix<int32_t>::uninitialized(
                acts.rows(), layer.weights().cols());
            log.timed("core.gather", root, req,
                      [&] { layer.computeInto(out, dec, one); });
            counts.breakdowns.push_back(layer.breakdown(acts, dec));
            counts.nonzeroTiles += nonzeroTiles(acts, layer.table().k());
            counts.mismatches += !(out == spikeGemm(acts, layer.weights()));
            BinaryMatrix next(kSessions, out.cols());
            for (size_t i = 0; i < kSessions; ++i)
                log.timed("snn.lif_step", root, req, [&] {
                    lif[l][i].stepInto(out.rowPtr(i), next, i);
                });
            inputs.push_back(std::move(acts));
            acts = std::move(next);
        }
        BinaryMatrix answer(frames, acts.cols());
        for (size_t t = 0; t < frames; ++t)
            copyRow(acts, t, answer, t);
        std::vector<uint8_t> respFrame;
        log.timed("net.encode_response", root, req, [&] {
            respFrame = frameOf(
                net::FrameType::SessionStepped,
                net::WireSessionStepped{static_cast<uint32_t>(req), 1, 0,
                                        answer},
                net::encodeSessionStepped);
        });
        log.timed("net.parse_response", root, req, [&] {
            parseFrame(respFrame, net::decodeSessionStepped);
        });
        log.close(root);
        counts.responseBytes = static_cast<double>(respFrame.size());

        const int64_t base = log.open("baseline", -1, req);
        for (size_t l = 0; l < model.numLayers(); ++l) {
            log.timed("numeric.spike_gemm", base, req, [&] {
                spikeGemm(inputs[l], model.layer(l).weights(), one);
            });
            const Matrix<float> actsF = toFloat(inputs[l]);
            log.timed("numeric.dense_gemm", base, req,
                      [&] { denseGemm(actsF, weightsF[l], one); });
        }
        log.close(base);
    }
}

/** Distinct k-bit tile values per tile across the pool (layer 0). */
double
distinctTileShare(const Traffic& traffic, int k)
{
    const size_t cols = traffic.pool.front().cols();
    uint64_t tiles = 0;
    uint64_t distinct = 0;
    for (size_t c = 0; c < cols; c += static_cast<size_t>(k)) {
        const int len = static_cast<int>(
            std::min<size_t>(static_cast<size_t>(k), cols - c));
        std::unordered_set<uint64_t> seen;
        for (const BinaryMatrix& m : traffic.pool)
            for (size_t r = 0; r < m.rows(); ++r) {
                seen.insert(m.extract(r, c, len));
                tiles += 1;
            }
        distinct += seen.size();
    }
    return ratio(static_cast<double>(distinct), static_cast<double>(tiles));
}

// ---- span summaries ----------------------------------------------------

double
durUs(const Span& s)
{
    return static_cast<double>(s.endNs - s.startNs) / 1e3;
}

/** Median over root spans of the summed duration of their children
 *  named @p name (one layer's total per request), microseconds. */
double
medianPerRoot(const std::vector<Span>& spans, const std::string& name)
{
    std::map<int64_t, double> perRoot;
    for (const Span& s : spans)
        if (s.parent >= 0 && name == s.name)
            perRoot[s.parent] += durUs(s);
    std::vector<double> v;
    for (const auto& [root, us] : perRoot)
        v.push_back(us);
    return median(std::move(v));
}

double
medianOf(const std::vector<Span>& spans, const std::string& name)
{
    std::vector<double> v;
    for (const Span& s : spans)
        if (name == s.name)
            v.push_back(durUs(s));
    return median(std::move(v));
}

/** A span's duration minus the time its children cover, µs. */
std::vector<double>
selfTimesUs(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.startNs,
                                                             s.endNs);
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t reach = spans[i].startNs;
        for (auto [b, e] : iv) {
            b = std::max(b, reach);
            e = std::min(e, spans[i].endNs);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = static_cast<double>(spans[i].endNs - spans[i].startNs -
                                      covered) /
                  1e3;
    }
    return self;
}

void
printSpanTable(const std::vector<Span>& spans)
{
    const std::vector<double> self = selfTimesUs(spans);
    std::vector<std::string> order;
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        byName;
    for (size_t i = 0; i < spans.size(); ++i) {
        auto [it, fresh] = byName.try_emplace(spans[i].name);
        if (fresh)
            order.push_back(spans[i].name);
        it->second.first.push_back(durUs(spans[i]));
        it->second.second.push_back(self[i]);
    }
    std::cout << "\nper-layer spans (us)\n"
              << std::left << std::setw(22) << "span" << std::right
              << std::setw(9) << "count" << std::setw(13) << "median"
              << std::setw(13) << "p99" << std::setw(13) << "self_median"
              << "\n";
    for (const std::string& name : order) {
        const auto& [dur, selfUs] = byName[name];
        std::cout << std::left << std::setw(22) << name << std::right
                  << std::setw(9) << dur.size() << std::fixed
                  << std::setprecision(2) << std::setw(13) << median(dur)
                  << std::setw(13) << percentile(dur, 99) << std::setw(13)
                  << median(selfUs) << "\n";
    }
    std::cout.unsetf(std::ios::floatfield);
}

void
writeChromeTrace(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"phi\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
            << ",\"ts\":" << jsonNumber(static_cast<double>(s.startNs) / 1e3)
            << ",\"dur\":" << jsonNumber(durUs(s)) << ",\"args\":{\"req\":"
            << s.req << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("could not write " + path);
}

// ---- reporting ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Options
{
    std::string workload; // empty: every workload, each in a child
    uint64_t seed = 1;
    double seconds = 0; // 0: full-length phases
    std::string traceDir;
    std::string jsonPath;
};

std::string
metricsJson(const std::vector<Metric>& metrics)
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}";
    return os.str();
}

void
printMetrics(const char* title, const std::vector<Metric>& metrics)
{
    std::cout << "\n" << title << "\n";
    for (const Metric& m : metrics)
        std::cout << "  " << std::left << std::setw(34) << m.name
                  << std::right << std::setw(16) << jsonNumber(m.value) << " "
                  << m.unit << "\n";
}

std::string
hostJson()
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"simd\": \"" << simdIsaName(simd::activeIsa())
       << "\", \"build\": \""
       << (phi::bench::kReleaseBuild ? "release" : "debug") << "\"}";
    return os.str();
}

/** Prints one line per phase; returns the phases as JSON. */
std::string
reportPhases(const Workload& w, const char* pass, const Pass& p)
{
    std::ostringstream json;
    json << "[";
    for (size_t i = 0; i < kNumPhases; ++i) {
        const PhaseTally& t = p.phases[i];
        const bool closed = i == kWarmup || i == kClosed;
        const double rate = i == kHi ? w.hiRate : w.loRate;
        const double lag = percentile(t.lagMs, 99);
        const bool lagging = lag > kGenLagFlagMs;
        std::cout << pass << " phase " << std::left << std::setw(7)
                  << kPhaseNames[i] << std::right << " rate="
                  << (closed ? std::string("closed") : jsonNumber(rate) + "/s")
                  << " sent=" << t.sent << " ok=" << t.ok
                  << " failed=" << t.failed << " p50_ms="
                  << percentile(t.latencyMs, 50) << " p99_ms="
                  << percentile(t.latencyMs, 99);
        if (!closed)
            std::cout << " gen_lag_p99_ms=" << lag
                      << (lagging ? " LAGGING" : "");
        std::cout << "\n";
        json << (i ? ", " : "") << "{\"name\": \"" << kPhaseNames[i]
             << "\", \"seconds\": " << jsonNumber(t.seconds)
             << ", \"sent\": " << t.sent << ", \"ok\": " << t.ok
             << ", \"failed\": " << t.failed << ", \"p50_ms\": "
             << jsonNumber(percentile(t.latencyMs, 50))
             << ", \"gen_lag_p99_ms\": " << jsonNumber(lag)
             << ", \"lagging\": " << (lagging ? "true" : "false") << "}";
    }
    json << "]";
    return json.str();
}

std::vector<Metric>
endToEndMetrics(const Workload& w, const Pass& p, double setupS,
                double setupRssMiB)
{
    const PhaseTally& hi = p.phases[kHi];
    const PhaseTally& closed = p.phases[kClosed];
    double withinLimit = 0;
    for (double ms : hi.latencyMs)
        withinLimit += ms <= w.limitMs;
    return {
        {"setup_s", setupS, "s"},
        {"throughput_rps",
         ratio(static_cast<double>(closed.ok), closed.seconds), "1/s"},
        {"latency_p50_ms", percentile(hi.latencyMs, 50), "ms"},
        {"service_p50_ms", percentile(p.phases[kLo].latencyMs, 50), "ms"},
        {"slo_share", ratio(withinLimit, static_cast<double>(hi.sent)),
         "ratio"},
        {"rss_setup_mb", setupRssMiB, "MiB"},
    };
}

/** Everything the per-layer metrics are computed from. */
struct LayerInputs
{
    bool stateful = false;
    std::vector<BootTimes> boots;
    const Pass* pass = nullptr;   // untraced
    const Pass* traced = nullptr; // same phases with request spans
    net::ServerCounters counters;
    ServingStats engineTotal;
    std::vector<Span> replay;
    ReplayCounts counts;
    double submitToFutureUs = 0;
    double sessionStepUs = 0;
    double distinctTileShare = 0;
    size_t pwpResidentBytes = 0;
};

std::vector<Metric>
layerMetrics(const LayerInputs& in)
{
    auto bootMedian = [&](double BootTimes::*field) {
        std::vector<double> v;
        for (const BootTimes& b : in.boots)
            v.push_back(b.*field);
        return median(std::move(v));
    };
    const Pass& p = *in.pass;
    const EngineDelta& hi = p.hiEngine;
    const auto dispatches = static_cast<double>(hi.dispatches);
    const auto requests = static_cast<double>(hi.requests);
    const SparsityBreakdown sb = mergeBreakdowns(in.counts.breakdowns);
    const double decomposeUs = medianPerRoot(in.replay, "core.decompose");
    const double gatherUs = medianPerRoot(in.replay, "core.gather");
    const double spikeGemmUs = medianPerRoot(in.replay, "numeric.spike_gemm");
    const double serviceUs = percentile(p.phases[kLo].latencyMs, 50) * 1e3;
    const double tracedServiceUs =
        percentile(in.traced->phases[kLo].latencyMs, 50) * 1e3;
    const std::vector<double>& hiLat = p.phases[kHi].latencyMs;
    // The same call without the wire (or, for sessions, without load).
    const double inProcessUs =
        in.stateful ? in.sessionStepUs : in.submitToFutureUs;
    return {
        {"io.load_model_ms", bootMedian(&BootTimes::loadMs), "ms"},
        {"runtime.registry_load_ms", bootMedian(&BootTimes::registryMs),
         "ms"},
        {"net.server_start_ms", bootMedian(&BootTimes::startMs), "ms"},
        {"core.pwp_resident_bytes", static_cast<double>(in.pwpResidentBytes),
         "B"},
        {"net.encode_request_us", medianOf(in.replay, "net.encode_request"),
         "us"},
        {"net.parse_request_us", medianOf(in.replay, "net.parse_request"),
         "us"},
        {"net.encode_response_us", medianOf(in.replay, "net.encode_response"),
         "us"},
        {"net.parse_response_us", medianOf(in.replay, "net.parse_response"),
         "us"},
        {"net.response_bytes", in.counts.responseBytes, "B"},
        {"net.wire_gap_us", serviceUs - inProcessUs, "us"},
        {"net.client_p99_ms", percentile(hiLat, 99), "ms"},
        {"net.client_p99_samples", static_cast<double>(hiLat.size()), "count"},
        {"net.slow_client_drops",
         static_cast<double>(in.counters.slowClientDrops), "count"},
        {"net.timeouts", static_cast<double>(in.counters.timeouts), "count"},
        {"net.protocol_errors", static_cast<double>(in.counters.protocolErrors),
         "count"},
        {"runtime.submit_to_future_us", in.submitToFutureUs, "us"},
        {"runtime.mean_batch", ratio(requests, dispatches), "count"},
        {"runtime.mean_linger_us", ratio(hi.lingerSeconds * 1e6, dispatches),
         "us"},
        {"runtime.mean_queue_depth",
         ratio(static_cast<double>(hi.queueDepthSum), dispatches), "count"},
        {"runtime.busy_fraction",
         ratio(hi.busySeconds, p.phases[kHi].seconds), "ratio"},
        {"runtime.rejected", static_cast<double>(in.engineTotal.rejected),
         "count"},
        {"runtime.expired", static_cast<double>(in.engineTotal.expired),
         "count"},
        {"runtime.session_step_us", in.sessionStepUs, "us"},
        {"runtime.session_rows_per_submit",
         ratio(static_cast<double>(hi.rows), requests), "count"},
        {"runtime.rss_peak_mb", peakRssMiB(), "MiB"},
        {"core.decompose_us", decomposeUs, "us"},
        {"core.gather_us", gatherUs, "us"},
        {"core.l1_hit_rate",
         ratio(static_cast<double>(sb.assigned),
               static_cast<double>(in.counts.nonzeroTiles)),
         "ratio"},
        {"core.l2_density", sb.l2Density(), "ratio"},
        {"core.bit_density", sb.bitDensity, "ratio"},
        {"core.speedup_over_bit", sb.speedupOverBit(), "x"},
        {"core.distinct_tile_share", in.distinctTileShare, "ratio"},
        {"numeric.spike_gemm_us", spikeGemmUs, "us"},
        {"numeric.dense_gemm_us",
         medianPerRoot(in.replay, "numeric.dense_gemm"), "us"},
        {"core.phi_vs_spikegemm", ratio(spikeGemmUs, decomposeUs + gatherUs),
         "x"},
        {"snn.lif_step_us", medianOf(in.replay, "snn.lif_step"), "us"},
        {"trace.overhead_pct",
         ratio(tracedServiceUs - serviceUs, serviceUs) * 100.0, "%"},
    };
}

// ---- one workload ------------------------------------------------------

/** Median µs of @p n calls of @p fn, each one request in flight. */
template <typename F>
double
medianCallUs(size_t n, F&& fn)
{
    std::vector<double> us;
    for (size_t i = 0; i < n; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn(i);
        us.push_back(msBetween(t0, Clock::now()) * 1e3);
    }
    return median(std::move(us));
}

int
runWorkload(const Options& opt, const Workload& w)
{
    const std::string artifact =
        "phi_bench_" + w.name + "_" + std::to_string(::getpid()) + ".phim";
    prepareArtifact(w, artifact); // forks: before any thread exists
    struct Remove
    {
        const std::string& path;
        ~Remove() { std::remove(path.c_str()); }
    } removeArtifact{artifact};

    const CompiledModel model = io::loadModel(artifact);
    Traffic traffic;
    makeTraffic(w, opt.seed, model, traffic);
    const PhasePlan plan = planPhases(opt.seconds);
    const bool tracing = !opt.traceDir.empty();

    std::cout << "phi_bench workload=" << w.name << " seed=" << opt.seed
              << " host=" << hostJson() << "\n";

    std::vector<BootTimes> boots(kBoots);
    std::unique_ptr<net::PhiServer> server;
    for (BootTimes& t : boots) {
        if (server)
            shutdownServer(*server);
        server.reset();
        server = boot(w, artifact, traffic.pool.front(), t);
    }
    std::vector<double> bootS;
    for (const BootTimes& t : boots)
        bootS.push_back(t.totalS);
    const double setupS = median(bootS);
    // The peak so far is the model, the booted server and the input
    // pool. Serving peaks swing with allocator retention of response
    // buffers (68-133 MiB on bulk_clustered), so they are reported only
    // as the per-layer runtime.rss_peak_mb.
    const double setupRssMiB = peakRssMiB();

    std::vector<uint64_t> sids;
    if (w.stateful)
        for (size_t i = 0; i < kSessions; ++i)
            sids.push_back(server->sessions().open(kModelName));
    SessionLog log;

    const Pass pass = runPass(w, plan, *server, traffic, sids, log, false);
    const std::string phasesJson = reportPhases(w, "untraced", pass);
    Pass traced;
    LayerInputs layers;
    if (tracing) {
        traced = runPass(w, plan, *server, traffic, sids, log, true);
        reportPhases(w, "traced", traced);

        // One request in flight through the live engine and sessions.
        const ModelHandle handle = *server->registry()->current(kModelName);
        layers.submitToFutureUs = medianCallUs(64, [&](size_t i) {
            server->engine().submit(handle, 0, traffic.input(i)).get();
        });
        SessionManager& mgr = server->sessions();
        const uint64_t sid = mgr.open(kModelName);
        layers.sessionStepUs = medianCallUs(64, [&](size_t i) {
            const BinaryMatrix& in = traffic.input(i);
            BinaryMatrix chunk(std::min<size_t>(8, in.rows()), in.cols());
            for (size_t t = 0; t < chunk.rows(); ++t)
                copyRow(in, t, chunk, t);
            mgr.step(sid, std::move(chunk)).get();
        });
        mgr.close(sid);

        SpanLog replay;
        if (w.stateful)
            replaySessions(model, traffic, 128, replay, layers.counts);
        else
            replayStateless(model, traffic, w.rows >= 256 ? 32 : 256,
                            replay, layers.counts);
        layers.replay = std::move(replay.spans);
        layers.distinctTileShare =
            distinctTileShare(traffic, model.layer(0).table().k());
        layers.pwpResidentBytes = model.pwpResidentBytes();
    }

    for (uint64_t sid : sids)
        server->sessions().close(sid);
    layers.counters = server->counters();
    layers.engineTotal = server->engine().stats();
    shutdownServer(*server);
    server.reset();

    const uint64_t mismatches = pass.mismatches + traced.mismatches +
                                layers.counts.mismatches +
                                log.verify(model, traffic);
    const uint64_t attempted = pass.attempted() + traced.attempted();
    const uint64_t failed = pass.failed() + traced.failed();
    const std::vector<Metric> e2e =
        endToEndMetrics(w, pass, setupS, setupRssMiB);
    printMetrics("end-to-end", e2e);
    std::cout << "  errors=" << failed << " attempted=" << attempted
              << " error_rate="
              << ratio(static_cast<double>(failed),
                       static_cast<double>(attempted))
              << " mismatches=" << mismatches
              << " reconnects=" << pass.reconnects + traced.reconnects << "\n";

    std::vector<Metric> perLayer;
    if (tracing) {
        layers.stateful = w.stateful;
        layers.boots = boots;
        layers.pass = &pass;
        layers.traced = &traced;
        perLayer = layerMetrics(layers);
        printMetrics("per-layer", perLayer);
        std::vector<Span> spans = traced.spans;
        const auto offset = static_cast<int64_t>(spans.size());
        for (Span s : layers.replay) {
            if (s.parent >= 0)
                s.parent += offset;
            spans.push_back(s);
        }
        printSpanTable(spans);
        std::filesystem::create_directories(opt.traceDir);
        const std::string path = opt.traceDir + "/" + w.name + ".trace.json";
        writeChromeTrace(path, spans);
        std::cout << "wrote " << path << " (" << spans.size() << " spans)\n";
    }

    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        out << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed
            << ", \"seconds\": " << jsonNumber(opt.seconds)
            << ", \"host\": " << hostJson() << ", \"phases\": " << phasesJson
            << ", \"correct\": " << (mismatches == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"mismatches\": " << mismatches
            << ", \"metrics\": " << metricsJson(e2e);
        if (tracing)
            out << ", \"layers\": " << metricsJson(perLayer);
        out << "}\n";
        if (!out)
            throw std::runtime_error("could not write " + opt.jsonPath);
    }

    std::cout << "{\"correct\": " << (mismatches == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(tracing ? perLayer : e2e)
              << "}" << std::endl;
    return mismatches == 0 ? 0 : 1;
}

/** Run every workload in a fresh child process of this binary. */
int
runAll(const Options& opt)
{
    int status = 0;
    std::vector<std::string> runs;
    for (const Workload& w : kWorkloads) {
        std::vector<std::string> args = {"phi_bench", "--workload", w.name,
                                         "--seed", std::to_string(opt.seed)};
        if (opt.seconds > 0)
            args.insert(args.end(), {"--seconds", jsonNumber(opt.seconds)});
        if (!opt.traceDir.empty())
            args.insert(args.end(), {"--trace", opt.traceDir});
        const std::string part =
            opt.jsonPath.empty() ? "" : opt.jsonPath + "." + w.name;
        if (!part.empty())
            args.insert(args.end(), {"--json", part});
        std::vector<char*> argv;
        for (std::string& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        std::cout.flush();
        const pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            ::execv("/proc/self/exe", argv.data());
            std::_Exit(127);
        }
        int child = 0;
        while (::waitpid(pid, &child, 0) < 0)
            if (errno != EINTR)
                throw std::runtime_error("waitpid failed");
        if (!WIFEXITED(child) || WEXITSTATUS(child) != 0) {
            std::cerr << "workload " << w.name << " failed\n";
            status = 1;
        }
        if (!part.empty()) {
            std::ifstream in(part);
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            std::remove(part.c_str());
            while (!text.empty() && std::isspace(static_cast<unsigned char>(
                                        text.back())))
                text.pop_back();
            if (!text.empty())
                runs.push_back(text);
        }
    }
    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        out << "{\"runs\": [\n";
        for (size_t i = 0; i < runs.size(); ++i)
            out << (i ? ",\n" : "") << runs[i];
        out << "\n]}\n";
    }
    return status;
}

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << why
              << "\nusage: phi_bench [--workload NAME] [--seed S] "
                 "[--seconds T] [--trace DIR] [--json OUT]\nworkloads:";
    for (const Workload& w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.traceDir = value;
            else if (arg == "--json")
                opt.jsonPath = value;
            else
                usage("unknown argument: " + arg);
        } catch (const std::logic_error&) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (opt.seconds < 0)
        usage("--seconds must be positive");
    if (!opt.jsonPath.empty())
        phi::bench::requireReleaseForJson(opt.jsonPath);
    try {
        if (opt.workload.empty())
            return runAll(opt);
        for (const Workload& w : kWorkloads)
            if (w.name == opt.workload)
                return runWorkload(opt, w);
        usage("unknown workload: " + opt.workload);
    } catch (const std::exception& e) {
        std::cerr << "phi_bench: " << e.what() << "\n";
        return 1;
    }
}
