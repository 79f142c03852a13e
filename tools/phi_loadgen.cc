/**
 * @file
 * phi_loadgen: a closed+paced load generator for PhiServer.
 *
 * Usage:
 *   phi_loadgen --port P [--host H] [--conns N] [--rps R]
 *               [--seconds S] [--model NAME] [--k COLS] [--rows M]
 *               [--layer L] [--deadline-ms D] [--json]
 *               [--sessions N] [--steps T]
 *
 * --sessions N switches to stateful-session mode: N connections each
 * open one session and stream StepSession frames (T timesteps per
 * call, --steps) instead of stateless requests. A transport failure
 * reconnects and keeps stepping the *same* session — session ids are
 * server-scoped — so chaos runs exercise stream continuity.
 *
 * Opens N connections, each pacing requests so the aggregate offered
 * load is R requests/second (R=0 = unpaced, submit as fast as replies
 * return), for S seconds. Reports achieved rps, p50/p99/max latency
 * (per-worker LatencyHistograms merged: percentiles exact to within
 * one bucket, max exact), and a histogram of every typed error seen —
 * one line per WireErrorCode/EngineErrorCode name — so a chaos run can
 * assert "typed errors only". --json emits the same numbers as one
 * JSON object on stdout (the capacity bench and CI smoke parse this).
 *
 * Exit code: 0 when every request resolved (served or typed error),
 * 1 when the run aborted on an untyped/transport failure.
 */

#include <phi/phi.hh>

#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"

using namespace phi;

namespace
{

struct WorkerResult
{
    uint64_t sent = 0;
    uint64_t served = 0;
    std::map<std::string, uint64_t> errors; // typed errors by name
    LatencyHistogram latency; // served requests
    bool transportDied = false;
    std::string transportWhat;
};

BinaryMatrix
randomActs(size_t rows, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    BinaryMatrix acts(rows, cols);
    // ~10% density, the regime the paper's SNN traffic lives in.
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (rng.uniformInt(0, 9) == 0)
                acts.set(r, c, true);
    return acts;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    size_t conns = 4;
    double rps = 0; // aggregate; 0 = unpaced
    double seconds = 2.0;
    std::string model = "vision";
    size_t k = 256;
    size_t rows = 32;
    uint32_t layer = 0;
    uint32_t deadlineMs = 0;
    bool json = false;
    size_t sessions = 0; // >0 switches to stateful-session mode
    size_t steps = 4;    // timesteps per StepSession call

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--host") host = next();
        else if (arg == "--port")
            port = static_cast<uint16_t>(std::stoi(next()));
        else if (arg == "--conns") conns = std::stoul(next());
        else if (arg == "--rps") rps = std::stod(next());
        else if (arg == "--seconds") seconds = std::stod(next());
        else if (arg == "--model") model = next();
        else if (arg == "--k") k = std::stoul(next());
        else if (arg == "--rows") rows = std::stoul(next());
        else if (arg == "--layer")
            layer = static_cast<uint32_t>(std::stoul(next()));
        else if (arg == "--deadline-ms")
            deadlineMs = static_cast<uint32_t>(std::stoul(next()));
        else if (arg == "--json") json = true;
        else if (arg == "--sessions") sessions = std::stoul(next());
        else if (arg == "--steps") steps = std::stoul(next());
        else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }
    if (port == 0) {
        std::cerr << "--port is required\n";
        return 2;
    }
    const bool sessionMode = sessions > 0;
    if (sessionMode)
        conns = sessions; // one session per connection

    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() +
        std::chrono::microseconds(
            static_cast<int64_t>(seconds * 1'000'000));
    const double perConnRps = rps > 0 ? rps / conns : 0;

    std::vector<WorkerResult> results(conns);
    std::vector<std::thread> workers;
    const auto startedAt = Clock::now();
    for (size_t w = 0; w < conns; ++w) {
        workers.emplace_back([&, w] {
            WorkerResult& out = results[w];
            try {
                net::PhiClient client(host, port, 30'000);
                uint64_t sid = 0;
                if (sessionMode)
                    sid = client.openSession(model).sessionId;
                const BinaryMatrix acts = randomActs(
                    sessionMode ? steps : rows, k, 1000 + w);
                auto nextSendAt = Clock::now();
                while (Clock::now() < deadline) {
                    if (perConnRps > 0) {
                        std::this_thread::sleep_until(nextSendAt);
                        nextSendAt += std::chrono::microseconds(
                            static_cast<int64_t>(1e6 / perConnRps));
                        if (Clock::now() >= deadline)
                            break;
                    }
                    const auto t0 = Clock::now();
                    ++out.sent;
                    try {
                        if (sessionMode) {
                            client.stepSession(sid, acts);
                        } else {
                            net::WireRequest req;
                            req.model = model;
                            req.layer = layer;
                            req.deadlineMs = deadlineMs;
                            req.acts = acts;
                            client.request(req);
                        }
                        ++out.served;
                        out.latency.record(
                            std::chrono::duration<double>(Clock::now() -
                                                          t0)
                                .count());
                    } catch (const EngineError& e) {
                        ++out.errors[e.codeName()];
                    } catch (const io::IoError&) {
                        ++out.errors["IoFailure"];
                    } catch (const net::NetError& e) {
                        ++out.errors[e.codeName()];
                        // The connection is unusable after a
                        // transport-level failure; reconnect and keep
                        // offering load (chaos runs sever us on
                        // purpose). In session mode the same session
                        // id keeps serving — ids are server-scoped.
                        client = net::PhiClient(host, port, 30'000);
                    }
                }
                if (sessionMode) {
                    try {
                        client.closeSession(sid);
                    } catch (const std::exception&) {
                        // Best effort: the drain gate or an idle-TTL
                        // eviction may have beaten us to it.
                    }
                }
            } catch (const std::exception& e) {
                out.transportDied = true;
                out.transportWhat = e.what();
            }
        });
    }
    for (auto& t : workers)
        t.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - startedAt)
            .count();

    uint64_t sent = 0, served = 0;
    std::map<std::string, uint64_t> errors;
    LatencyHistogram latency;
    bool died = false;
    std::string diedWhat;
    for (const WorkerResult& r : results) {
        sent += r.sent;
        served += r.served;
        for (const auto& [name, n] : r.errors)
            errors[name] += n;
        latency.merge(r.latency);
        if (r.transportDied && !died) {
            died = true;
            diedWhat = r.transportWhat;
        }
    }

    const double achievedRps =
        elapsed > 0 ? static_cast<double>(served) / elapsed : 0;

    if (json) {
        std::ostringstream os;
        os << "{\"conns\": " << conns << ", \"sessions\": " << sessions
           << ", \"steps_per_call\": " << (sessionMode ? steps : 0)
           << ", \"offered_rps\": " << rps
           << ", \"seconds\": " << elapsed << ", \"sent\": " << sent
           << ", \"served\": " << served
           << ", \"achieved_rps\": " << achievedRps
           << ", \"p50_ms\": " << latency.percentileMs(50)
           << ", \"p99_ms\": " << latency.percentileMs(99)
           << ", \"max_ms\": " << latency.percentileMs(100)
           << ", \"errors\": {";
        bool first = true;
        for (const auto& [name, n] : errors) {
            os << (first ? "" : ", ") << "\"" << name << "\": " << n;
            first = false;
        }
        os << "}, \"aborted\": " << (died ? "true" : "false") << "}";
        std::cout << os.str() << "\n";
    } else {
        std::cout << "conns=" << conns << " sent=" << sent
                  << " served=" << served << " achieved_rps="
                  << achievedRps << " p50_ms=" << latency.percentileMs(50)
                  << " p99_ms=" << latency.percentileMs(99) << "\n";
        for (const auto& [name, n] : errors)
            std::cout << "error " << name << " " << n << "\n";
        if (died)
            std::cout << "aborted: " << diedWhat << "\n";
    }
    return died ? 1 : 0;
}
