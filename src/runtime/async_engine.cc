#include "runtime/async_engine.hh"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.hh"
#include "common/logging.hh"

namespace phi
{

namespace
{

std::exception_ptr
makeError(EngineError::Code code, const std::string& what)
{
    return std::make_exception_ptr(EngineError(code, what));
}

} // namespace

AsyncPhiEngine::AsyncPhiEngine(std::shared_ptr<ModelRegistry> registry,
                               ExecutionConfig exec,
                               AsyncEngineConfig config)
    : engine(std::move(registry), exec), asyncConfig(config)
{
    if (asyncConfig.maxBatch < 1)
        asyncConfig.maxBatch = 1;
    if (asyncConfig.maxQueueDepth < 1)
        asyncConfig.maxQueueDepth = 1;
    MutexLock join(joinMutex);
    dispatcher = std::thread([this] { superviseDispatch(); });
}

AsyncPhiEngine::~AsyncPhiEngine()
{
    shutdown();
}

std::future<EngineResponse>
AsyncPhiEngine::submit(const ModelHandle& handle, size_t layer,
                       BinaryMatrix acts, SubmitOptions opts)
{
    // Pin on the submitting thread, against the epoch that is current
    // right now: a swap() landing after this point cannot move the
    // request off the version it was validated against.
    ModelRegistry::Pinned pin;
    try {
        pin = engine.registry()->pin(handle);
    } catch (...) {
        std::promise<EngineResponse> promise;
        std::future<EngineResponse> future = promise.get_future();
        promise.set_exception(std::current_exception());
        return future;
    }
    return submitPinned(std::move(pin), layer, std::move(acts), opts);
}

std::future<EngineResponse>
AsyncPhiEngine::submitPinned(ModelRegistry::Pinned pin, size_t layer,
                             BinaryMatrix acts, SubmitOptions opts)
{
    phi_assert(pin.model != nullptr, "submitPinned() needs a pinned model");
    std::promise<EngineResponse> promise;
    std::future<EngineResponse> future = promise.get_future();

    // Validate on the submitting thread: a malformed request resolves
    // its own future right here and can never poison a batch or abort
    // the process.
    try {
        PhiEngine::validate(*pin, layer, acts);
    } catch (...) {
        promise.set_exception(std::current_exception());
        return future;
    }

    UniqueLock lock(mutex);
    if (!accepting) {
        promise.set_exception(makeError(EngineError::Code::Stopped,
                                        "submit() on a stopped engine"));
        return future;
    }
    // A request born expired never takes a queue slot: fail it here,
    // with the same code and accounting the dispatcher would use.
    if (opts.deadline) {
        const auto now = Clock::now();
        if (*opts.deadline <= now) {
            resilienceStats.recordDeadlineMiss(
                std::chrono::duration<double>(now - *opts.deadline)
                    .count());
            lock.unlock();
            promise.set_exception(makeError(
                EngineError::Code::DeadlineExceeded,
                "deadline already passed at submit()"));
            return future;
        }
    }
    if (pendingQueue.size() >= asyncConfig.maxQueueDepth) {
        // Saturated. Before Block/Reject kicks in, priority gets a
        // say: an incoming request that outranks the lowest-priority
        // queued one takes its slot, and the victim's future resolves
        // with QueueFull. Among equal-priority victims the newest is
        // shed — it has the least queue wait invested. All-default
        // priorities never shed, so this path is invisible to callers
        // of the plain submit().
        auto victim = pendingQueue.end();
        for (auto it = pendingQueue.begin(); it != pendingQueue.end();
             ++it)
            if (victim == pendingQueue.end() ||
                it->opts.priority <= victim->opts.priority)
                victim = it;
        if (victim != pendingQueue.end() &&
            victim->opts.priority < opts.priority) {
            Pending shedReq = std::move(*victim);
            pendingQueue.erase(victim);
            resilienceStats.shed += 1;
            pendingQueue.push_back({std::move(pin), layer,
                                    std::move(acts), std::move(promise),
                                    Clock::now(), opts});
            lock.unlock();
            shedReq.promise.set_exception(makeError(
                EngineError::Code::QueueFull,
                "shed from a saturated queue to admit a "
                "higher-priority request"));
            workAvailable.notify_one();
            return future;
        }
        if (asyncConfig.backpressure ==
            AsyncEngineConfig::Backpressure::Reject) {
            ++rejectedCount;
            promise.set_exception(
                makeError(EngineError::Code::QueueFull,
                          "queue at maxQueueDepth under Reject policy"));
            return future;
        }
        while (pendingQueue.size() >= asyncConfig.maxQueueDepth &&
               accepting)
            spaceAvailable.wait(lock);
        if (!accepting) {
            promise.set_exception(
                makeError(EngineError::Code::Stopped,
                          "engine stopped while waiting for queue "
                          "space"));
            return future;
        }
    }
    pendingQueue.push_back({std::move(pin), layer, std::move(acts),
                            std::move(promise), Clock::now(), opts});
    lock.unlock();
    workAvailable.notify_one();
    return future;
}

void
AsyncPhiEngine::superviseDispatch()
{
    // The watchdog: dispatchLoop() returning means a clean stop;
    // anything escaping it means the dispatcher died mid-flight. The
    // blast radius of a crash is confined to the batch that was in
    // flight — its futures resolve with a typed error — and the loop
    // restarts to serve everything still queued.
    for (;;) {
        try {
            dispatchLoop();
            return;
        } catch (...) {
            recoverDispatcher(std::current_exception());
        }
    }
}

void
AsyncPhiEngine::recoverDispatcher(std::exception_ptr cause)
{
    // Name the killer in the error the in-flight futures see, so a
    // client log line is enough to know what happened.
    std::string what = "dispatcher died on an escaped exception";
    try {
        if (cause)
            std::rethrow_exception(cause);
    } catch (const std::exception& e) {
        what += std::string(" (") + e.what() + ")";
    } catch (...) {
        what += " (non-std exception)";
    }
    const std::exception_ptr error = makeError(
        EngineError::Code::Internal,
        what + "; the watchdog restarted the dispatcher, requests "
               "still queued are unaffected and a retry is safe");

    // Fail the batch that was in flight. set_exception can only
    // rebuff us for promises the loop already resolved before dying —
    // exactly the ones that must not be touched twice.
    for (Pending& p : inFlightBatch) {
        try {
            p.promise.set_exception(error);
        } catch (const std::future_error&) {
        }
    }
    batchRequests.clear();
    inFlightBatch.clear();

    watchdogRestarts.fetch_add(1, std::memory_order_relaxed);
    {
        MutexLock lock(mutex);
        inFlight = 0;
    }
    // Both a blocked drain() (queue may now be empty) and blocked
    // submitters get to re-check the world.
    idle.notify_all();
    spaceAvailable.notify_all();
}

void
AsyncPhiEngine::dispatchLoop()
{
    for (;;) {
        UniqueLock lock(mutex);
        while (pendingQueue.empty() && !stopping && statsDrops.empty())
            workAvailable.wait(lock);
        // Prune per-model counters retired by dropStatsFor(): the
        // inner engine is dispatcher-owned, so the erase happens here.
        for (const std::string& name : statsDrops)
            engine.dropStatsFor(name);
        statsDrops.clear();
        if (pendingQueue.empty()) {
            if (stopping)
                break; // everything queued has been served
            continue;  // woken only to prune stats
        }

        // Micro-batch coalescing: linger after the batch's first
        // request so closely-spaced submits share one batch. The
        // deadline is anchored at that request's submit time, so a
        // request that already queued behind a long batch is not made
        // to wait again. Skipped when the batch is already full or the
        // engine is stopping.
        const auto readyAt = Clock::now();
        const auto lingerUntil =
            pendingQueue.front().enqueuedAt +
            std::chrono::microseconds(asyncConfig.maxLingerMicros);
        while (!stopping && pendingQueue.size() < asyncConfig.maxBatch &&
               Clock::now() < lingerUntil)
            workAvailable.wait_until(lock, lingerUntil);

        // Last moment before compute: drop every queued request whose
        // deadline has passed. Serving it anyway would spend batch
        // capacity on an answer nobody is waiting for — and under
        // saturation that waste compounds into unbounded queue-wait
        // for everyone behind it.
        const auto now = Clock::now();
        std::vector<Pending> expiredBatch;
        for (auto it = pendingQueue.begin();
             it != pendingQueue.end();) {
            if (it->opts.deadline && *it->opts.deadline <= now) {
                resilienceStats.recordDeadlineMiss(
                    std::chrono::duration<double>(now -
                                                  *it->opts.deadline)
                        .count());
                expiredBatch.push_back(std::move(*it));
                it = pendingQueue.erase(it);
            } else {
                ++it;
            }
        }

        const size_t depthAtDispatch = pendingQueue.size();
        const size_t take =
            std::min(depthAtDispatch, asyncConfig.maxBatch);
        inFlightBatch.reserve(take);
        for (size_t i = 0; i < take; ++i) {
            inFlightBatch.push_back(std::move(pendingQueue.front()));
            pendingQueue.pop_front();
        }
        inFlight = inFlightBatch.size() + expiredBatch.size();
        // Coalescing cost actually added by the dispatcher: time from
        // "could have dispatched" to "did". Queue wait behind earlier
        // batches shows up in request latency, not here.
        const double lingerSec =
            std::chrono::duration<double>(Clock::now() - readyAt)
                .count();
        lock.unlock();
        spaceAvailable.notify_all();

        for (Pending& p : expiredBatch)
            p.promise.set_exception(makeError(
                EngineError::Code::DeadlineExceeded,
                "deadline passed while queued; dropped before "
                "compute"));
        expiredBatch.clear();

        PHI_FAILPOINT(failpoint::sites::kDispatcherLoop,
                      throw std::runtime_error(
                          "injected dispatcher crash (failpoint "
                          "'dispatcher.loop')"));

        // Serve the batch on the inner engine (this thread is its only
        // caller), each request on the epoch its submit() pinned.
        // Every promise gets exactly one of: its response, or the
        // batch's exception — never a broken promise.
        std::vector<EngineResponse> responses;
        std::exception_ptr batchError;
        try {
            for (const Pending& p : inFlightBatch)
                batchRequests.push_back({p.pin, p.layer, &p.acts});
            responses = engine.serve(batchRequests);
        } catch (const EngineError&) {
            batchError = std::current_exception();
        } catch (const std::exception& e) {
            // Anything else escaping the compute path (a worker-thread
            // exception rethrown by the pool, bad_alloc, an injected
            // fault) still reaches the futures as a *typed* error:
            // clients are promised a value or an EngineError, never a
            // grab bag of internal exception types.
            batchError = makeError(
                EngineError::Code::Internal,
                std::string("batch failed: ") + e.what());
        } catch (...) {
            batchError =
                makeError(EngineError::Code::Internal,
                          "batch failed on a non-std exception");
        }

        // Publish stats before resolving the promises, so a caller who
        // saw its future complete also sees its request in stats().
        // The snapshots are assembled outside the lock and swapped in,
        // keeping the critical section small. Only the models this
        // batch touched are re-copied — the publish cost scales with
        // batch diversity, not with the size of the resident fleet.
        if (!inFlightBatch.empty())
            frontendStats.recordDispatch(depthAtDispatch, lingerSec);
        ServingStats snapshot = engine.stats();
        snapshot.dispatches = frontendStats.dispatches;
        snapshot.queueDepthSum = frontendStats.queueDepthSum;
        snapshot.maxQueueDepth = frontendStats.maxQueueDepth;
        snapshot.lingerSeconds = frontendStats.lingerSeconds;
        std::vector<std::pair<std::string, ServingStats>> touched;
        for (const Pending& p : inFlightBatch) {
            const std::string& name = p.pin.handle.name;
            bool seen = false;
            for (const auto& [n, s] : touched)
                seen = seen || n == name;
            if (!seen)
                touched.emplace_back(name, engine.statsFor(name));
        }
        {
            // `mutex` is not held here (unlocked above, before
            // compute): the mutex/statsMutex exclusion the EXCLUDES
            // contracts pin down.
            MutexLock statsLock(statsMutex);
            publishedStats = std::move(snapshot);
            for (auto& [name, stats] : touched)
                publishedModelStats[name] = std::move(stats);
        }

        if (batchError)
            for (Pending& p : inFlightBatch)
                p.promise.set_exception(batchError);
        else
            for (size_t i = 0; i < inFlightBatch.size(); ++i)
                inFlightBatch[i].promise.set_value(
                    std::move(responses[i]));

        // Release the batch — and with it the model-epoch pins — on
        // the dispatcher thread, *before* clearing inFlight: drain()
        // returning (or unload() succeeding) must mean the old epoch
        // really is free.
        batchRequests.clear();
        inFlightBatch.clear();

        lock.lock();
        inFlight = 0;
        if (pendingQueue.empty())
            idle.notify_all();
    }
}

void
AsyncPhiEngine::drain()
{
    UniqueLock lock(mutex);
    while (!(pendingQueue.empty() && inFlight == 0))
        idle.wait(lock);
}

void
AsyncPhiEngine::shutdown()
{
    {
        MutexLock lock(mutex);
        accepting = false;
        stopping = true;
    }
    workAvailable.notify_all();
    spaceAvailable.notify_all();
    {
        MutexLock lock(joinMutex);
        if (dispatcher.joinable())
            dispatcher.join();
    }
}

size_t
AsyncPhiEngine::queueDepth() const
{
    MutexLock lock(mutex);
    return pendingQueue.size();
}

ServingStats
AsyncPhiEngine::stats() const
{
    ServingStats snapshot;
    {
        MutexLock lock(statsMutex);
        snapshot = publishedStats;
    }
    {
        MutexLock lock(mutex);
        snapshot.rejected = rejectedCount;
        snapshot.expired = resilienceStats.expired;
        snapshot.shed = resilienceStats.shed;
        snapshot.deadlineMiss = resilienceStats.deadlineMiss;
    }
    snapshot.watchdogRestarts =
        watchdogRestarts.load(std::memory_order_relaxed);
    return snapshot;
}

ServingStats
AsyncPhiEngine::statsFor(const std::string& name) const
{
    MutexLock lock(statsMutex);
    auto it = publishedModelStats.find(name);
    return it == publishedModelStats.end() ? ServingStats{}
                                           : it->second;
}

std::map<std::string, ServingStats>
AsyncPhiEngine::perModelStats() const
{
    MutexLock lock(statsMutex);
    return publishedModelStats;
}

void
AsyncPhiEngine::dropStatsFor(const std::string& name)
{
    // The published snapshot drops immediately; the inner engine's
    // copy is dispatcher-owned, so its erase is queued for the
    // dispatcher's next wake-up (forced right here).
    {
        MutexLock lock(statsMutex);
        publishedModelStats.erase(name);
    }
    {
        MutexLock lock(mutex);
        statsDrops.push_back(name);
    }
    workAvailable.notify_one();
}

} // namespace phi
