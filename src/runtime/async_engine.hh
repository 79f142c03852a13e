/**
 * @file
 * The concurrent serving frontend: an AsyncPhiEngine wraps the
 * synchronous PhiEngine behind a futures-based submit() API so any
 * number of producer threads can stream requests at the models of one
 * ModelRegistry.
 *
 * A single background dispatcher thread owns the inner PhiEngine.
 * Requests land in a bounded queue; the dispatcher pops up to
 * maxBatch of them — lingering up to maxLingerMicros after the first
 * arrival so sparse traffic still coalesces into efficient batches —
 * and serves them as one PhiEngine::serve() batch on the shared
 * thread pool.
 * Because every kernel underneath is bit-deterministic, a request's
 * response is identical to serving it synchronously, no matter how
 * the dispatcher happened to batch it or how many producers raced.
 *
 * Routing is handle-based and hot-swap-safe: submit() pins the
 * current version of the request's model on the submitting thread
 * (ModelRegistry::pin), so a swap() racing the queue cannot tear a
 * request — it serves the epoch it was submitted against, the
 * response reports that exact {name, version}, and requests
 * submitted after the swap serve the new one.
 *
 * Failure semantics are strictly per-request: an invalid request
 * (wrong layer, mismatched K, an unloaded model — anything
 * PhiEngine::validate or ModelRegistry::pin rejects) resolves its own
 * future with an EngineError and never reaches the batch, aborts the
 * process, or affects neighbouring requests. The only fates a
 * submitted future can have are a value or an EngineError/exception —
 * never a broken promise.
 *
 * Backpressure is explicit: when the queue holds maxQueueDepth
 * requests, submit() either blocks until space frees (Block, the
 * default) or resolves the future immediately with
 * EngineError(QueueFull) (Reject), counting the rejection in the
 * stats. drain() parks the caller until everything already submitted
 * has been served; shutdown() (and the destructor) additionally stop
 * intake, serve what is queued, and join the dispatcher.
 *
 * Time-aware admission rides on top of that via SubmitOptions:
 *
 * - Deadlines: a request carrying a deadline that has already passed
 *   when the dispatcher would start computing it is dropped before
 *   compute — its future resolves with EngineError(DeadlineExceeded)
 *   and the lateness lands in ServingStats' expired counter and
 *   deadline-miss histogram. Serving a result after its consumer
 *   stopped waiting is pure waste; shedding it is the win.
 * - Priorities: when the queue is saturated, an incoming request with
 *   strictly higher priority evicts the lowest-priority queued one
 *   (its future resolves with EngineError(QueueFull), counted in
 *   `shed`) instead of blocking behind or being rejected below less
 *   important traffic. Equal priorities keep the configured
 *   Block/Reject behaviour, so the default (all priority 0) is
 *   exactly the old semantics.
 *
 * The dispatcher itself is supervised: if the loop ever dies on an
 * escaped exception (a bug, an injected failpoint, bad_alloc), the
 * watchdog wrapper fails every in-flight future with
 * EngineError(Internal), restores the queue invariants, bumps
 * ServingStats::watchdogRestarts, and restarts the loop — a crashed
 * batch costs its own requests an error response, never a hung
 * process or a broken promise.
 */

#ifndef PHI_RUNTIME_ASYNC_ENGINE_HH
#define PHI_RUNTIME_ASYNC_ENGINE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "common/sync.hh"
#include "runtime/engine.hh"

namespace phi
{

/** Knobs of the async frontend (the inner compute engine keeps its
 *  own ExecutionConfig). */
struct AsyncEngineConfig
{
    /** Most requests coalesced into one dispatched batch. */
    size_t maxBatch = 32;

    /**
     * Longest the dispatcher waits after a batch's first request for
     * more to coalesce, microseconds. 0 = dispatch immediately
     * (latency-optimal, batch-poor).
     */
    uint64_t maxLingerMicros = 200;

    /** Bound on queued-but-undispatched requests. */
    size_t maxQueueDepth = 1024;

    /** What submit() does when the queue is at maxQueueDepth. */
    enum class Backpressure
    {
        Block,  // wait for space (lossless producers)
        Reject, // resolve the future with EngineError(QueueFull) now
    };
    Backpressure backpressure = Backpressure::Block;
};

/**
 * Per-request admission knobs for AsyncPhiEngine::submit(). The
 * default (no deadline, priority 0) reproduces the plain submit()
 * semantics exactly.
 */
struct SubmitOptions
{
    /**
     * Absolute steady-clock instant after which the result is
     * worthless. A request whose deadline has passed before the
     * dispatcher starts computing it resolves with
     * EngineError(DeadlineExceeded) instead of being served; one that
     * started in time is always completed. No deadline = serve
     * whenever.
     */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /**
     * Higher wins. Only consulted when the queue is saturated: an
     * incoming request with strictly higher priority sheds the
     * lowest-priority queued request rather than blocking behind it
     * (Block) or being rejected below it (Reject).
     */
    int32_t priority = 0;
};

/**
 * Thread-safe, futures-based serving frontend over one PhiEngine.
 * All public methods may be called from any thread.
 */
class AsyncPhiEngine
{
  public:
    /**
     * Serves whatever models are (or become) resident in
     * @p registry, which stays shared — load, swap and unload models
     * from any thread while this engine serves.
     * @throws EngineError (EmptyModel) on a null registry.
     */
    explicit AsyncPhiEngine(std::shared_ptr<ModelRegistry> registry,
                            ExecutionConfig exec = {},
                            AsyncEngineConfig config = {});

    /** Stops intake, serves the queued remainder, joins the
     *  dispatcher. Never leaves a broken promise behind. */
    ~AsyncPhiEngine();

    AsyncPhiEngine(const AsyncPhiEngine&) = delete;
    AsyncPhiEngine& operator=(const AsyncPhiEngine&) = delete;

    /**
     * Submit one request against the current version of @p handle's
     * model (pinned here, on the submitting thread — see the
     * hot-swap contract above). Always returns a valid future, which
     * resolves with the response, or with an EngineError when the
     * request is invalid (validated here, before it can touch a
     * batch), rejected by backpressure, or the engine has stopped.
     * Under the Block policy this call may wait for queue space.
     */
    std::future<EngineResponse> submit(const ModelHandle& handle,
                                       size_t layer, BinaryMatrix acts,
                                       SubmitOptions opts = {})
        EXCLUDES(mutex);

    /**
     * submit() against an epoch the caller already pinned. Where
     * submit() pins the handle's *current* version, this serves
     * exactly @p pin's model — the contract stateful sessions need: a
     * stream pinned at open keeps serving its epoch even when the
     * registry hot-swaps the name mid-stream. Validation and every
     * other submit() semantic (backpressure, deadlines, priorities)
     * are identical. @p pin must hold a model (asserted).
     */
    std::future<EngineResponse> submitPinned(ModelRegistry::Pinned pin,
                                             size_t layer,
                                             BinaryMatrix acts,
                                             SubmitOptions opts = {})
        EXCLUDES(mutex);

    /**
     * Block until every request submitted before this call has been
     * served. Intake stays open; requests racing in from other
     * threads during the drain may or may not be covered.
     */
    void drain() EXCLUDES(mutex);

    /**
     * Stop accepting new work, serve everything queued, and join the
     * dispatcher. Idempotent. Blocked submitters and later submit()
     * calls resolve their futures with EngineError(Stopped).
     */
    void shutdown() EXCLUDES(mutex, joinMutex);

    /** Requests queued but not yet dispatched (instantaneous). */
    size_t queueDepth() const EXCLUDES(mutex);

    /** The registry requests route through — load/swap/unload through
     *  this from any thread, concurrently with serving. */
    const std::shared_ptr<ModelRegistry>& registry() const
    {
        return engine.registry();
    }

    const AsyncEngineConfig& config() const { return asyncConfig; }

    /**
     * Snapshot of the merged serving counters: the inner engine's
     * batch counters plus the frontend's queue-depth / linger /
     * rejected accounting. Safe to call concurrently with serving;
     * throughput uses the monotonic serving window, so overlapping
     * observation never double-counts time.
     */
    ServingStats stats() const EXCLUDES(mutex, statsMutex);

    /** Snapshot of one model's counters (zeroed when the name never
     *  served); same concurrency guarantees as stats(). */
    ServingStats statsFor(const std::string& name) const
        EXCLUDES(statsMutex);

    /** Snapshot of every served model's counters, keyed by name. */
    std::map<std::string, ServingStats> perModelStats() const
        EXCLUDES(statsMutex);

    /**
     * Forget one model's per-model counters (merged stats untouched).
     * Call after unloading an ephemeral model so a long-running
     * process cycling many names does not accrete one fixed-size stats
     * block (cumulative since construction, latency percentiles exact
     * to within one histogram bucket) per retired name. Thread-safe:
     * the published snapshot drops immediately; the dispatcher prunes
     * its own copy on its next wake-up.
     */
    void dropStatsFor(const std::string& name)
        EXCLUDES(mutex, statsMutex);

  private:
    using Clock = std::chrono::steady_clock;

    /** One queued request: owns its activations — and its model-epoch
     *  pin — until served. */
    struct Pending
    {
        ModelRegistry::Pinned pin;
        size_t layer = 0;
        BinaryMatrix acts;
        std::promise<EngineResponse> promise;
        Clock::time_point enqueuedAt;
        SubmitOptions opts;
    };

    void dispatchLoop() EXCLUDES(mutex, statsMutex);

    /**
     * The watchdog: the dispatcher thread's real entry point. Runs
     * dispatchLoop() and, should it ever exit on an escaped
     * exception, fails the in-flight batch's futures with
     * EngineError(Internal), restores the queue/engine invariants,
     * counts the restart, and relaunches the loop.
     */
    void superviseDispatch() EXCLUDES(mutex, statsMutex);

    /** Post-crash cleanup: everything superviseDispatch() does
     *  between catching the escape and re-entering the loop. */
    void recoverDispatcher(std::exception_ptr cause) EXCLUDES(mutex);

    PhiEngine engine; // touched only by the dispatcher thread
    AsyncEngineConfig asyncConfig;

    /**
     * Lock hierarchy (compiler-enforced; see README "Static analysis
     * & concurrency contracts"):
     *
     *   mutex       queue + intake state; held for short, compute-free
     *               sections only.
     *   statsMutex  published snapshots; never held together with
     *               `mutex` — every path that needs both (stats(),
     *               dropStatsFor(), the dispatcher's publish step)
     *               takes them strictly one after the other, and the
     *               EXCLUDES clauses above make a future nesting of
     *               one inside the other a compile error under clang.
     *   joinMutex   dispatcher handle only; leaf, never held together
     *               with the other two.
     */
    mutable Mutex mutex;
    CondVar spaceAvailable; // queue below capacity
    CondVar workAvailable;  // queue non-empty / stop
    CondVar idle;           // queue empty and nothing in flight
    std::deque<Pending> pendingQueue GUARDED_BY(mutex);
    /** Names for the dispatcher to prune. */
    std::vector<std::string> statsDrops GUARDED_BY(mutex);
    bool accepting GUARDED_BY(mutex) = true;
    bool stopping GUARDED_BY(mutex) = false;
    /** Requests popped but not yet resolved. */
    size_t inFlight GUARDED_BY(mutex) = 0;
    uint64_t rejectedCount GUARDED_BY(mutex) = 0;

    /** Deadline/shedding accounting (expired, shed, miss histogram):
     *  both the submitting threads (submit-time expiry, shedding) and
     *  the dispatcher (dispatch-time expiry) write it, and stats()
     *  folds it into every snapshot. */
    ServingStats resilienceStats GUARDED_BY(mutex);

    /** Dispatcher restarts performed by the watchdog. */
    std::atomic<uint64_t> watchdogRestarts{0};

    /**
     * Dispatcher-thread state (no lock — single-thread ownership,
     * documented rather than locked: superviseDispatch(),
     * dispatchLoop() and recoverDispatcher() all run on that one
     * thread). As members rather than loop locals so the watchdog can
     * fail the in-flight batch after a crash, and so the frontend
     * counters survive a restart instead of resetting to zero.
     * batchRequests is inFlightBatch as the span PhiEngine::serve()
     * takes, borrowing its activations; kept as a member so its
     * capacity is reused across batches.
     */
    std::vector<Pending> inFlightBatch;
    std::vector<EngineRequest> batchRequests;
    ServingStats frontendStats;

    /** Guards the published stats snapshots (refreshed per batch). */
    mutable Mutex statsMutex;
    ServingStats publishedStats GUARDED_BY(statsMutex);
    std::map<std::string, ServingStats>
        publishedModelStats GUARDED_BY(statsMutex);

    /** Serialises the dispatcher launch/join across concurrent
     *  shutdowns. */
    Mutex joinMutex;
    std::thread dispatcher GUARDED_BY(joinMutex);
};

} // namespace phi

#endif // PHI_RUNTIME_ASYNC_ENGINE_HH
