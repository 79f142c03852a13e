/**
 * @file
 * Stateful temporal serving: a SessionManager gives each client a
 * *session* — a pinned model epoch plus live per-layer LIF neuron
 * state — and advances a full multi-layer temporal forward for every
 * spike frame the client streams at it.
 *
 * This is the serving shape spiking networks actually need. The
 * request/response engine underneath is stateless: each submit is one
 * layer of one matrix, and time does not exist. An SNN, by contrast,
 * is defined by state that persists *across* timesteps — membrane
 * potentials integrating leaky history, refractory counters holding
 * neurons silent — so serving it means keeping that state alive on
 * the server between a client's frames:
 *
 *     frame t ->  [layer 0 kernel] -> LIF 0 -> spikes
 *                       |                        v
 *                 (membrane state)        [layer 1 kernel] -> LIF 1
 *                                                |             |
 *                                          (membrane state)  spikes -> client
 *
 * Layer N's spike output feeds layer N+1 *inside* the runtime via the
 * same compiled Phi kernels the stateless path uses
 * (AsyncPhiEngine::submitPinned), and each layer's LifPopulation
 * carries the membrane/refractory state from one frame to the next.
 *
 * Determinism contract: every kernel underneath is row-independent
 * and bit-deterministic at any thread count, and LIF integration is
 * per-neuron, so streaming T frames through a session is bit-identical
 * to running the offline SpikingNetwork/LifPopulation reference over
 * the same input — no matter how many sessions were batched into each
 * engine submit, how the pump interleaved them, or how many pool
 * threads served the kernels. The session tests pin this at 1/2/8
 * threads, across snapshot save/restore, and under 8-way session
 * interleave.
 *
 * Cross-session batching: the pump thread takes at most one pending
 * frame per session per round and stacks every session that is at the
 * same layer of the same pinned model epoch into one m x K engine
 * submit — concurrent streams coalesce into efficient batches exactly
 * like stateless requests do, for free, because row results are
 * independent.
 *
 * Hot-swap contract: a session pins its model epoch at open() and
 * serves that epoch for its whole life (submitPinned), even when the
 * registry hot-swaps the name mid-stream. A reconnecting client that
 * reopens gets the current epoch — same rule as stateless traffic.
 *
 * Failure semantics are per-session: a failed step (engine error,
 * injected `session.step` failpoint) fails only that session's
 * future, typed, with the session's LIF state rolled back to the
 * last completed frame — neighbouring sessions in the same batch and
 * the session's own later steps are untouched. Lifecycle errors are
 * typed too: SessionNotFound (never opened / already closed),
 * SessionExpired (evicted by the idle TTL), TooManySessions (cap).
 *
 * Sessions survive restarts: snapshot() serialises every session's
 * identity, model binding and LIF state into a versioned `.phis`
 * artifact (io/session_io.hh; CRC-checked, atomically published) and
 * restore() rebuilds them in a fresh process — the server's drain
 * path snapshots open sessions instead of dropping them.
 */

#ifndef PHI_RUNTIME_SESSION_HH
#define PHI_RUNTIME_SESSION_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/sync.hh"
#include "io/session_io.hh"
#include "runtime/async_engine.hh"
#include "snn/lif.hh"

namespace phi
{

/** Knobs of the session subsystem. */
struct SessionConfig
{
    /** Hard cap on concurrently open sessions; open() beyond it
     *  throws TooManySessions (counted in sessionsRejected). */
    size_t maxSessions = 256;

    /**
     * Sessions idle (no step served, none pending) longer than this
     * are evicted, their state freed, and later touches answered with
     * SessionExpired. 0 = sessions never expire. Sweeps run on the
     * pump thread between rounds and via sweepIdle().
     */
    uint64_t idleTtlMillis = 0;

    /**
     * How many evicted session ids the manager remembers so a late
     * touch gets SessionExpired rather than SessionNotFound. Bounded:
     * ids older than the newest `tombstoneCapacity` evictions degrade
     * to SessionNotFound — the price of a long-running process not
     * accreting a tombstone per session forever.
     */
    size_t tombstoneCapacity = 4096;
};

/** Public view of one open session. */
struct SessionInfo
{
    uint64_t id = 0;
    /** The epoch the session pinned at open() and serves forever. */
    ModelHandle model;
    size_t layerCount = 0;
    /** Temporal steps served so far. */
    uint64_t steps = 0;
};

/** Result of one step() call: the final layer's spike raster. */
struct SessionStepResult
{
    uint64_t sessionId = 0;
    ModelHandle model;
    /** Global timestep index of row 0 of `spikes` (steps served
     *  before this call). */
    uint64_t firstStep = 0;
    /** T x N spikes of the last layer, one row per input frame. */
    BinaryMatrix spikes;
};

/**
 * Thread-safe session subsystem over one AsyncPhiEngine. All public
 * methods may be called from any thread; the engine (and its
 * registry) must outlive the manager.
 */
class SessionManager
{
  public:
    explicit SessionManager(AsyncPhiEngine& engine,
                            SessionConfig config = {});

    /** shutdown(): fails queued steps typed, joins the pump. */
    ~SessionManager();

    SessionManager(const SessionManager&) = delete;
    SessionManager& operator=(const SessionManager&) = delete;

    /**
     * Open a session against the current version of @p model, pinning
     * that epoch for the session's lifetime. @p params configures the
     * LIF dynamics per layer: empty = defaults for every layer,
     * otherwise exactly one entry per model layer.
     *
     * @throws EngineError UnknownModel (name not resident),
     *         TooManySessions (at the cap), ShapeMismatch (params
     *         count, or a model whose layer widths do not chain),
     *         MissingWeights (a weightless layer cannot forward),
     *         Stopped (after shutdown()).
     */
    uint64_t open(const std::string& model,
                  std::vector<LifParams> params = {}) EXCLUDES(mutex);

    /**
     * Stream @p frames (T x K rows = T timesteps of layer-0 input)
     * through the session's full layer stack. Returns a future
     * resolving with the final layer's T x N spikes once all T steps
     * are served, or with a typed EngineError: SessionNotFound /
     * SessionExpired / ShapeMismatch (K or empty frames) / Stopped,
     * or whatever the engine failed the step with (state rolled back
     * to the last completed frame). Multiple step() calls on one
     * session queue FIFO; calls across sessions proceed concurrently
     * and batch into shared engine submits.
     */
    std::future<SessionStepResult> step(uint64_t sessionId,
                                        BinaryMatrix frames)
        EXCLUDES(mutex);

    /**
     * Close a session and free its state; returns the steps it
     * served. Waits for an in-flight frame to finish; steps still
     * queued behind it fail with EngineError(Stopped). @throws
     * EngineError SessionNotFound / SessionExpired.
     */
    uint64_t close(uint64_t sessionId) EXCLUDES(mutex);

    /** @throws EngineError SessionNotFound / SessionExpired. */
    SessionInfo info(uint64_t sessionId) const EXCLUDES(mutex);

    /** Every open session, ordered by id. */
    std::vector<SessionInfo> list() const EXCLUDES(mutex);

    /** Open sessions right now. */
    size_t size() const EXCLUDES(mutex);

    /**
     * Evict sessions idle past the TTL now (also runs automatically
     * between pump rounds); returns how many were evicted. Sessions
     * with queued or in-flight steps are never evicted. Public so
     * tests and operational tooling can force a deterministic sweep.
     */
    size_t sweepIdle() EXCLUDES(mutex);

    /** Block until every step() queued before this call has resolved
     *  and no frame is in flight. Intake stays open. */
    void drain() EXCLUDES(mutex);

    /**
     * Serialisable snapshot of every open session (drains in-flight
     * and queued steps first, so the state is a clean frame
     * boundary). Pair with io::saveSessions() to persist; the caller
     * should stop step() traffic first (the server's drain gate
     * does), since steps racing in behind the drain are not covered.
     */
    io::SessionSnapshot snapshot() EXCLUDES(mutex);

    /**
     * Rebuild sessions from a snapshot (validated first — all or
     * nothing): each record re-pins its model *name's current
     * version* from the registry and resumes at its saved LIF state
     * and step count. Returns how many sessions were restored.
     * @throws EngineError UnknownModel (a record's model is not
     *         resident), ShapeMismatch (saved state does not fit the
     *         now-resident model), TooManySessions, Internal (a
     *         restored id collides with an open session).
     */
    size_t restore(const io::SessionSnapshot& snap) EXCLUDES(mutex);

    /** Session counters (sessionsOpened/Closed/Expired/Rejected,
     *  sessionSteps, per-frame `latency` histogram). */
    ServingStats stats() const EXCLUDES(mutex);

    /**
     * Stop intake, fail every queued step with EngineError(Stopped),
     * and join the pump thread. Idempotent. Open sessions keep their
     * state (snapshot() still works after shutdown).
     */
    void shutdown() EXCLUDES(mutex, joinMutex);

    const SessionConfig& config() const { return cfg; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One queued step() call: T input frames, the spikes produced so
     *  far, and the caller's promise. */
    struct StepJob
    {
        BinaryMatrix frames; // T x K input, row = timestep
        size_t next = 0;     // frames served so far
        uint64_t firstStep = 0; // session step count at frame 0
        BinaryMatrix spikes; // T x N final-layer output
        std::promise<SessionStepResult> promise;
    };

    /**
     * One live session. The map entry (presence, the `busy` flag and
     * the job queue) is guarded by `mutex`; the *temporal state*
     * (pin, layers, steps) is owned by the pump thread while
     * busy == true and untouched by everyone else — close(),
     * snapshot() and the destructor wait for busy to drop before
     * reading it (single-owner handoff, documented rather than
     * locked, same convention as PhiEngine's dispatcher ownership).
     */
    struct Session
    {
        ModelRegistry::Pinned pin;
        std::vector<LifPopulation> layers;
        uint64_t steps = 0;
        Clock::time_point lastActive;
        std::deque<StepJob> jobs;
        bool busy = false;
    };

    /** One session's slice of a pump round. */
    struct Participant
    {
        uint64_t id = 0;
        Session* session = nullptr;
        /** Set by serveGroup() when this session's frame failed (the
         *  session's LIF state was rolled back). */
        std::exception_ptr error;
    };

    void pumpLoop() EXCLUDES(mutex);

    /** Serve one frame for every session in @p group (all pinned to
     *  the same epoch) as one batched forward. */
    void serveGroup(std::vector<Participant>& group);

    /** Build Session objects for open()/restore(); validates the
     *  model chains and the params/state fit it. */
    static std::unique_ptr<Session> makeSession(
        ModelRegistry::Pinned pin, std::vector<LifParams> params);

    size_t sweepIdleLocked(Clock::time_point now) REQUIRES(mutex);
    void rememberTombstone(uint64_t id) REQUIRES(mutex);

    /** Typed lookup: returns the session or throws SessionNotFound /
     *  SessionExpired. */
    Session& findSession(uint64_t id) REQUIRES(mutex);
    const Session& findSession(uint64_t id) const REQUIRES(mutex);

    AsyncPhiEngine& engine;
    SessionConfig cfg;

    /**
     * Lock hierarchy (see README "Static analysis & concurrency
     * contracts"): `mutex` is a leaf — never held across an engine
     * submit, a kernel, or any other phi mutex. The pump marks its
     * round's sessions busy under the lock, releases it for the
     * whole forward, and reacquires it to publish results.
     */
    mutable Mutex mutex;
    CondVar workAvailable;  // a session gained a queued job / stop
    CondVar roundComplete;  // a pump round published its results
    std::map<uint64_t, std::unique_ptr<Session>>
        sessions GUARDED_BY(mutex);
    uint64_t nextId GUARDED_BY(mutex) = 1;
    bool stopping GUARDED_BY(mutex) = false;

    /** Recently evicted ids (bounded ring + membership set). */
    std::deque<uint64_t> tombstoneOrder GUARDED_BY(mutex);
    std::unordered_set<uint64_t> tombstones GUARDED_BY(mutex);

    /** Session counters + per-frame latency histogram (cumulative
     *  since construction, percentiles exact to within one bucket). */
    ServingStats counters GUARDED_BY(mutex);

    /** Serialises the pump launch/join across concurrent shutdowns;
     *  leaf, never held together with `mutex`. */
    Mutex joinMutex;
    std::thread pump GUARDED_BY(joinMutex);
};

} // namespace phi

#endif // PHI_RUNTIME_SESSION_HH
