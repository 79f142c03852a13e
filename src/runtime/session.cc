#include "runtime/session.hh"

#include <algorithm>

#include "common/failpoint.hh"
#include "common/logging.hh"

namespace phi
{

namespace
{

/** Copy one row of @p src into row @p dstRow of @p dst (same cols). */
void
copyRow(const BinaryMatrix& src, size_t srcRow, BinaryMatrix& dst,
        size_t dstRow)
{
    const size_t cols = src.cols();
    for (size_t c = 0; c < cols; c += 64) {
        const int len = static_cast<int>(std::min<size_t>(64, cols - c));
        dst.deposit(dstRow, c, len, src.extract(srcRow, c, len));
    }
}

std::exception_ptr
makeError(EngineError::Code code, const std::string& what)
{
    return std::make_exception_ptr(EngineError(code, what));
}

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // namespace

SessionManager::SessionManager(AsyncPhiEngine& eng, SessionConfig config)
    : engine(eng), cfg(config)
{
    phi_assert(cfg.maxSessions > 0, "maxSessions must be positive");
    MutexLock lock(joinMutex);
    pump = std::thread([this] { pumpLoop(); });
}

SessionManager::~SessionManager()
{
    shutdown();
}

std::unique_ptr<SessionManager::Session>
SessionManager::makeSession(ModelRegistry::Pinned pin,
                            std::vector<LifParams> params)
{
    phi_assert(pin.model != nullptr, "makeSession over an empty pin");
    const auto& layers = pin->layers();
    // The registry refuses layerless models, so layers is non-empty.
    for (size_t l = 0; l < layers.size(); ++l) {
        if (!layers[l].hasWeights())
            throw EngineError(EngineError::Code::MissingWeights,
                              "session model " + pin.handle.str() +
                                  " layer '" + layers[l].name() +
                                  "' has no weights bound; a temporal "
                                  "forward cannot cross it");
        if (l > 0 && layers[l].weights().rows() !=
                         layers[l - 1].weights().cols())
            throw EngineError(
                EngineError::Code::ShapeMismatch,
                "session model " + pin.handle.str() + " layer '" +
                    layers[l].name() + "' expects " +
                    std::to_string(layers[l].weights().rows()) +
                    " inputs but the previous layer produces " +
                    std::to_string(layers[l - 1].weights().cols()) +
                    " spikes; the layer widths do not chain");
    }
    if (!params.empty() && params.size() != layers.size())
        throw EngineError(EngineError::Code::ShapeMismatch,
                          "got " + std::to_string(params.size()) +
                              " LifParams for a model with " +
                              std::to_string(layers.size()) + " layers");
    // LifPopulation asserts on invalid params (internal-invariant
    // path); session params arrive from clients, so reject them as a
    // request error first.
    for (size_t l = 0; l < params.size(); ++l) {
        const LifParams& p = params[l];
        if (!(p.threshold > 0) || !(p.leak >= 0.0f && p.leak <= 1.0f) ||
            p.refractory < 0)
            throw EngineError(EngineError::Code::ShapeMismatch,
                              "invalid LifParams for layer " +
                                  std::to_string(l) +
                                  " (need threshold > 0, leak in "
                                  "[0, 1], refractory >= 0)");
    }

    auto s = std::make_unique<Session>();
    for (size_t l = 0; l < layers.size(); ++l)
        s->layers.emplace_back(layers[l].weights().cols(),
                               params.empty() ? LifParams{} : params[l]);
    s->pin = std::move(pin);
    s->lastActive = Clock::now();
    return s;
}

uint64_t
SessionManager::open(const std::string& model,
                     std::vector<LifParams> params)
{
    // Pin + validate before touching shared state, so a rejected open
    // leaves the manager untouched.
    auto session =
        makeSession(engine.registry()->pin(model), std::move(params));

    MutexLock lock(mutex);
    if (stopping)
        throw EngineError(EngineError::Code::Stopped,
                          "session manager is shut down");
    if (sessions.size() >= cfg.maxSessions) {
        counters.sessionsRejected += 1;
        throw EngineError(EngineError::Code::TooManySessions,
                          "session cap of " +
                              std::to_string(cfg.maxSessions) +
                              " reached");
    }
    const uint64_t id = nextId++;
    sessions.emplace(id, std::move(session));
    counters.sessionsOpened += 1;
    return id;
}

std::future<SessionStepResult>
SessionManager::step(uint64_t sessionId, BinaryMatrix frames)
{
    std::promise<SessionStepResult> promise;
    std::future<SessionStepResult> future = promise.get_future();
    try {
        MutexLock lock(mutex);
        if (stopping)
            throw EngineError(EngineError::Code::Stopped,
                              "session manager is shut down");
        Session& s = findSession(sessionId);
        const auto& layers = s.pin->layers();
        const size_t k0 = layers.front().weights().rows();
        if (frames.rows() == 0)
            throw EngineError(EngineError::Code::ShapeMismatch,
                              "step with zero frames");
        if (frames.cols() != k0)
            throw EngineError(EngineError::Code::ShapeMismatch,
                              "frame width " +
                                  std::to_string(frames.cols()) +
                                  " != layer-0 input width " +
                                  std::to_string(k0) + " of model " +
                                  s.pin.handle.str());
        StepJob job;
        job.spikes = BinaryMatrix(frames.rows(),
                                  layers.back().weights().cols());
        job.frames = std::move(frames);
        job.promise = std::move(promise);
        s.jobs.push_back(std::move(job));
        s.lastActive = Clock::now();
        workAvailable.notify_all();
    } catch (...) {
        promise.set_exception(std::current_exception());
    }
    return future;
}

uint64_t
SessionManager::close(uint64_t sessionId)
{
    std::deque<StepJob> orphans;
    uint64_t served = 0;
    {
        UniqueLock lock(mutex);
        for (;;) {
            // Re-looked-up each wake: the lock is dropped inside
            // wait(), so the session may complete a round — or be
            // swept by the TTL — in between.
            Session& s = findSession(sessionId);
            if (!s.busy) {
                served = s.steps;
                orphans = std::move(s.jobs);
                sessions.erase(sessionId);
                counters.sessionsClosed += 1;
                break;
            }
            roundComplete.wait(lock);
        }
    }
    for (auto& job : orphans)
        job.promise.set_exception(
            makeError(EngineError::Code::Stopped,
                      "session closed with steps still queued"));
    return served;
}

SessionInfo
SessionManager::info(uint64_t sessionId) const
{
    MutexLock lock(mutex);
    const Session& s = findSession(sessionId);
    return {sessionId, s.pin.handle, s.layers.size(), s.steps};
}

std::vector<SessionInfo>
SessionManager::list() const
{
    MutexLock lock(mutex);
    std::vector<SessionInfo> out;
    out.reserve(sessions.size());
    for (const auto& [id, s] : sessions)
        out.push_back({id, s->pin.handle, s->layers.size(), s->steps});
    return out;
}

size_t
SessionManager::size() const
{
    MutexLock lock(mutex);
    return sessions.size();
}

size_t
SessionManager::sweepIdle()
{
    MutexLock lock(mutex);
    return sweepIdleLocked(Clock::now());
}

size_t
SessionManager::sweepIdleLocked(Clock::time_point now)
{
    if (cfg.idleTtlMillis == 0)
        return 0;
    const auto ttl = std::chrono::milliseconds(cfg.idleTtlMillis);
    size_t evicted = 0;
    for (auto it = sessions.begin(); it != sessions.end();) {
        Session& s = *it->second;
        // Never evict a session with work queued or in flight — idle
        // means the *client* went away, not that we are slow.
        if (!s.busy && s.jobs.empty() && now - s.lastActive >= ttl) {
            rememberTombstone(it->first);
            it = sessions.erase(it);
            counters.sessionsExpired += 1;
            ++evicted;
        } else {
            ++it;
        }
    }
    return evicted;
}

void
SessionManager::rememberTombstone(uint64_t id)
{
    tombstoneOrder.push_back(id);
    tombstones.insert(id);
    while (tombstoneOrder.size() > cfg.tombstoneCapacity) {
        tombstones.erase(tombstoneOrder.front());
        tombstoneOrder.pop_front();
    }
}

SessionManager::Session&
SessionManager::findSession(uint64_t id)
{
    auto it = sessions.find(id);
    if (it != sessions.end())
        return *it->second;
    if (tombstones.count(id) > 0)
        throw EngineError(EngineError::Code::SessionExpired,
                          "session " + std::to_string(id) +
                              " was evicted by the idle TTL; its state "
                              "is gone — reopen the stream");
    throw EngineError(EngineError::Code::SessionNotFound,
                      "no session with id " + std::to_string(id));
}

const SessionManager::Session&
SessionManager::findSession(uint64_t id) const
{
    return const_cast<SessionManager*>(this)->findSession(id);
}

void
SessionManager::drain()
{
    UniqueLock lock(mutex);
    for (;;) {
        bool idle = true;
        for (const auto& [id, s] : sessions)
            idle = idle && !s->busy && s->jobs.empty();
        if (idle)
            return;
        roundComplete.wait(lock);
    }
}

io::SessionSnapshot
SessionManager::snapshot()
{
    UniqueLock lock(mutex);
    // Quiesce to a clean frame boundary first: a snapshot must never
    // capture a session halfway through a frame's layer stack.
    for (;;) {
        bool idle = true;
        for (const auto& [id, s] : sessions)
            idle = idle && !s->busy && s->jobs.empty();
        if (idle)
            break;
        roundComplete.wait(lock);
    }
    io::SessionSnapshot snap;
    snap.nextSessionId = nextId;
    for (const auto& [id, sp] : sessions) {
        const Session& s = *sp;
        io::SessionStateRecord rec;
        rec.id = id;
        rec.model = s.pin.handle.name;
        rec.version = s.pin.handle.version;
        rec.steps = s.steps;
        rec.layerParams.reserve(s.layers.size());
        rec.layerState.reserve(s.layers.size());
        for (const LifPopulation& pop : s.layers) {
            rec.layerParams.push_back(pop.params());
            rec.layerState.push_back(pop.saveState());
        }
        snap.sessions.push_back(std::move(rec));
    }
    return snap;
}

size_t
SessionManager::restore(const io::SessionSnapshot& snap)
{
    // Build and validate every session before touching shared state:
    // restore is all-or-nothing, so a half-corrupt snapshot cannot
    // leave half a fleet behind.
    std::vector<std::pair<uint64_t, std::unique_ptr<Session>>> built;
    built.reserve(snap.sessions.size());
    for (const auto& rec : snap.sessions) {
        auto s = makeSession(engine.registry()->pin(rec.model),
                             rec.layerParams);
        if (rec.layerState.size() != s->layers.size())
            throw EngineError(
                EngineError::Code::ShapeMismatch,
                "snapshot session " + std::to_string(rec.id) + " has " +
                    std::to_string(rec.layerState.size()) +
                    " layers of state; resident model '" + rec.model +
                    "' has " + std::to_string(s->layers.size()));
        for (size_t l = 0; l < s->layers.size(); ++l) {
            const LifState& st = rec.layerState[l];
            if (st.membrane.size() != s->layers[l].size())
                throw EngineError(
                    EngineError::Code::ShapeMismatch,
                    "snapshot session " + std::to_string(rec.id) +
                        " layer " + std::to_string(l) + " has " +
                        std::to_string(st.membrane.size()) +
                        " neurons of state; resident model '" +
                        rec.model + "' has " +
                        std::to_string(s->layers[l].size()));
            s->layers[l].loadState(st);
        }
        s->steps = rec.steps;
        built.emplace_back(rec.id, std::move(s));
    }

    MutexLock lock(mutex);
    if (stopping)
        throw EngineError(EngineError::Code::Stopped,
                          "session manager is shut down");
    if (sessions.size() + built.size() > cfg.maxSessions) {
        counters.sessionsRejected += built.size();
        throw EngineError(EngineError::Code::TooManySessions,
                          "restoring " + std::to_string(built.size()) +
                              " sessions would exceed the cap of " +
                              std::to_string(cfg.maxSessions));
    }
    for (const auto& [id, s] : built)
        if (sessions.count(id) > 0)
            throw EngineError(EngineError::Code::Internal,
                              "restored session id " +
                                  std::to_string(id) +
                                  " collides with an open session");
    for (auto& [id, s] : built) {
        sessions.emplace(id, std::move(s));
        counters.sessionsOpened += 1;
        if (id >= nextId)
            nextId = id + 1;
    }
    if (snap.nextSessionId > nextId)
        nextId = snap.nextSessionId;
    return built.size();
}

ServingStats
SessionManager::stats() const
{
    MutexLock lock(mutex);
    return counters;
}

void
SessionManager::shutdown()
{
    {
        MutexLock lock(mutex);
        stopping = true;
        workAvailable.notify_all();
    }
    {
        MutexLock lock(joinMutex);
        if (pump.joinable())
            pump.join();
    }
    // The pump is gone, so nothing is busy; fail what it left queued.
    std::vector<std::promise<SessionStepResult>> orphans;
    {
        MutexLock lock(mutex);
        for (auto& [id, s] : sessions)
            while (!s->jobs.empty()) {
                orphans.push_back(std::move(s->jobs.front().promise));
                s->jobs.pop_front();
            }
    }
    for (auto& p : orphans)
        p.set_exception(
            makeError(EngineError::Code::Stopped,
                      "session manager shut down with steps queued"));
}

void
SessionManager::serveGroup(std::vector<Participant>& group)
{
    // Every participant is pinned to the same epoch; one frame each,
    // stacked into one m x K submit per layer. Runs without the
    // manager lock — the sessions are marked busy, so their state is
    // pump-owned for the duration.
    Session& lead = *group.front().session;
    const CompiledModel& model = *lead.pin;
    const auto& layers = model.layers();
    const size_t m = group.size();

    // Rollback point: a failed frame must leave every participant's
    // LIF state exactly at the last completed frame. This is also the
    // save/load path's steady exercise — the same vectors the .phis
    // snapshot serialises.
    std::vector<std::vector<LifState>> saved(m);
    for (size_t i = 0; i < m; ++i) {
        const Session& s = *group[i].session;
        saved[i].reserve(s.layers.size());
        for (const LifPopulation& pop : s.layers)
            saved[i].push_back(pop.saveState());
    }

    try {
        BinaryMatrix acts(m, layers.front().weights().rows());
        for (size_t i = 0; i < m; ++i) {
            const StepJob& job = group[i].session->jobs.front();
            copyRow(job.frames, job.next, acts, i);
        }
        for (size_t l = 0; l < layers.size(); ++l) {
            EngineResponse resp =
                engine
                    .submitPinned(lead.pin, l, std::move(acts))
                    .get();
            BinaryMatrix next(m, layers[l].weights().cols());
            for (size_t i = 0; i < m; ++i)
                group[i].session->layers[l].stepInto(resp.out.rowPtr(i),
                                                     next, i);
            acts = std::move(next);
        }
        for (size_t i = 0; i < m; ++i) {
            Session& s = *group[i].session;
            StepJob& job = s.jobs.front();
            copyRow(acts, i, job.spikes, job.next);
            job.next += 1;
            s.steps += 1;
        }
    } catch (...) {
        for (size_t i = 0; i < m; ++i) {
            Session& s = *group[i].session;
            for (size_t l = 0; l < s.layers.size(); ++l)
                s.layers[l].loadState(saved[i][l]);
            group[i].error = std::current_exception();
        }
    }
}

void
SessionManager::pumpLoop()
{
    UniqueLock lock(mutex);
    for (;;) {
        // Wait for work; with a TTL configured, wake at TTL period to
        // sweep even when no traffic arrives.
        for (;;) {
            if (stopping)
                return;
            bool haveWork = false;
            for (const auto& [id, s] : sessions)
                haveWork = haveWork || (!s->busy && !s->jobs.empty());
            if (haveWork)
                break;
            if (cfg.idleTtlMillis > 0) {
                workAvailable.wait_for(
                    lock, std::chrono::milliseconds(cfg.idleTtlMillis));
                sweepIdleLocked(Clock::now());
            } else {
                workAvailable.wait(lock);
            }
        }
        sweepIdleLocked(Clock::now());

        // Select the round: at most one frame per session (fair
        // interleave), grouped by pinned epoch so co-resident streams
        // share engine submits.
        std::vector<Participant> round;
        std::vector<std::promise<SessionStepResult>> injected;
        for (auto& [id, s] : sessions) {
            if (s->busy || s->jobs.empty())
                continue;
            bool fire = false;
            PHI_FAILPOINT(failpoint::sites::kSessionStep, fire = true);
            if (fire) {
                // Injected step failure: fail exactly this session's
                // step before any of its state moves; neighbours in
                // the round are untouched.
                injected.push_back(std::move(s->jobs.front().promise));
                s->jobs.pop_front();
                s->lastActive = Clock::now();
                continue;
            }
            if (s->jobs.front().next == 0)
                s->jobs.front().firstStep = s->steps;
            s->busy = true;
            round.push_back({id, s.get(), nullptr});
        }

        std::map<const CompiledModel*, std::vector<Participant>> groups;
        for (const Participant& p : round)
            groups[p.session->pin.model.get()].push_back(p);

        lock.unlock();
        for (auto& p : injected)
            p.set_exception(makeError(
                EngineError::Code::Internal,
                "injected session step failure (failpoint "
                "'session.step'); session state is unchanged — retry "
                "is safe"));
        const Clock::time_point begin = Clock::now();
        for (auto& [key, g] : groups)
            serveGroup(g);
        const double frameSeconds = seconds(Clock::now() - begin);

        // Finalize the bookkeeping under the lock BEFORE resolving any
        // promise: a client that observes a resolved step future must
        // also observe the counters and queue state it implies. The
        // finished jobs are moved out whole, so the promises (and the
        // spike rasters set_value moves) are resolved lock-free after.
        struct Resolution
        {
            std::promise<SessionStepResult> promise;
            std::exception_ptr error; // null: deliver `value`
            SessionStepResult value;
        };
        std::vector<Resolution> done;
        lock.lock();
        const Clock::time_point now = Clock::now();
        for (auto& [key, g] : groups) {
            for (Participant& p : g) {
                Session& s = *p.session;
                StepJob& job = s.jobs.front();
                if (p.error || job.next == job.frames.rows()) {
                    Resolution r;
                    r.promise = std::move(job.promise);
                    r.error = p.error;
                    if (!p.error)
                        r.value = {p.id, s.pin.handle, job.firstStep,
                                   std::move(job.spikes)};
                    done.push_back(std::move(r));
                    s.jobs.pop_front();
                }
                if (!p.error) {
                    counters.sessionSteps += 1;
                    counters.latency.record(frameSeconds);
                }
                s.busy = false;
                s.lastActive = now;
            }
        }
        roundComplete.notify_all();
        lock.unlock();
        for (Resolution& r : done) {
            if (r.error)
                r.promise.set_exception(r.error);
            else
                r.promise.set_value(std::move(r.value));
        }
        lock.lock();
    }
}

} // namespace phi
