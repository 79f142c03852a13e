#include "net/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/failpoint.hh"

#ifdef __linux__
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace phi::net
{

/**
 * Per-connection state. Owned by the net thread; only `outbox`,
 * `outboxBytes` and `inFlight` are shared with the completion thread
 * (under PhiServer::stateMutex).
 */
struct PhiServer::Connection
{
    int fd = -1;
    uint64_t id = 0;

    /** Unparsed inbound bytes (grows only to one frame + readahead —
     *  bounded by maxFrameBytes via the parser's early rejection). */
    std::vector<uint8_t> rbuf;

    /** Outbound bytes the socket has not accepted yet. */
    std::vector<uint8_t> wbuf;
    size_t woff = 0;

    /** Frames serialized by the completion thread, awaiting the net
     *  thread's pickup. Guarded by stateMutex. */
    std::deque<std::vector<uint8_t>> outbox;
    size_t outboxBytes = 0; // guarded by stateMutex

    /** Requests submitted from this connection whose response has not
     *  been queued yet. Guarded by stateMutex. */
    size_t inFlight = 0;

    /** Close once wbuf+outbox flush (protocol violation, STATS-by-nc,
     *  or drain). */
    bool closeAfterFlush = false;

    bool wantWrite = false; // EPOLLOUT currently armed

    Clock::time_point lastActivity{};
    /** When the currently-buffered partial frame started arriving
     *  (zeroed at every frame boundary). */
    Clock::time_point partialSince{};
    /** Last instant the socket accepted outbound bytes while more were
     *  pending. */
    Clock::time_point writeStalledSince{};
};

PhiServer::PhiServer(std::shared_ptr<ModelRegistry> registry,
                     ExecutionConfig exec,
                     AsyncEngineConfig engineConfig,
                     PhiServerConfig serverCfg)
    : asyncEngine(std::move(registry), exec, engineConfig),
      serverConfig(std::move(serverCfg)),
      sessionManager(asyncEngine, serverConfig.sessionConfig)
{
}

PhiServer::~PhiServer()
{
    stop();
}

#ifdef __linux__

namespace
{

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

void
PhiServer::start()
{
    MutexLock lifecycle(lifecycleMutex);
    if (started.load())
        throw NetError(WireErrorCode::ConnectError,
                       "start() on an already-started server");

    listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd < 0)
        throw NetError(WireErrorCode::ConnectError,
                       std::string("socket(): ") + std::strerror(errno));

    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(serverConfig.port);
    if (::inet_pton(AF_INET, serverConfig.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        ::close(listenFd);
        listenFd = -1;
        throw NetError(WireErrorCode::ConnectError,
                       "bad bind address: " + serverConfig.bindAddress);
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, serverConfig.listenBacklog) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        throw NetError(WireErrorCode::ConnectError,
                       "bind/listen on " + serverConfig.bindAddress +
                           ": " + why);
    }

    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    ::getsockname(listenFd, reinterpret_cast<sockaddr*>(&bound),
                  &boundLen);
    boundPort = ntohs(bound.sin_port);

    setNonBlocking(listenFd);

    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    wakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epollFd < 0 || wakeFd < 0) {
        const std::string why = std::strerror(errno);
        ::close(listenFd);
        if (epollFd >= 0) ::close(epollFd);
        if (wakeFd >= 0) ::close(wakeFd);
        listenFd = epollFd = wakeFd = -1;
        throw NetError(WireErrorCode::ConnectError,
                       "epoll/eventfd setup failed: " + why);
    }

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd;
    ::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd, &ev);
    ev.data.fd = wakeFd;
    ::epoll_ctl(epollFd, EPOLL_CTL_ADD, wakeFd, &ev);

    started.store(true);
    loopRunning.store(true);
    netThread = std::thread(&PhiServer::netLoop, this);
    completionThread = std::thread(&PhiServer::completionLoop, this);
}

uint16_t
PhiServer::port() const
{
    return boundPort;
}

void
PhiServer::requestDrain()
{
    // Async-signal-safe by construction: one relaxed-compatible atomic
    // store and one eventfd write(2). No locks, no allocation.
    drainRequested.store(true);
    if (wakeFd >= 0) {
        const uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakeFd, &one, sizeof(one));
    }
}

void
PhiServer::stop()
{
    stopRequested.store(true);
    if (wakeFd >= 0) {
        const uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakeFd, &one, sizeof(one));
    }
    waitUntilStopped();
}

void
PhiServer::waitUntilStopped()
{
    MutexLock lifecycle(lifecycleMutex);
    if (netThread.joinable())
        netThread.join();
    // The net loop set completionStop on its way out; the completion
    // thread consumes every remaining future (no response is ever
    // silently un-got) and exits.
    if (completionThread.joinable())
        completionThread.join();
    if (epollFd >= 0) { ::close(epollFd); epollFd = -1; }
    if (wakeFd >= 0) { ::close(wakeFd); wakeFd = -1; }
}

bool
PhiServer::running() const
{
    return loopRunning.load();
}

bool
PhiServer::draining() const
{
    return drainingFlag.load();
}

size_t
PhiServer::connectionCount() const
{
    MutexLock lock(stateMutex);
    return connsById.size();
}

ServerCounters
PhiServer::counters() const
{
    MutexLock lock(stateMutex);
    return stats;
}

std::string
PhiServer::statsText() const
{
    const ServerCounters c = counters();
    std::ostringstream os;
    os << "phi-server\n";
    os << "connections " << connectionCount() << "\n";
    os << "accepted " << c.accepted << "\n";
    os << "closed " << c.closed << "\n";
    os << "requests " << c.requests << "\n";
    os << "responses " << c.responses << "\n";
    os << "wire_errors " << c.wireErrors << "\n";
    os << "protocol_errors " << c.protocolErrors << "\n";
    os << "timeouts " << c.timeouts << "\n";
    os << "slow_client_drops " << c.slowClientDrops << "\n";
    os << "accept_failures " << c.acceptFailures << "\n";
    os << "read_failures " << c.readFailures << "\n";
    os << "write_failures " << c.writeFailures << "\n";
    os << "drain_rejected " << c.drainRejected << "\n";
    os << "stats_served " << c.statsServed << "\n";
    os << "session_opens " << c.sessionOpens << "\n";
    os << "session_closes " << c.sessionCloses << "\n";
    os << "session_step_frames " << c.sessionStepFrames << "\n";
    os << "sessions_snapshotted " << c.sessionsSnapshotted << "\n";
    const ServingStats sess = sessionManager.stats();
    os << "sessions_open " << sess.activeSessions() << "\n";
    os << "sessions_opened " << sess.sessionsOpened << "\n";
    os << "sessions_closed " << sess.sessionsClosed << "\n";
    os << "sessions_expired " << sess.sessionsExpired << "\n";
    os << "sessions_rejected " << sess.sessionsRejected << "\n";
    os << "session_steps " << sess.sessionSteps << "\n";
    const ServingStats merged = asyncEngine.stats();
    os << "engine_requests " << merged.requests << "\n";
    os << "engine_expired " << merged.expired << "\n";
    os << "engine_shed " << merged.shed << "\n";
    os << "engine_rejected " << merged.rejected << "\n";
    os << "engine_watchdog_restarts " << merged.watchdogRestarts
       << "\n";
    for (const auto& [name, s] : asyncEngine.perModelStats()) {
        os << "model " << name << " requests " << s.requests
           << " rows " << s.rows << " p50_ms "
           << s.latency.percentileMs(50) << " p99_ms "
           << s.latency.percentileMs(99) << "\n";
    }
    os << "end\n";
    return os.str();
}

// ---- net thread -----------------------------------------------------

void
PhiServer::netLoop()
{
    std::vector<epoll_event> events(64);
    while (true) {
        if (stopRequested.load())
            break;
        if (drainRequested.load() && !drainingFlag.load())
            beginDrain();
        if (drainingFlag.load()) {
            if (drainComplete())
                break;
            if (Clock::now() >= drainDeadline) {
                // Laggards (slow readers, clients that never close)
                // must not hold SIGTERM hostage.
                closeAllConnections();
                break;
            }
        }

        const int timeoutMs =
            static_cast<int>(nextTimeoutMs(Clock::now()));
        const int n = ::epoll_wait(epollFd, events.data(),
                                   static_cast<int>(events.size()),
                                   timeoutMs);
        if (n < 0 && errno != EINTR)
            break;

        for (int i = 0; i < std::max(n, 0); ++i) {
            const int fd = events[i].data.fd;
            if (fd == wakeFd) {
                uint64_t drainCount = 0;
                [[maybe_unused]] ssize_t r =
                    ::read(wakeFd, &drainCount, sizeof(drainCount));
                continue;
            }
            if (fd == listenFd) {
                acceptPending();
                continue;
            }
            auto it = connsByFd.find(fd);
            if (it == connsByFd.end())
                continue;
            Connection& conn = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                closeConnection(conn.id);
                continue;
            }
            if (events[i].events & EPOLLIN)
                handleReadable(conn);
            // handleReadable may have closed the connection.
            auto again = connsByFd.find(fd);
            if (again != connsByFd.end() &&
                (events[i].events & EPOLLOUT))
                flushWrites(*again->second);
        }

        // Move completion-thread results into write buffers and push
        // them at the sockets.
        deliverOutboxes();
        sweepTimeouts(Clock::now());
    }

    closeAllConnections();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }

    // Graceful drain persists (or closes) the stateful sessions; a
    // hard stop() drops them, matching its everything-now contract —
    // the manager's own shutdown still fails queued steps typed.
    if (drainRequested.load() && !stopRequested.load())
        finishSessionsForDrain();

    {
        MutexLock lock(completionMutex);
        completionStop = true;
    }
    completionCv.notify_all();
    drainingFlag.store(false);
    loopRunning.store(false);
}

void
PhiServer::acceptPending()
{
    while (true) {
        sockaddr_in peer{};
        socklen_t peerLen = sizeof(peer);
        const int fd =
            ::accept4(listenFd, reinterpret_cast<sockaddr*>(&peer),
                      &peerLen, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0)
            return; // EAGAIN or a transient error: retried on next wake

        bool injected = false;
        PHI_FAILPOINT(failpoint::sites::kNetAccept, injected = true);
        if (injected) {
            // The accept path failed: the client sees its freshly
            // established connection reset, exactly as if accept(2)
            // had errored after the handshake.
            ::close(fd);
            MutexLock lock(stateMutex);
            ++stats.acceptFailures;
            continue;
        }

        if (drainingFlag.load() || drainRequested.load()) {
            ::close(fd);
            continue;
        }

        bool atCapacity;
        {
            MutexLock lock(stateMutex);
            atCapacity = connsById.size() >= serverConfig.maxConnections;
        }
        if (atCapacity) {
            // Tell the client why before hanging up: a typed
            // TooManyConnections beats a silent RST. Best effort — the
            // fd is non-blocking and we will not queue for a stranger.
            const std::vector<uint8_t> frame = encodeErrorFrame(
                0, WireErrorCode::TooManyConnections,
                "server is at its connection limit");
            [[maybe_unused]] ssize_t n =
                ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }

        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->id = nextConnId++;
        conn->lastActivity = Clock::now();

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev);

        {
            MutexLock lock(stateMutex);
            connsById[conn->id] = conn.get();
            ++stats.accepted;
        }
        connsByFd[fd] = std::move(conn);
    }
}

void
PhiServer::handleReadable(Connection& conn)
{
    bool injected = false;
    PHI_FAILPOINT(failpoint::sites::kNetRead, injected = true);
    if (injected) {
        // Read path failure: report it typed if the socket still
        // accepts bytes, then hang up — the stream position is gone.
        MutexLock lock(stateMutex);
        ++stats.readFailures;
        conn.closeAfterFlush = true;
        conn.outbox.push_back(encodeErrorFrame(
            0, WireErrorCode::ConnectionLost,
            "server read failure; closing connection"));
        conn.outboxBytes += conn.outbox.back().size();
        return;
    }

    uint8_t chunk[64 * 1024];
    bool peerClosed = false;
    while (true) {
        const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
        if (n > 0) {
            conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + n);
            conn.lastActivity = Clock::now();
            if (conn.partialSince == Clock::time_point{})
                conn.partialSince = conn.lastActivity;
            continue;
        }
        if (n == 0) {
            peerClosed = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        peerClosed = true; // genuine read error: treat as lost peer
        break;
    }

    if (!conn.rbuf.empty())
        processBuffer(conn);

    if (peerClosed) {
        // A half-closed peer that still has responses in flight gets
        // them flushed (TCP allows it); one with nothing pending is
        // just gone. Either way no new frames can arrive.
        bool idle;
        {
            MutexLock lock(stateMutex);
            idle = conn.inFlight == 0 && conn.outbox.empty();
        }
        if (idle && conn.wbuf.size() == conn.woff)
            closeConnection(conn.id);
        else
            conn.closeAfterFlush = true;
    }
}

void
PhiServer::processBuffer(Connection& conn)
{
    static const std::string kStatsVerb = "STATS";
    size_t consumed = 0;
    while (consumed < conn.rbuf.size()) {
        const uint8_t* data = conn.rbuf.data() + consumed;
        const size_t len = conn.rbuf.size() - consumed;

        // The operator escape hatch: a bare "STATS" line at a frame
        // boundary serves plaintext metrics and closes, so
        // `echo STATS | nc host port` works without a phi client.
        if (data[0] == 'S') {
            const size_t cmp = std::min(len, kStatsVerb.size());
            if (std::memcmp(data, kStatsVerb.data(), cmp) != 0) {
                // Not the verb: fall through to the frame parser,
                // which rejects it as BadMagic.
            } else if (len <= kStatsVerb.size()) {
                break; // "STA..." — need the rest of the line
            } else {
                size_t eol = kStatsVerb.size();
                if (data[eol] == '\r' && eol + 1 < len)
                    ++eol;
                if (data[eol] == '\n') {
                    const std::string text = statsText();
                    {
                        MutexLock lock(stateMutex);
                        ++stats.statsServed;
                        conn.outbox.emplace_back(text.begin(),
                                                 text.end());
                        conn.outboxBytes += text.size();
                    }
                    conn.closeAfterFlush = true;
                    consumed += eol + 1;
                    continue;
                }
            }
        }

        ParsedFrame frame;
        WireErrorCode errCode = WireErrorCode::MalformedFrame;
        std::string errMsg;
        const ParseStatus st = tryParseFrame(
            data, len, serverConfig.maxFrameBytes, frame, errCode,
            errMsg);
        if (st == ParseStatus::NeedMore)
            break;
        if (st == ParseStatus::Bad) {
            // The length prefix can no longer be trusted: report the
            // violation typed, then close this one connection. The
            // rest of the pool never notices.
            MutexLock lock(stateMutex);
            ++stats.protocolErrors;
            ++stats.wireErrors;
            conn.outbox.push_back(
                encodeErrorFrame(0, errCode, errMsg));
            conn.outboxBytes += conn.outbox.back().size();
            conn.closeAfterFlush = true;
            consumed = conn.rbuf.size(); // discard the poisoned tail
            break;
        }

        if (!handleRequestFrame(conn, frame)) {
            consumed = conn.rbuf.size();
            break;
        }
        consumed += frame.frameLen;
    }

    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() +
                        static_cast<std::ptrdiff_t>(consumed));
    // A frame boundary resets the partial-frame stall clock.
    conn.partialSince = conn.rbuf.empty() ? Clock::time_point{}
                                          : Clock::now();
}

bool
PhiServer::handleRequestFrame(Connection& conn,
                              const ParsedFrame& frame)
{
    if (frame.type == FrameType::StatsRequest) {
        const std::string text = statsText();
        io::ByteWriter body;
        body.str(text);
        MutexLock lock(stateMutex);
        ++stats.statsServed;
        conn.outbox.push_back(
            encodeFrame(FrameType::StatsReply, body.buffer()));
        conn.outboxBytes += conn.outbox.back().size();
        return true;
    }

    if (frame.type == FrameType::OpenSession ||
        frame.type == FrameType::StepSession ||
        frame.type == FrameType::CloseSession) {
        handleSessionFrame(conn, frame);
        return true;
    }

    if (frame.type != FrameType::Request) {
        // Cleanly framed, but not something a client may send
        // (Response/Error/StatsReply are server-to-client). The
        // framing is intact, so the connection survives.
        MutexLock lock(stateMutex);
        ++stats.protocolErrors;
        ++stats.wireErrors;
        conn.outbox.push_back(encodeErrorFrame(
            0, WireErrorCode::BadFrameType,
            "clients may not send this frame type"));
        conn.outboxBytes += conn.outbox.back().size();
        return true;
    }

    WireRequest req;
    try {
        io::ByteReader body(frame.body, frame.bodyLen);
        req = decodeRequest(body);
    } catch (const io::IoError& e) {
        // The frame was well-delimited but its body lies. This is a
        // per-request failure, not a stream desync: reject it typed
        // and keep serving the connection.
        MutexLock lock(stateMutex);
        ++stats.protocolErrors;
        ++stats.wireErrors;
        conn.outbox.push_back(encodeErrorFrame(
            0, WireErrorCode::MalformedFrame, e.what()));
        conn.outboxBytes += conn.outbox.back().size();
        return true;
    }

    // The drain gate reads the *request* flag, not the loop's observed
    // state: once requestDrain() has returned, no request parsed
    // afterwards is ever admitted — deterministically.
    if (drainRequested.load() || drainingFlag.load()) {
        MutexLock lock(stateMutex);
        ++stats.drainRejected;
        ++stats.wireErrors;
        conn.outbox.push_back(encodeErrorFrame(
            req.id, WireErrorCode::ServerDraining,
            "server is draining; retry against another instance"));
        conn.outboxBytes += conn.outbox.back().size();
        return true;
    }

    SubmitOptions opts;
    if (req.deadlineMs > 0)
        opts.deadline = Clock::now() +
                        std::chrono::milliseconds(req.deadlineMs);
    opts.priority = req.priority;

    // submit() never throws: invalid models/layers/shapes resolve the
    // future with a typed EngineError, which the completion thread
    // turns into an Error frame for exactly this request.
    ModelHandle handle{req.model, req.version > 0 ? req.version : 1};
    std::future<EngineResponse> future = asyncEngine.submit(
        handle, req.layer, std::move(req.acts), opts);

    {
        MutexLock lock(stateMutex);
        ++stats.requests;
        ++conn.inFlight;
        ++activeRequests;
    }
    {
        InFlight work;
        work.connId = conn.id;
        work.requestId = req.id;
        work.layer = req.layer;
        work.future = std::move(future);
        MutexLock lock(completionMutex);
        completionQueue.push_back(std::move(work));
    }
    completionCv.notify_one();
    return true;
}

void
PhiServer::handleSessionFrame(Connection& conn,
                              const ParsedFrame& frame)
{
    // Body decoding mirrors handleRequestFrame: a well-delimited
    // frame whose body lies is a per-request rejection, not a stream
    // desync, so the connection keeps serving.
    WireOpenSession openMsg;
    WireStepSession stepMsg;
    WireCloseSession closeMsg;
    uint32_t requestId = 0;
    try {
        io::ByteReader body(frame.body, frame.bodyLen);
        switch (frame.type) {
        case FrameType::OpenSession:
            openMsg = decodeOpenSession(body);
            requestId = openMsg.id;
            break;
        case FrameType::StepSession:
            stepMsg = decodeStepSession(body);
            requestId = stepMsg.id;
            break;
        default:
            closeMsg = decodeCloseSession(body);
            requestId = closeMsg.id;
            break;
        }
    } catch (const io::IoError& e) {
        MutexLock lock(stateMutex);
        ++stats.protocolErrors;
        ++stats.wireErrors;
        conn.outbox.push_back(encodeErrorFrame(
            0, WireErrorCode::MalformedFrame, e.what()));
        conn.outboxBytes += conn.outbox.back().size();
        return;
    }

    // The same deterministic drain gate as stateless requests: no
    // session frame parsed after requestDrain() is ever admitted —
    // the drain epilogue is about to snapshot (or close) every
    // session, and a step racing in behind it would not be covered.
    if (drainRequested.load() || drainingFlag.load()) {
        MutexLock lock(stateMutex);
        ++stats.drainRejected;
        ++stats.wireErrors;
        conn.outbox.push_back(encodeErrorFrame(
            requestId, WireErrorCode::ServerDraining,
            "server is draining; retry against another instance"));
        conn.outboxBytes += conn.outbox.back().size();
        return;
    }

    try {
        if (frame.type == FrameType::OpenSession) {
            // open() is registry + allocation work only (no kernel,
            // no engine queue), so serving it inline keeps the net
            // loop's latency bounded.
            const uint64_t sid = sessionManager.open(
                openMsg.model, std::move(openMsg.params));
            const SessionInfo info = sessionManager.info(sid);
            io::ByteWriter body;
            encodeSessionOpened(
                body, {openMsg.id, sid, info.model.name,
                       info.model.version,
                       static_cast<uint32_t>(info.layerCount)});
            MutexLock lock(stateMutex);
            ++stats.sessionOpens;
            ++stats.responses;
            conn.outbox.push_back(
                encodeFrame(FrameType::SessionOpened, body.buffer()));
            conn.outboxBytes += conn.outbox.back().size();
            return;
        }

        if (frame.type == FrameType::CloseSession) {
            // close() waits at most one pump round for an in-flight
            // frame — bounded, like open().
            const uint64_t steps =
                sessionManager.close(closeMsg.sessionId);
            io::ByteWriter body;
            encodeSessionClosed(
                body, {closeMsg.id, closeMsg.sessionId, steps});
            MutexLock lock(stateMutex);
            ++stats.sessionCloses;
            ++stats.responses;
            conn.outbox.push_back(
                encodeFrame(FrameType::SessionClosed, body.buffer()));
            conn.outboxBytes += conn.outbox.back().size();
            return;
        }

        // StepSession: the temporal forward runs on the pump + engine
        // threads; its future rides the completion queue exactly like
        // a stateless submit, so drain and half-close accounting see
        // it as one in-flight request. step() never throws — typed
        // failures (SessionNotFound/Expired, ShapeMismatch, rolled-
        // back engine errors) resolve the future instead.
        InFlight work;
        work.connId = conn.id;
        work.requestId = stepMsg.id;
        work.kind = InFlight::Kind::SessionStep;
        work.sessionFuture = sessionManager.step(
            stepMsg.sessionId, std::move(stepMsg.frames));
        {
            MutexLock lock(stateMutex);
            ++stats.requests;
            ++stats.sessionStepFrames;
            ++conn.inFlight;
            ++activeRequests;
        }
        {
            MutexLock lock(completionMutex);
            completionQueue.push_back(std::move(work));
        }
        completionCv.notify_one();
    } catch (const EngineError& e) {
        // open()/close() lifecycle failures: typed, per-request, the
        // connection survives.
        MutexLock lock(stateMutex);
        ++stats.wireErrors;
        conn.outbox.push_back(
            encodeErrorFrame(requestId, wireCode(e.code()), e.what()));
        conn.outboxBytes += conn.outbox.back().size();
    }
}

void
PhiServer::deliverOutboxes()
{
    std::vector<uint64_t> overflowed;
    {
        MutexLock lock(stateMutex);
        for (auto& [fd, conn] : connsByFd) {
            while (!conn->outbox.empty()) {
                std::vector<uint8_t>& f = conn->outbox.front();
                conn->wbuf.insert(conn->wbuf.end(), f.begin(),
                                  f.end());
                conn->outboxBytes -= f.size();
                conn->outbox.pop_front();
            }
            const size_t pending =
                conn->wbuf.size() - conn->woff + conn->outboxBytes;
            if (pending > serverConfig.maxWriteBufferBytes) {
                // A client reading slower than it submits must not
                // grow server memory without bound: drop it.
                ++stats.slowClientDrops;
                overflowed.push_back(conn->id);
            }
        }
    }
    for (uint64_t id : overflowed)
        closeConnection(id);

    std::vector<uint64_t> toFlush;
    for (auto& [fd, conn] : connsByFd)
        if (conn->wbuf.size() > conn->woff)
            toFlush.push_back(conn->id);
    for (uint64_t id : toFlush) {
        for (auto& [fd, conn] : connsByFd)
            if (conn->id == id) {
                flushWrites(*conn);
                break;
            }
    }
}

void
PhiServer::queueFrame(Connection& conn, std::vector<uint8_t> frame)
{
    MutexLock lock(stateMutex);
    conn.outboxBytes += frame.size();
    conn.outbox.push_back(std::move(frame));
}

void
PhiServer::flushWrites(Connection& conn)
{
    if (conn.wbuf.size() > conn.woff) {
        bool injected = false;
        PHI_FAILPOINT(failpoint::sites::kNetWrite, injected = true);
        if (injected) {
            // Write path failure: the response bytes are
            // unrecoverable mid-frame, so the only honest move is to
            // hang up — the client sees ConnectionLost, a typed
            // client-side error, never a corrupt half-frame.
            {
                MutexLock lock(stateMutex);
                ++stats.writeFailures;
            }
            closeConnection(conn.id);
            return;
        }
    }

    while (conn.wbuf.size() > conn.woff) {
        const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                                 conn.wbuf.size() - conn.woff,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            conn.woff += static_cast<size_t>(n);
            conn.writeStalledSince = Clock::time_point{};
            conn.lastActivity = Clock::now();
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (conn.writeStalledSince == Clock::time_point{})
                conn.writeStalledSince = Clock::now();
            break;
        }
        if (n < 0 && errno == EINTR)
            continue;
        // Peer is gone (EPIPE/ECONNRESET/...): nothing to flush to.
        closeConnection(conn.id);
        return;
    }

    if (conn.woff == conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.woff = 0;
    } else if (conn.woff > (1u << 16)) {
        conn.wbuf.erase(conn.wbuf.begin(),
                        conn.wbuf.begin() +
                            static_cast<std::ptrdiff_t>(conn.woff));
        conn.woff = 0;
    }

    bool moreQueued;
    size_t inFlightHere;
    {
        MutexLock lock(stateMutex);
        moreQueued = !conn.outbox.empty();
        inFlightHere = conn.inFlight;
    }
    const bool pendingBytes = conn.wbuf.size() > conn.woff;

    if (!pendingBytes && !moreQueued && conn.closeAfterFlush &&
        inFlightHere == 0) {
        closeConnection(conn.id);
        return;
    }

    const bool wantWrite = pendingBytes;
    if (wantWrite != conn.wantWrite) {
        conn.wantWrite = wantWrite;
        epoll_event ev{};
        ev.events = EPOLLIN | (wantWrite ? EPOLLOUT : 0u);
        ev.data.fd = conn.fd;
        ::epoll_ctl(epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
    }
}

void
PhiServer::sweepTimeouts(Clock::time_point now)
{
    auto expired = [&](Clock::time_point since, uint64_t limitMs) {
        return limitMs > 0 && since != Clock::time_point{} &&
               now - since >= std::chrono::milliseconds(limitMs);
    };

    std::vector<uint64_t> writeStalled;
    std::vector<uint64_t> drained;
    for (auto& [fd, conn] : connsByFd) {
        size_t inFlightHere;
        bool outboxEmpty;
        {
            MutexLock lock(stateMutex);
            inFlightHere = conn->inFlight;
            outboxEmpty = conn->outbox.empty();
        }
        const bool flushed = conn->wbuf.size() == conn->woff &&
                             outboxEmpty;

        if (drainingFlag.load() && inFlightHere == 0 && flushed) {
            drained.push_back(conn->id);
            continue;
        }
        if (expired(conn->partialSince, serverConfig.readTimeoutMs)) {
            // A stalled partial frame: tell the client (best effort)
            // and hang up — it holds buffer memory hostage otherwise.
            queueFrame(*conn,
                       encodeErrorFrame(
                           0, WireErrorCode::Timeout,
                           "partial frame stalled past the read "
                           "timeout"));
            {
                MutexLock lock(stateMutex);
                ++stats.timeouts;
                ++stats.wireErrors;
            }
            conn->closeAfterFlush = true;
            conn->partialSince = Clock::time_point{};
            // Delivery happens on the next deliverOutboxes() pass —
            // closing here would invalidate this very iteration.
            continue;
        }
        if (expired(conn->writeStalledSince,
                    serverConfig.writeTimeoutMs)) {
            MutexLock lock(stateMutex);
            ++stats.slowClientDrops;
            writeStalled.push_back(conn->id);
            continue;
        }
        if (inFlightHere == 0 && flushed && conn->rbuf.empty() &&
            !conn->closeAfterFlush &&
            expired(conn->lastActivity, serverConfig.idleTimeoutMs)) {
            MutexLock lock(stateMutex);
            ++stats.timeouts;
            writeStalled.push_back(conn->id);
        }
    }
    for (uint64_t id : writeStalled)
        closeConnection(id);
    for (uint64_t id : drained)
        closeConnection(id);
}

void
PhiServer::finishSessionsForDrain()
{
    // The drain gate stopped admitting session frames before
    // drainComplete() observed an idle server, so this flush covers
    // exactly the steps admitted before the drain began (or, after a
    // deadline force-close, whatever is still in flight).
    sessionManager.drain();
    const size_t open = sessionManager.size();
    if (open == 0)
        return;

    if (!serverConfig.sessionSnapshotPath.empty()) {
        try {
            io::saveSessions(sessionManager.snapshot(),
                             serverConfig.sessionSnapshotPath);
            MutexLock lock(stateMutex);
            stats.sessionsSnapshotted += open;
        } catch (const io::IoError&) {
            // An unwritable snapshot must not hold SIGTERM hostage;
            // the loss is visible as sessions_snapshotted staying 0.
            MutexLock lock(stateMutex);
            ++stats.writeFailures;
        }
        return;
    }

    for (const SessionInfo& s : sessionManager.list()) {
        try {
            sessionManager.close(s.id);
        } catch (const EngineError&) {
            // Raced with the idle TTL: already gone, which is fine.
        }
    }
}

void
PhiServer::beginDrain()
{
    drainingFlag.store(true);
    drainDeadline =
        Clock::now() +
        std::chrono::milliseconds(serverConfig.drainTimeoutMs);
    // Stop accepting: the listen socket leaves the epoll set and
    // closes, so new connections are refused by the kernel, not
    // queued behind a drain that will never serve them.
    if (listenFd >= 0) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
        ::close(listenFd);
        listenFd = -1;
    }
}

bool
PhiServer::drainComplete()
{
    {
        MutexLock lock(completionMutex);
        if (!completionQueue.empty())
            return false;
    }
    MutexLock lock(stateMutex);
    return activeRequests == 0 && connsById.empty();
}

void
PhiServer::closeConnection(uint64_t connId, bool countClosed)
{
    int fd = -1;
    {
        MutexLock lock(stateMutex);
        auto it = connsById.find(connId);
        if (it == connsById.end())
            return;
        fd = it->second->fd;
        connsById.erase(it);
        if (countClosed)
            ++stats.closed;
    }
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    connsByFd.erase(fd); // frees the Connection (outbox responses
                         // from the completion thread are dropped by
                         // the connsById lookup failing)
}

void
PhiServer::closeAllConnections()
{
    std::vector<uint64_t> ids;
    {
        MutexLock lock(stateMutex);
        for (const auto& [id, conn] : connsById)
            ids.push_back(id);
    }
    for (uint64_t id : ids)
        closeConnection(id);
}

int64_t
PhiServer::nextTimeoutMs(Clock::time_point now) const
{
    // Coarse but correct: wake at least every 50ms whenever any
    // deadline could be pending, so sweeps observe short test-scale
    // timeouts promptly; park longer when nothing is timed.
    int64_t wait = 1000;
    const bool anyTimed = serverConfig.readTimeoutMs > 0 ||
                          serverConfig.writeTimeoutMs > 0 ||
                          serverConfig.idleTimeoutMs > 0;
    bool anyConns;
    {
        MutexLock lock(stateMutex);
        anyConns = !connsById.empty();
    }
    if (anyTimed && anyConns)
        wait = 50;
    if (drainingFlag.load()) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                drainDeadline - now)
                .count();
        wait = std::clamp<int64_t>(left, 1, 50);
    }
    return wait;
}

// ---- completion thread ----------------------------------------------

void
PhiServer::completionLoop()
{
    while (true) {
        InFlight work;
        {
            UniqueLock lock(completionMutex);
            while (!completionStop && completionQueue.empty())
                completionCv.wait(lock);
            if (completionQueue.empty() && completionStop)
                return;
            work = std::move(completionQueue.front());
            completionQueue.pop_front();
        }

        // Engine futures are consumed unconditionally — even when the
        // connection died or the server is stopping, the response is
        // got and dropped, never left dangling.
        std::vector<uint8_t> frame;
        bool isError = false;
        try {
            if (work.kind == InFlight::Kind::SessionStep) {
                SessionStepResult res = work.sessionFuture.get();
                io::ByteWriter body;
                encodeSessionStepped(body, {work.requestId,
                                            res.sessionId,
                                            res.firstStep,
                                            std::move(res.spikes)});
                frame = encodeFrame(FrameType::SessionStepped,
                                    body.buffer());
            } else {
                EngineResponse resp = work.future.get();
                io::ByteWriter body;
                encodeResponse(body,
                               {work.requestId, resp.model.name,
                                resp.model.version,
                                static_cast<uint32_t>(resp.layer),
                                std::move(resp.out)});
                frame =
                    encodeFrame(FrameType::Response, body.buffer());
            }
        } catch (const EngineError& e) {
            frame = encodeErrorFrame(work.requestId,
                                     wireCode(e.code()), e.what());
            isError = true;
        } catch (const io::IoError& e) {
            frame = encodeErrorFrame(
                work.requestId, WireErrorCode::IoFailure, e.what());
            isError = true;
        } catch (const std::exception& e) {
            frame = encodeErrorFrame(work.requestId,
                                     WireErrorCode::Internal,
                                     e.what());
            isError = true;
        }

        bool delivered = false;
        {
            MutexLock lock(stateMutex);
            --activeRequests;
            auto it = connsById.find(work.connId);
            if (it != connsById.end()) {
                Connection& conn = *it->second;
                conn.outboxBytes += frame.size();
                conn.outbox.push_back(std::move(frame));
                if (conn.inFlight > 0)
                    --conn.inFlight;
                if (isError)
                    ++stats.wireErrors;
                else
                    ++stats.responses;
                delivered = true;
            }
        }
        if (delivered && wakeFd >= 0) {
            const uint64_t one = 1;
            [[maybe_unused]] ssize_t n =
                ::write(wakeFd, &one, sizeof(one));
        }
    }
}

#else // !__linux__

// The serving frontend is epoll-based; on other platforms the class
// compiles (so the facade header stays portable) but cannot start.

void
PhiServer::start()
{
    throw NetError(WireErrorCode::ConnectError,
                   "PhiServer requires Linux (epoll)");
}

uint16_t PhiServer::port() const { return 0; }
void PhiServer::requestDrain() {}
void PhiServer::stop() {}
void PhiServer::waitUntilStopped() {}
bool PhiServer::running() const { return false; }
bool PhiServer::draining() const { return false; }
size_t PhiServer::connectionCount() const { return 0; }
ServerCounters PhiServer::counters() const { return {}; }
std::string PhiServer::statsText() const { return "phi-server\nend\n"; }
void PhiServer::netLoop() {}
void PhiServer::completionLoop() {}
void PhiServer::acceptPending() {}
void PhiServer::handleReadable(Connection&) {}
void PhiServer::processBuffer(Connection&) {}
bool PhiServer::handleRequestFrame(Connection&, const ParsedFrame&)
{
    return false;
}
void PhiServer::handleSessionFrame(Connection&, const ParsedFrame&) {}
void PhiServer::finishSessionsForDrain() {}
void PhiServer::queueFrame(Connection&, std::vector<uint8_t>) {}
void PhiServer::flushWrites(Connection&) {}
void PhiServer::deliverOutboxes() {}
void PhiServer::sweepTimeouts(Clock::time_point) {}
void PhiServer::beginDrain() {}
bool PhiServer::drainComplete() { return true; }
void PhiServer::closeConnection(uint64_t, bool) {}
void PhiServer::closeAllConnections() {}
int64_t PhiServer::nextTimeoutMs(Clock::time_point) const { return 0; }

#endif // __linux__

} // namespace phi::net
