/**
 * @file
 * PhiClient: a blocking wire-protocol client for PhiServer. One
 * connection, synchronous request()/response by default, with
 * explicit sendRequest()/readReply() halves for pipelining many
 * requests down one socket.
 *
 * Error transparency is the design center: a failure reported by the
 * server crosses the wire as a typed Error frame, and the client
 * rethrows it as the exception an *in-process* caller of
 * AsyncPhiEngine would have seen — EngineError for the engine band,
 * io::IoError for the artifact band, NetError only for the
 * protocol/transport band that has no in-process equivalent. Code
 * written against the engine ports to the wire without changing a
 * catch block.
 */

#ifndef PHI_NET_CLIENT_HH
#define PHI_NET_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hh"

namespace phi::net
{

/** Reply to one pipelined request: a response or a typed error,
 *  correlated by the request id the client chose. */
struct WireReply
{
    bool ok = false;
    WireResponse response; // valid when ok
    WireError error;       // valid when !ok
};

class PhiClient
{
  public:
    /**
     * Connect to a PhiServer. @throws NetError (ConnectError) when
     * the server is unreachable. @p timeoutMs bounds every subsequent
     * blocking read/write on the socket (0 = no bound); an expired
     * bound surfaces as NetError (Timeout).
     */
    PhiClient(const std::string& host, uint16_t port,
              uint64_t timeoutMs = 30'000);

    ~PhiClient();

    PhiClient(PhiClient&& other) noexcept;
    PhiClient& operator=(PhiClient&& other) noexcept;
    PhiClient(const PhiClient&) = delete;
    PhiClient& operator=(const PhiClient&) = delete;

    /**
     * Serve one request synchronously. Fills in req.id when it is 0.
     * @throws EngineError / io::IoError / NetError by wire-error band
     * (see the file comment); returns the response otherwise.
     */
    WireResponse request(const WireRequest& req);

    /** Convenience: route {model, layer, acts} with default options. */
    WireResponse request(const std::string& model, uint32_t layer,
                         const BinaryMatrix& acts);

    /** Pipelining half 1: write one Request frame; returns the id the
     *  reply will carry. Does not wait for the reply. */
    uint32_t sendRequest(const WireRequest& req);

    /** Pipelining half 2: read the next Response/Error frame. Unlike
     *  request(), a request-level error is *returned*, not thrown, so
     *  a pipeline can account per-request failures; connection-level
     *  failures (id 0) and transport errors still throw. */
    WireReply readReply();

    /** Fetch the server's plaintext metrics via a StatsRequest frame. */
    std::string statsText();

    // ---- stateful sessions ------------------------------------------
    // Synchronous session verbs (runtime/session.hh over the wire).
    // The session id is server-scoped: it stays valid across
    // reconnects, so a client may close its socket, reconnect, and
    // keep stepping the same session. Typed failures rethrow by band
    // exactly like request() — e.g. EngineError(SessionExpired).

    /**
     * Open a session against @p model's current version. @p params is
     * the per-layer LIF configuration (empty = server defaults). The
     * reply reports the pinned epoch and layer count.
     */
    WireSessionOpened openSession(const std::string& model,
                                  std::vector<LifParams> params = {});

    /** Stream T x K spike frames into a session; returns the final
     *  layer's T x N spikes and the global index of frame 0. */
    WireSessionStepped stepSession(uint64_t sessionId,
                                   const BinaryMatrix& frames);

    /** Close a session; returns the total steps it served. */
    WireSessionClosed closeSession(uint64_t sessionId);

    /**
     * The raw socket fd — for tests that need to misbehave: send
     * truncated garbage, half-close, or disconnect mid-request.
     */
    int fd() const { return sock; }

    /** Close the socket now (idempotent). Subsequent calls throw
     *  NetError (ConnectionLost). */
    void close();

    /** Escape hatch for protocol-hardening tests: write raw bytes to
     *  the socket, bypassing the codec. */
    void sendRaw(const void* data, size_t len);

  private:
    std::vector<uint8_t> readFrame(FrameType& type);
    void writeAll(const void* data, size_t len);
    /** Send one frame, read one reply: an Error frame rethrows by
     *  band, any type other than @p expect throws BadFrameType. */
    std::vector<uint8_t> roundTrip(const std::vector<uint8_t>& frame,
                                   FrameType expect);

    int sock = -1;
    uint32_t nextId = 1;
};

} // namespace phi::net

#endif // PHI_NET_CLIENT_HH
