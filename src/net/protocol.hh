/**
 * @file
 * The phi wire protocol: a length-prefixed binary framing for serving
 * requests over TCP, plus the typed error taxonomy a client sees.
 *
 * Every frame is
 *
 *     +--------+--------+---------+----------------+
 *     | magic  | type   | bodyLen | body (bodyLen) |
 *     | u32 LE | u32 LE | u32 LE  |                |
 *     +--------+--------+---------+----------------+
 *
 * with magic = "PHIW" (0x57494850 little-endian) and bodyLen bounded
 * by the server's maxFrameBytes. Frame bodies reuse the artifact
 * format's ByteWriter/ByteReader primitives (io/serialize.hh), so the
 * wire is endian-stable and every decode is bounds-checked: a lying
 * length field or truncated body is a typed rejection, never a read
 * off the end of a buffer.
 *
 * Frame types:
 *  - Request:  {id, model, version, layer, deadlineMs, priority,
 *               activations} — one serving request. The deadline is
 *               carried as a relative budget in milliseconds (0 =
 *               none) and anchored to the server's clock on receipt,
 *               so client/server clock skew never expires a request.
 *  - Response: {id, model@version that served it, layer, int32 out}.
 *  - Error:    {id, WireErrorCode, message} — the typed failure of
 *               exactly one request (or id 0 for connection-level
 *               protocol errors).
 *  - StatsRequest/StatsReply: plaintext metrics. The same text is
 *               also served to a bare "STATS\n" line, so an operator
 *               can `echo STATS | nc host port` without a phi client.
 *
 * Error taxonomy: WireErrorCode carries three bands — protocol-level
 * codes (framing, timeouts, overload of the connection itself),
 * engine-level codes mirroring every EngineErrorCode one-for-one, and
 * an artifact band for io::IoError. PhiClient rethrows each band as
 * the exception type an in-process caller would have seen (EngineError
 * / io::IoError / NetError), so code written against AsyncPhiEngine
 * ports to the wire without changing its error handling.
 */

#ifndef PHI_NET_PROTOCOL_HH
#define PHI_NET_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hh"
#include "io/serialize.hh"
#include "numeric/binary_matrix.hh"
#include "numeric/matrix.hh"
#include "snn/lif.hh"

namespace phi::net
{

/** "PHIW" when read as little-endian bytes off the wire. */
inline constexpr uint32_t kMagic = 0x57494850u;

/** Bytes of {magic, type, bodyLen}. */
inline constexpr size_t kFrameHeaderBytes = 12;

/** Default ceiling on one frame's body; servers may configure lower.
 *  Anything larger is rejected before a byte of body is buffered. */
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameType : uint32_t
{
    Request = 1,
    Response = 2,
    Error = 3,
    StatsRequest = 4,
    StatsReply = 5,
    // -- stateful sessions (runtime/session.hh) ----------------------
    OpenSession = 6,    // {id, model, per-layer LifParams}
    StepSession = 7,    // {id, sessionId, T x K spike frames}
    CloseSession = 8,   // {id, sessionId}
    SessionOpened = 9,  // {id, sessionId, model@version, layers}
    SessionStepped = 10, // {id, sessionId, firstStep, T x N spikes}
    SessionClosed = 11, // {id, sessionId, steps served}
};

/**
 * Typed wire failure. Three bands, so the client can rethrow the
 * exception an in-process caller would have seen:
 *   1..99    protocol/transport — surfaces as NetError
 *   100..199 engine — mirrors EngineErrorCode, surfaces as EngineError
 *   200..299 artifact — surfaces as io::IoError
 */
enum class WireErrorCode : uint16_t
{
    // -- protocol/transport band --------------------------------------
    BadMagic = 1,        // frame header does not start with "PHIW"
    BadFrameType = 2,    // header type is not one a client may send
    FrameTooLarge = 3,   // bodyLen exceeds the server's maxFrameBytes
    MalformedFrame = 4,  // body failed bounds-checked decoding
    ConnectionLost = 5,  // peer vanished mid-exchange
    Timeout = 6,         // read/write deadline expired
    ServerDraining = 7,  // request arrived after SIGTERM drain began
    WriteOverflow = 8,   // slow client: per-connection write cap hit
    ConnectError = 9,    // client could not reach the server
    TooManyConnections = 10, // server at its connection cap

    // -- engine band: EngineErrorCode, one-for-one --------------------
    EmptyModel = 100,
    InvalidLayer = 101,
    MissingWeights = 102,
    ShapeMismatch = 103,
    NullActivation = 104,
    // 105 is reserved (the retired PendingRequests): never reuse it.
    // A peer's 105 has no engine inverse and surfaces as NetError.
    QueueFull = 106,
    Stopped = 107,
    UnknownModel = 108,
    ModelExists = 109,
    ModelBusy = 110,
    DeadlineExceeded = 111,
    Internal = 112,
    SessionNotFound = 113,
    SessionExpired = 114,
    TooManySessions = 115,

    // -- artifact band ------------------------------------------------
    IoFailure = 200,
};

const char* wireErrorCodeName(WireErrorCode code);

/** The wire code an EngineError crosses the socket as (exhaustive —
 *  every EngineErrorCode has exactly one wire image). */
WireErrorCode wireCode(EngineErrorCode code);

/** Inverse of wireCode(); nullopt for non-engine bands. */
std::optional<EngineErrorCode> engineCodeOf(WireErrorCode code);

inline std::ostream&
operator<<(std::ostream& os, WireErrorCode code)
{
    return os << wireErrorCodeName(code);
}

/**
 * A protocol/transport-level failure: the connection, not the
 * request, went wrong. Engine-band wire errors surface as EngineError
 * and artifact-band ones as io::IoError instead — this class is only
 * for the band neither of those covers.
 */
class NetError : public std::runtime_error
{
  public:
    NetError(WireErrorCode code, const std::string& what)
        : std::runtime_error(std::string("phi net error [") +
                             wireErrorCodeName(code) + "]: " + what),
          errorCode(code)
    {
    }

    WireErrorCode code() const { return errorCode; }
    const char* codeName() const { return wireErrorCodeName(errorCode); }

  private:
    WireErrorCode errorCode;
};

/** One serving request as it crosses the wire. */
struct WireRequest
{
    /** Client-chosen correlation id, echoed by the response (or the
     *  error) so pipelined requests can be matched up. */
    uint32_t id = 0;

    std::string model;

    /**
     * Advisory: the version the client last saw. Routing follows the
     * registry's hot-swap contract — the name's *current* version
     * serves, and the response reports which one that was.
     */
    uint64_t version = 0;

    uint32_t layer = 0;

    /** Relative deadline budget, ms; 0 = serve whenever. Anchored to
     *  the server's steady clock at frame receipt. */
    uint32_t deadlineMs = 0;

    int32_t priority = 0;

    BinaryMatrix acts;
};

/** One served result as it crosses the wire. */
struct WireResponse
{
    uint32_t id = 0;
    std::string model;   // name that served
    uint64_t version = 0; // exact version that served
    uint32_t layer = 0;
    Matrix<int32_t> out;
};

/** One typed failure as it crosses the wire. */
struct WireError
{
    uint32_t id = 0; // 0 = connection-level, not tied to a request
    WireErrorCode code = WireErrorCode::MalformedFrame;
    std::string message;
};

// ---- stateful-session frames ----------------------------------------
// A session is opened against a model name, streamed spike frames
// (each StepSession carries T timesteps of layer-0 input; the server
// answers with the final layer's T x N spikes), and closed. The
// session id is server-assigned and scoped to the *server*, not the
// connection — it stays valid across reconnects until closed or
// evicted by the idle TTL.

/** Open a session against @p model's current version. */
struct WireOpenSession
{
    uint32_t id = 0; // correlation id, echoed by SessionOpened/Error
    std::string model;
    /** LIF dynamics per layer; empty = server defaults for every
     *  layer, otherwise exactly one entry per model layer. */
    std::vector<LifParams> params;
};

/** Server's answer to OpenSession. */
struct WireSessionOpened
{
    uint32_t id = 0;
    uint64_t sessionId = 0;
    std::string model;    // name the session serves
    uint64_t version = 0; // exact epoch pinned for its lifetime
    uint32_t layers = 0;  // depth of the temporal forward
};

/** Stream T timesteps of layer-0 spike input into a session. */
struct WireStepSession
{
    uint32_t id = 0;
    uint64_t sessionId = 0;
    /** T x K: row t is the spike frame of timestep firstStep + t. */
    BinaryMatrix frames;
};

/** Server's answer to StepSession: the last layer's spike raster. */
struct WireSessionStepped
{
    uint32_t id = 0;
    uint64_t sessionId = 0;
    /** Global timestep index of row 0 of `spikes`. */
    uint64_t firstStep = 0;
    BinaryMatrix spikes; // T x N
};

struct WireCloseSession
{
    uint32_t id = 0;
    uint64_t sessionId = 0;
};

struct WireSessionClosed
{
    uint32_t id = 0;
    uint64_t sessionId = 0;
    uint64_t steps = 0; // temporal steps the session served in total
};

// ---- body codecs ----------------------------------------------------
// Encoders append to a ByteWriter; decoders read from a bounds-checked
// ByteReader and throw io::IoError on truncated/corrupt bodies (the
// server converts that into a MalformedFrame wire error).

void encodeRequest(io::ByteWriter& w, const WireRequest& req);
WireRequest decodeRequest(io::ByteReader& r);

void encodeResponse(io::ByteWriter& w, const WireResponse& resp);
WireResponse decodeResponse(io::ByteReader& r);

void encodeError(io::ByteWriter& w, const WireError& err);
WireError decodeError(io::ByteReader& r);

void encodeOpenSession(io::ByteWriter& w, const WireOpenSession& msg);
WireOpenSession decodeOpenSession(io::ByteReader& r);

void encodeSessionOpened(io::ByteWriter& w,
                         const WireSessionOpened& msg);
WireSessionOpened decodeSessionOpened(io::ByteReader& r);

void encodeStepSession(io::ByteWriter& w, const WireStepSession& msg);
WireStepSession decodeStepSession(io::ByteReader& r);

void encodeSessionStepped(io::ByteWriter& w,
                          const WireSessionStepped& msg);
WireSessionStepped decodeSessionStepped(io::ByteReader& r);

void encodeCloseSession(io::ByteWriter& w, const WireCloseSession& msg);
WireCloseSession decodeCloseSession(io::ByteReader& r);

void encodeSessionClosed(io::ByteWriter& w,
                         const WireSessionClosed& msg);
WireSessionClosed decodeSessionClosed(io::ByteReader& r);

/** A complete frame (header + body) ready to write to a socket. */
std::vector<uint8_t> encodeFrame(FrameType type,
                                 const std::vector<uint8_t>& body);

/** Convenience: a whole Error frame in one call. */
std::vector<uint8_t> encodeErrorFrame(uint32_t id, WireErrorCode code,
                                      const std::string& message);

// ---- incremental frame parsing --------------------------------------

/** Outcome of trying to parse one frame off a byte stream. */
enum class ParseStatus
{
    NeedMore, // header or body not fully buffered yet
    Frame,    // one complete frame parsed
    Bad,      // unrecoverable framing error (desynchronized stream)
};

/** A parsed frame, viewing (not owning) the input buffer. */
struct ParsedFrame
{
    FrameType type = FrameType::Request;
    const uint8_t* body = nullptr;
    size_t bodyLen = 0;
    size_t frameLen = 0; // header + body bytes consumed
};

/**
 * Try to parse one frame from @p data. On Bad, @p errCode/@p errMsg
 * name the violation; the stream cannot be resynchronized (the length
 * prefix itself is untrustworthy), so the connection must be closed
 * after reporting the error. NeedMore with a sane header is the
 * normal partial-read case.
 */
ParseStatus tryParseFrame(const uint8_t* data, size_t len,
                          size_t maxFrameBytes, ParsedFrame& out,
                          WireErrorCode& errCode, std::string& errMsg);

} // namespace phi::net

#endif // PHI_NET_PROTOCOL_HH
