#include "net/protocol.hh"

#include <cstring>

namespace phi::net
{

const char*
wireErrorCodeName(WireErrorCode code)
{
    switch (code) {
    case WireErrorCode::BadMagic: return "BadMagic";
    case WireErrorCode::BadFrameType: return "BadFrameType";
    case WireErrorCode::FrameTooLarge: return "FrameTooLarge";
    case WireErrorCode::MalformedFrame: return "MalformedFrame";
    case WireErrorCode::ConnectionLost: return "ConnectionLost";
    case WireErrorCode::Timeout: return "Timeout";
    case WireErrorCode::ServerDraining: return "ServerDraining";
    case WireErrorCode::WriteOverflow: return "WriteOverflow";
    case WireErrorCode::ConnectError: return "ConnectError";
    case WireErrorCode::TooManyConnections: return "TooManyConnections";
    case WireErrorCode::EmptyModel: return "EmptyModel";
    case WireErrorCode::InvalidLayer: return "InvalidLayer";
    case WireErrorCode::MissingWeights: return "MissingWeights";
    case WireErrorCode::ShapeMismatch: return "ShapeMismatch";
    case WireErrorCode::NullActivation: return "NullActivation";
    case WireErrorCode::QueueFull: return "QueueFull";
    case WireErrorCode::Stopped: return "Stopped";
    case WireErrorCode::UnknownModel: return "UnknownModel";
    case WireErrorCode::ModelExists: return "ModelExists";
    case WireErrorCode::ModelBusy: return "ModelBusy";
    case WireErrorCode::DeadlineExceeded: return "DeadlineExceeded";
    case WireErrorCode::Internal: return "Internal";
    case WireErrorCode::SessionNotFound: return "SessionNotFound";
    case WireErrorCode::SessionExpired: return "SessionExpired";
    case WireErrorCode::TooManySessions: return "TooManySessions";
    case WireErrorCode::IoFailure: return "IoFailure";
    }
    return "Unknown";
}

WireErrorCode
wireCode(EngineErrorCode code)
{
    switch (code) {
    case EngineErrorCode::EmptyModel: return WireErrorCode::EmptyModel;
    case EngineErrorCode::InvalidLayer:
        return WireErrorCode::InvalidLayer;
    case EngineErrorCode::MissingWeights:
        return WireErrorCode::MissingWeights;
    case EngineErrorCode::ShapeMismatch:
        return WireErrorCode::ShapeMismatch;
    case EngineErrorCode::NullActivation:
        return WireErrorCode::NullActivation;
    case EngineErrorCode::QueueFull: return WireErrorCode::QueueFull;
    case EngineErrorCode::Stopped: return WireErrorCode::Stopped;
    case EngineErrorCode::UnknownModel:
        return WireErrorCode::UnknownModel;
    case EngineErrorCode::ModelExists:
        return WireErrorCode::ModelExists;
    case EngineErrorCode::ModelBusy: return WireErrorCode::ModelBusy;
    case EngineErrorCode::DeadlineExceeded:
        return WireErrorCode::DeadlineExceeded;
    case EngineErrorCode::Internal: return WireErrorCode::Internal;
    case EngineErrorCode::SessionNotFound:
        return WireErrorCode::SessionNotFound;
    case EngineErrorCode::SessionExpired:
        return WireErrorCode::SessionExpired;
    case EngineErrorCode::TooManySessions:
        return WireErrorCode::TooManySessions;
    }
    return WireErrorCode::Internal;
}

std::optional<EngineErrorCode>
engineCodeOf(WireErrorCode code)
{
    switch (code) {
    case WireErrorCode::EmptyModel: return EngineErrorCode::EmptyModel;
    case WireErrorCode::InvalidLayer:
        return EngineErrorCode::InvalidLayer;
    case WireErrorCode::MissingWeights:
        return EngineErrorCode::MissingWeights;
    case WireErrorCode::ShapeMismatch:
        return EngineErrorCode::ShapeMismatch;
    case WireErrorCode::NullActivation:
        return EngineErrorCode::NullActivation;
    case WireErrorCode::QueueFull: return EngineErrorCode::QueueFull;
    case WireErrorCode::Stopped: return EngineErrorCode::Stopped;
    case WireErrorCode::UnknownModel:
        return EngineErrorCode::UnknownModel;
    case WireErrorCode::ModelExists:
        return EngineErrorCode::ModelExists;
    case WireErrorCode::ModelBusy: return EngineErrorCode::ModelBusy;
    case WireErrorCode::DeadlineExceeded:
        return EngineErrorCode::DeadlineExceeded;
    case WireErrorCode::Internal: return EngineErrorCode::Internal;
    case WireErrorCode::SessionNotFound:
        return EngineErrorCode::SessionNotFound;
    case WireErrorCode::SessionExpired:
        return EngineErrorCode::SessionExpired;
    case WireErrorCode::TooManySessions:
        return EngineErrorCode::TooManySessions;
    default: return std::nullopt;
    }
}

namespace
{

/** Words of packed bits one activation row carries on the wire. */
size_t
actsWordsPerRow(size_t cols)
{
    return (cols + 63) / 64;
}

void
encodeActs(io::ByteWriter& w, const BinaryMatrix& acts)
{
    const size_t wordsPerRow = acts.numWordsPerRow();
    w.reserve(w.size() + 8 + acts.rows() * wordsPerRow * 8);
    w.u32(static_cast<uint32_t>(acts.rows()));
    w.u32(static_cast<uint32_t>(acts.cols()));
    // Only the logical words cross the wire — the receiver rebuilds
    // its own padded/aligned storage. Tail bits beyond cols() are
    // zero by BinaryMatrix invariant, so the bytes are canonical.
    for (size_t r = 0; r < acts.rows(); ++r)
        w.ints(acts.rowWords(r), wordsPerRow);
}

BinaryMatrix
decodeActs(io::ByteReader& r)
{
    const uint32_t rows = r.u32();
    const uint32_t cols = r.u32();
    // Rows without columns carry no bytes, so the byte budget below
    // cannot bound them: 4 billion empty rows would stall the caller.
    // No layer has K = 0 or N = 0, so no valid frame has this shape.
    if (rows != 0 && cols == 0)
        throw io::IoError("activation shape " + std::to_string(rows) +
                          "x0 has rows but no columns");
    const size_t wordsPerRow = actsWordsPerRow(cols);
    // A lying shape must fail before it sizes an allocation: the body
    // cannot hold fewer bytes than the shape demands.
    const size_t needed = size_t{rows} * wordsPerRow * 8;
    if (rows != 0 && cols != 0 && needed / (wordsPerRow * 8) != rows)
        throw io::IoError("activation shape overflows");
    if (needed > r.remaining())
        throw io::IoError(
            "activation payload truncated: shape " +
            std::to_string(rows) + "x" + std::to_string(cols) +
            " needs " + std::to_string(needed) + " bytes, have " +
            std::to_string(r.remaining()));

    BinaryMatrix acts(rows, cols);
    std::vector<uint64_t> row(wordsPerRow);
    for (uint32_t i = 0; i < rows; ++i) {
        r.intsInto(row.data(), wordsPerRow);
        // deposit() clips to cols(), so a peer that sent garbage
        // tail bits cannot break the tail-invariant contract.
        for (size_t wIdx = 0; wIdx < wordsPerRow; ++wIdx)
            acts.deposit(i, wIdx * 64, 64, row[wIdx]);
    }
    return acts;
}

void
encodeHeader(io::ByteWriter& w, FrameType type, size_t bodyLen)
{
    w.u32(kMagic);
    w.u32(static_cast<uint32_t>(type));
    w.u32(static_cast<uint32_t>(bodyLen));
}

/**
 * One frame in one buffer: the header, the body encoded in place
 * behind it, then bodyLen patched in. The body encoders reserve their
 * bulk payload exactly, so a large frame is allocated once for its
 * payload and the body is never copied.
 */
template <typename Msg>
std::vector<uint8_t>
encodeInFrame(FrameType type, const Msg& msg,
              void (*encode)(io::ByteWriter&, const Msg&))
{
    io::ByteWriter w;
    encodeHeader(w, type, 0);
    encode(w, msg);
    w.patchU32(8, static_cast<uint32_t>(w.size() - kFrameHeaderBytes));
    return w.take();
}

} // namespace

void
encodeRequest(io::ByteWriter& w, const WireRequest& req)
{
    w.u32(req.id);
    w.str(req.model);
    w.u64(req.version);
    w.u32(req.layer);
    w.u32(req.deadlineMs);
    w.i32(req.priority);
    encodeActs(w, req.acts);
}

WireRequest
decodeRequest(io::ByteReader& r)
{
    WireRequest req;
    req.id = r.u32();
    req.model = r.str();
    req.version = r.u64();
    req.layer = r.u32();
    req.deadlineMs = r.u32();
    req.priority = r.i32();
    req.acts = decodeActs(r);
    if (r.remaining() != 0)
        throw io::IoError("request body has " +
                          std::to_string(r.remaining()) +
                          " trailing bytes");
    return req;
}

void
encodeResponse(io::ByteWriter& w, const WireResponse& resp)
{
    w.u32(resp.id);
    w.str(resp.model);
    w.u64(resp.version);
    w.u32(resp.layer);
    const size_t rows = resp.out.rows();
    const size_t cols = resp.out.cols();
    w.reserve(w.size() + 8 + rows * cols * 4);
    w.u32(static_cast<uint32_t>(rows));
    w.u32(static_cast<uint32_t>(cols));
    for (size_t r = 0; r < rows; ++r)
        w.ints(resp.out.rowPtr(r), cols);
}

WireResponse
decodeResponse(io::ByteReader& r)
{
    WireResponse resp;
    resp.id = r.u32();
    resp.model = r.str();
    resp.version = r.u64();
    resp.layer = r.u32();
    const uint32_t rows = r.u32();
    const uint32_t cols = r.u32();
    // Same rule as decodeActs(): rows without columns are unbounded.
    if (rows != 0 && cols == 0)
        throw io::IoError("response shape " + std::to_string(rows) +
                          "x0 has rows but no columns");
    const size_t needed = size_t{rows} * cols * 4;
    if (rows != 0 && cols != 0 && needed / (size_t{cols} * 4) != rows)
        throw io::IoError("response shape overflows");
    if (needed > r.remaining())
        throw io::IoError("response payload truncated");
    resp.out = Matrix<int32_t>(rows, cols);
    for (uint32_t i = 0; i < rows; ++i)
        r.intsInto(resp.out.rowPtr(i), cols);
    if (r.remaining() != 0)
        throw io::IoError("response body has trailing bytes");
    return resp;
}

void
encodeError(io::ByteWriter& w, const WireError& err)
{
    w.u32(err.id);
    w.u16(static_cast<uint16_t>(err.code));
    w.str(err.message);
}

WireError
decodeError(io::ByteReader& r)
{
    WireError err;
    err.id = r.u32();
    err.code = static_cast<WireErrorCode>(r.u16());
    err.message = r.str();
    return err;
}

namespace
{

/** LifParams cross the wire as IEEE-754 bit patterns so a session
 *  opened remotely integrates bit-identically to a local one. */
void
encodeLifParams(io::ByteWriter& w, const LifParams& p)
{
    uint32_t bits;
    std::memcpy(&bits, &p.leak, sizeof(bits));
    w.u32(bits);
    std::memcpy(&bits, &p.threshold, sizeof(bits));
    w.u32(bits);
    w.u8(p.hardReset ? 1 : 0);
    w.i32(p.refractory);
}

LifParams
decodeLifParams(io::ByteReader& r)
{
    LifParams p;
    uint32_t bits = r.u32();
    std::memcpy(&p.leak, &bits, sizeof(p.leak));
    bits = r.u32();
    std::memcpy(&p.threshold, &bits, sizeof(p.threshold));
    p.hardReset = r.u8() != 0;
    p.refractory = r.i32();
    return p;
}

void
requireDrained(io::ByteReader& r, const char* what)
{
    if (r.remaining() != 0)
        throw io::IoError(std::string(what) + " body has " +
                          std::to_string(r.remaining()) +
                          " trailing bytes");
}

} // namespace

void
encodeOpenSession(io::ByteWriter& w, const WireOpenSession& msg)
{
    w.u32(msg.id);
    w.str(msg.model);
    w.u32(static_cast<uint32_t>(msg.params.size()));
    for (const LifParams& p : msg.params)
        encodeLifParams(w, p);
}

WireOpenSession
decodeOpenSession(io::ByteReader& r)
{
    WireOpenSession msg;
    msg.id = r.u32();
    msg.model = r.str();
    const uint32_t count = r.u32();
    // 13 encoded bytes per LifParams entry; reject counts the body
    // cannot hold before sizing the allocation.
    if (count > r.remaining() / 13)
        throw io::IoError("LifParams count " + std::to_string(count) +
                          " exceeds remaining body bytes");
    msg.params.reserve(count);
    for (uint32_t i = 0; i < count; ++i)
        msg.params.push_back(decodeLifParams(r));
    requireDrained(r, "open-session");
    return msg;
}

void
encodeSessionOpened(io::ByteWriter& w, const WireSessionOpened& msg)
{
    w.u32(msg.id);
    w.u64(msg.sessionId);
    w.str(msg.model);
    w.u64(msg.version);
    w.u32(msg.layers);
}

WireSessionOpened
decodeSessionOpened(io::ByteReader& r)
{
    WireSessionOpened msg;
    msg.id = r.u32();
    msg.sessionId = r.u64();
    msg.model = r.str();
    msg.version = r.u64();
    msg.layers = r.u32();
    requireDrained(r, "session-opened");
    return msg;
}

void
encodeStepSession(io::ByteWriter& w, const WireStepSession& msg)
{
    w.u32(msg.id);
    w.u64(msg.sessionId);
    encodeActs(w, msg.frames);
}

WireStepSession
decodeStepSession(io::ByteReader& r)
{
    WireStepSession msg;
    msg.id = r.u32();
    msg.sessionId = r.u64();
    msg.frames = decodeActs(r);
    requireDrained(r, "step-session");
    return msg;
}

void
encodeSessionStepped(io::ByteWriter& w, const WireSessionStepped& msg)
{
    w.u32(msg.id);
    w.u64(msg.sessionId);
    w.u64(msg.firstStep);
    encodeActs(w, msg.spikes);
}

WireSessionStepped
decodeSessionStepped(io::ByteReader& r)
{
    WireSessionStepped msg;
    msg.id = r.u32();
    msg.sessionId = r.u64();
    msg.firstStep = r.u64();
    msg.spikes = decodeActs(r);
    requireDrained(r, "session-stepped");
    return msg;
}

void
encodeCloseSession(io::ByteWriter& w, const WireCloseSession& msg)
{
    w.u32(msg.id);
    w.u64(msg.sessionId);
}

WireCloseSession
decodeCloseSession(io::ByteReader& r)
{
    WireCloseSession msg;
    msg.id = r.u32();
    msg.sessionId = r.u64();
    requireDrained(r, "close-session");
    return msg;
}

void
encodeSessionClosed(io::ByteWriter& w, const WireSessionClosed& msg)
{
    w.u32(msg.id);
    w.u64(msg.sessionId);
    w.u64(msg.steps);
}

WireSessionClosed
decodeSessionClosed(io::ByteReader& r)
{
    WireSessionClosed msg;
    msg.id = r.u32();
    msg.sessionId = r.u64();
    msg.steps = r.u64();
    requireDrained(r, "session-closed");
    return msg;
}

std::vector<uint8_t>
encodeRequestFrame(const WireRequest& req)
{
    return encodeInFrame(FrameType::Request, req, encodeRequest);
}

std::vector<uint8_t>
encodeResponseFrame(const WireResponse& resp)
{
    return encodeInFrame(FrameType::Response, resp, encodeResponse);
}

std::vector<uint8_t>
encodeStepSessionFrame(const WireStepSession& msg)
{
    return encodeInFrame(FrameType::StepSession, msg, encodeStepSession);
}

std::vector<uint8_t>
encodeSessionSteppedFrame(const WireSessionStepped& msg)
{
    return encodeInFrame(FrameType::SessionStepped, msg,
                         encodeSessionStepped);
}

std::vector<uint8_t>
encodeFrame(FrameType type, const std::vector<uint8_t>& body)
{
    io::ByteWriter w;
    w.reserve(kFrameHeaderBytes + body.size());
    encodeHeader(w, type, body.size());
    w.bytes(body.data(), body.size());
    return w.take();
}

std::vector<uint8_t>
encodeErrorFrame(uint32_t id, WireErrorCode code,
                 const std::string& message)
{
    io::ByteWriter body;
    encodeError(body, {id, code, message});
    return encodeFrame(FrameType::Error, body.buffer());
}

ParseStatus
tryParseFrame(const uint8_t* data, size_t len, size_t maxFrameBytes,
              ParsedFrame& out, WireErrorCode& errCode,
              std::string& errMsg)
{
    if (len < kFrameHeaderBytes) {
        // Reject a wrong magic as soon as the bytes disagree — a
        // desynchronized or non-phi peer is detected on its first
        // bytes, not after it happens to send 12 of them.
        for (size_t i = 0; i < len && i < 4; ++i)
            if (data[i] != static_cast<uint8_t>(kMagic >> (8 * i))) {
                errCode = WireErrorCode::BadMagic;
                errMsg = "frame does not start with PHIW";
                return ParseStatus::Bad;
            }
        return ParseStatus::NeedMore;
    }

    io::ByteReader header(data, kFrameHeaderBytes);
    if (header.u32() != kMagic) {
        errCode = WireErrorCode::BadMagic;
        errMsg = "frame does not start with PHIW";
        return ParseStatus::Bad;
    }
    const uint32_t type = header.u32();
    const uint32_t bodyLen = header.u32();
    if (type < static_cast<uint32_t>(FrameType::Request) ||
        type > static_cast<uint32_t>(FrameType::SessionClosed)) {
        errCode = WireErrorCode::BadFrameType;
        errMsg = "unknown frame type " + std::to_string(type);
        return ParseStatus::Bad;
    }
    if (bodyLen > maxFrameBytes) {
        errCode = WireErrorCode::FrameTooLarge;
        errMsg = "frame body of " + std::to_string(bodyLen) +
                 " bytes exceeds the " + std::to_string(maxFrameBytes) +
                 "-byte limit";
        return ParseStatus::Bad;
    }
    if (len < kFrameHeaderBytes + bodyLen)
        return ParseStatus::NeedMore;

    out.type = static_cast<FrameType>(type);
    out.body = data + kFrameHeaderBytes;
    out.bodyLen = bodyLen;
    out.frameLen = kFrameHeaderBytes + bodyLen;
    return ParseStatus::Frame;
}

} // namespace phi::net
