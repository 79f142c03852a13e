#include "net/client.hh"

#include <cerrno>
#include <cstring>

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace phi::net
{

#ifdef __linux__

PhiClient::PhiClient(const std::string& host, uint16_t port,
                     uint64_t timeoutMs)
{
    sock = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (sock < 0)
        throw NetError(WireErrorCode::ConnectError,
                       std::string("socket(): ") +
                           std::strerror(errno));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(sock);
        sock = -1;
        throw NetError(WireErrorCode::ConnectError,
                       "bad host address: " + host);
    }
    if (::connect(sock, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        const std::string why = std::strerror(errno);
        ::close(sock);
        sock = -1;
        throw NetError(WireErrorCode::ConnectError,
                       "connect to " + host + ":" +
                           std::to_string(port) + ": " + why);
    }

    const int one = 1;
    ::setsockopt(sock, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (timeoutMs > 0) {
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(timeoutMs / 1000);
        tv.tv_usec =
            static_cast<suseconds_t>((timeoutMs % 1000) * 1000);
        ::setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(sock, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
}

PhiClient::~PhiClient()
{
    close();
}

PhiClient::PhiClient(PhiClient&& other) noexcept
    : sock(other.sock), nextId(other.nextId)
{
    other.sock = -1;
}

PhiClient&
PhiClient::operator=(PhiClient&& other) noexcept
{
    if (this != &other) {
        close();
        sock = other.sock;
        nextId = other.nextId;
        other.sock = -1;
    }
    return *this;
}

void
PhiClient::close()
{
    if (sock >= 0) {
        ::close(sock);
        sock = -1;
    }
}

void
PhiClient::writeAll(const void* data, size_t len)
{
    if (sock < 0)
        throw NetError(WireErrorCode::ConnectionLost,
                       "socket is closed");
    const uint8_t* p = static_cast<const uint8_t*>(data);
    size_t off = 0;
    while (off < len) {
        const ssize_t n =
            ::send(sock, p + off, len - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            throw NetError(WireErrorCode::Timeout,
                           "write timed out");
        throw NetError(WireErrorCode::ConnectionLost,
                       std::string("write failed: ") +
                           std::strerror(errno));
    }
}

void
PhiClient::sendRaw(const void* data, size_t len)
{
    writeAll(data, len);
}

std::vector<uint8_t>
PhiClient::readFrame(FrameType& type)
{
    if (sock < 0)
        throw NetError(WireErrorCode::ConnectionLost,
                       "socket is closed");

    auto readExact = [&](uint8_t* dst, size_t n) {
        size_t off = 0;
        while (off < n) {
            const ssize_t r = ::recv(sock, dst + off, n - off, 0);
            if (r > 0) {
                off += static_cast<size_t>(r);
                continue;
            }
            if (r == 0)
                throw NetError(WireErrorCode::ConnectionLost,
                               "server closed the connection");
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw NetError(WireErrorCode::Timeout,
                               "read timed out waiting for a frame");
            throw NetError(WireErrorCode::ConnectionLost,
                           std::string("read failed: ") +
                               std::strerror(errno));
        }
    };

    uint8_t header[kFrameHeaderBytes];
    readExact(header, sizeof(header));

    io::ByteReader h(header, sizeof(header));
    if (h.u32() != kMagic)
        throw NetError(WireErrorCode::BadMagic,
                       "server reply does not start with PHIW");
    const uint32_t rawType = h.u32();
    const uint32_t bodyLen = h.u32();
    if (rawType < static_cast<uint32_t>(FrameType::Request) ||
        rawType > static_cast<uint32_t>(FrameType::SessionClosed))
        throw NetError(WireErrorCode::BadFrameType,
                       "server reply has unknown frame type " +
                           std::to_string(rawType));
    if (bodyLen > kDefaultMaxFrameBytes)
        throw NetError(WireErrorCode::FrameTooLarge,
                       "server reply frame is oversized");

    std::vector<uint8_t> body(bodyLen);
    if (bodyLen > 0)
        readExact(body.data(), bodyLen);
    type = static_cast<FrameType>(rawType);
    return body;
}

namespace
{

/** Rethrow one wire error as the exception its band promises. */
[[noreturn]] void
throwWireError(const WireError& err)
{
    if (auto engineCode = engineCodeOf(err.code))
        throw EngineError(*engineCode, err.message);
    if (err.code == WireErrorCode::IoFailure)
        throw io::IoError(err.message);
    throw NetError(err.code, err.message);
}

} // namespace

uint32_t
PhiClient::sendRequest(const WireRequest& req)
{
    WireRequest stamped = req;
    if (stamped.id == 0)
        stamped.id = nextId++;
    const std::vector<uint8_t> frame = encodeRequestFrame(stamped);
    writeAll(frame.data(), frame.size());
    return stamped.id;
}

WireReply
PhiClient::readReply()
{
    FrameType type;
    std::vector<uint8_t> body = readFrame(type);
    io::ByteReader r(body.data(), body.size());
    WireReply reply;
    try {
        if (type == FrameType::Response) {
            reply.ok = true;
            reply.response = decodeResponse(r);
            return reply;
        }
        if (type == FrameType::Error) {
            reply.error = decodeError(r);
            if (reply.error.id == 0)
                throwWireError(reply.error); // connection-level
            return reply;
        }
    } catch (const io::IoError& e) {
        // The *server's* reply failed to decode — that is a transport
        // fault, not a request-level error.
        throw NetError(WireErrorCode::MalformedFrame,
                       std::string("undecodable server reply: ") +
                           e.what());
    }
    throw NetError(WireErrorCode::BadFrameType,
                   "unexpected reply frame type");
}

WireResponse
PhiClient::request(const WireRequest& req)
{
    const uint32_t id = sendRequest(req);
    WireReply reply = readReply();
    if (!reply.ok)
        throwWireError(reply.error);
    if (reply.response.id != id)
        throw NetError(WireErrorCode::MalformedFrame,
                       "reply id " +
                           std::to_string(reply.response.id) +
                           " does not match request id " +
                           std::to_string(id));
    return std::move(reply.response);
}

WireResponse
PhiClient::request(const std::string& model, uint32_t layer,
                   const BinaryMatrix& acts)
{
    WireRequest req;
    req.model = model;
    req.layer = layer;
    req.acts = acts;
    return request(req);
}

std::vector<uint8_t>
PhiClient::roundTrip(const std::vector<uint8_t>& frame,
                     FrameType expect)
{
    writeAll(frame.data(), frame.size());

    FrameType type;
    std::vector<uint8_t> reply = readFrame(type);
    if (type == FrameType::Error) {
        io::ByteReader r(reply.data(), reply.size());
        WireError err;
        try {
            err = decodeError(r);
        } catch (const io::IoError& e) {
            throw NetError(WireErrorCode::MalformedFrame,
                           std::string("undecodable server reply: ") +
                               e.what());
        }
        throwWireError(err);
    }
    if (type != expect)
        throw NetError(WireErrorCode::BadFrameType,
                       "unexpected reply frame type");
    return reply;
}

WireSessionOpened
PhiClient::openSession(const std::string& model,
                       std::vector<LifParams> params)
{
    WireOpenSession msg;
    msg.id = nextId++;
    msg.model = model;
    msg.params = std::move(params);
    io::ByteWriter body;
    encodeOpenSession(body, msg);
    const std::vector<uint8_t> reply =
        roundTrip(encodeFrame(FrameType::OpenSession, body.buffer()),
                  FrameType::SessionOpened);
    io::ByteReader r(reply.data(), reply.size());
    WireSessionOpened out;
    try {
        out = decodeSessionOpened(r);
    } catch (const io::IoError& e) {
        throw NetError(WireErrorCode::MalformedFrame,
                       std::string("undecodable server reply: ") +
                           e.what());
    }
    if (out.id != msg.id)
        throw NetError(WireErrorCode::MalformedFrame,
                       "reply id " + std::to_string(out.id) +
                           " does not match request id " +
                           std::to_string(msg.id));
    return out;
}

WireSessionStepped
PhiClient::stepSession(uint64_t sessionId, const BinaryMatrix& frames)
{
    WireStepSession msg;
    msg.id = nextId++;
    msg.sessionId = sessionId;
    msg.frames = frames;
    const std::vector<uint8_t> reply =
        roundTrip(encodeStepSessionFrame(msg), FrameType::SessionStepped);
    io::ByteReader r(reply.data(), reply.size());
    WireSessionStepped out;
    try {
        out = decodeSessionStepped(r);
    } catch (const io::IoError& e) {
        throw NetError(WireErrorCode::MalformedFrame,
                       std::string("undecodable server reply: ") +
                           e.what());
    }
    if (out.id != msg.id)
        throw NetError(WireErrorCode::MalformedFrame,
                       "reply id " + std::to_string(out.id) +
                           " does not match request id " +
                           std::to_string(msg.id));
    return out;
}

WireSessionClosed
PhiClient::closeSession(uint64_t sessionId)
{
    WireCloseSession msg;
    msg.id = nextId++;
    msg.sessionId = sessionId;
    io::ByteWriter body;
    encodeCloseSession(body, msg);
    const std::vector<uint8_t> reply =
        roundTrip(encodeFrame(FrameType::CloseSession, body.buffer()),
                  FrameType::SessionClosed);
    io::ByteReader r(reply.data(), reply.size());
    WireSessionClosed out;
    try {
        out = decodeSessionClosed(r);
    } catch (const io::IoError& e) {
        throw NetError(WireErrorCode::MalformedFrame,
                       std::string("undecodable server reply: ") +
                           e.what());
    }
    if (out.id != msg.id)
        throw NetError(WireErrorCode::MalformedFrame,
                       "reply id " + std::to_string(out.id) +
                           " does not match request id " +
                           std::to_string(msg.id));
    return out;
}

std::string
PhiClient::statsText()
{
    const std::vector<uint8_t> frame =
        encodeFrame(FrameType::StatsRequest, {});
    writeAll(frame.data(), frame.size());
    FrameType type;
    std::vector<uint8_t> body = readFrame(type);
    io::ByteReader r(body.data(), body.size());
    if (type == FrameType::Error)
        throwWireError(decodeError(r));
    if (type != FrameType::StatsReply)
        throw NetError(WireErrorCode::BadFrameType,
                       "unexpected reply to StatsRequest");
    return r.str();
}

#else // !__linux__

PhiClient::PhiClient(const std::string&, uint16_t, uint64_t)
{
    throw NetError(WireErrorCode::ConnectError,
                   "PhiClient requires Linux");
}

PhiClient::~PhiClient() = default;
PhiClient::PhiClient(PhiClient&& other) noexcept : sock(other.sock) {}
PhiClient&
PhiClient::operator=(PhiClient&&) noexcept
{
    return *this;
}
void PhiClient::close() {}
void PhiClient::writeAll(const void*, size_t) {}
void PhiClient::sendRaw(const void*, size_t) {}
std::vector<uint8_t> PhiClient::readFrame(FrameType&) { return {}; }
uint32_t PhiClient::sendRequest(const WireRequest&) { return 0; }
WireReply PhiClient::readReply() { return {}; }
WireResponse PhiClient::request(const WireRequest&) { return {}; }
WireResponse
PhiClient::request(const std::string&, uint32_t, const BinaryMatrix&)
{
    return {};
}
std::string PhiClient::statsText() { return {}; }
std::vector<uint8_t>
PhiClient::roundTrip(FrameType, const std::vector<uint8_t>&, FrameType)
{
    return {};
}
WireSessionOpened
PhiClient::openSession(const std::string&, std::vector<LifParams>)
{
    return {};
}
WireSessionStepped PhiClient::stepSession(uint64_t, const BinaryMatrix&)
{
    return {};
}
WireSessionClosed PhiClient::closeSession(uint64_t) { return {}; }

#endif // __linux__

} // namespace phi::net
