/**
 * @file
 * Wire-protocol tests (net/protocol.hh): codec round-trips, the
 * exhaustive wire<->engine error-code mapping, and the incremental
 * frame parser against hostile input — truncated headers, lying
 * length fields, oversized frames, bad magic, trailing garbage. The
 * contract pinned here: every malformed input is a *typed* rejection
 * (ParseStatus::Bad with a code, or io::IoError from a body decoder),
 * never an out-of-bounds read, an allocation bomb, or a crash. The
 * bulk codec's bytes are pinned against a per-element oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "net/protocol.hh"

namespace phi::net
{
namespace
{

WireRequest
sampleRequest()
{
    Rng rng(7);
    WireRequest req;
    req.id = 42;
    req.model = "vision";
    req.version = 3;
    req.layer = 1;
    req.deadlineMs = 250;
    req.priority = -2;
    req.acts = BinaryMatrix::random(5, 130, 0.3, rng);
    return req;
}

TEST(NetProtocol, RequestRoundTripsBitExact)
{
    const WireRequest req = sampleRequest();
    io::ByteWriter w;
    encodeRequest(w, req);
    io::ByteReader r(w.buffer().data(), w.buffer().size());
    const WireRequest back = decodeRequest(r);

    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.model, req.model);
    EXPECT_EQ(back.version, req.version);
    EXPECT_EQ(back.layer, req.layer);
    EXPECT_EQ(back.deadlineMs, req.deadlineMs);
    EXPECT_EQ(back.priority, req.priority);
    ASSERT_EQ(back.acts.rows(), req.acts.rows());
    ASSERT_EQ(back.acts.cols(), req.acts.cols());
    for (size_t i = 0; i < req.acts.rows(); ++i)
        for (size_t c = 0; c < req.acts.cols(); ++c)
            ASSERT_EQ(back.acts.get(i, c), req.acts.get(i, c))
                << "bit (" << i << "," << c << ")";
}

TEST(NetProtocol, ResponseRoundTripsBitExact)
{
    WireResponse resp;
    resp.id = 9;
    resp.model = "nlp";
    resp.version = 12;
    resp.layer = 0;
    resp.out = Matrix<int32_t>(3, 7);
    int32_t v = -11;
    for (size_t r = 0; r < 3; ++r)
        for (size_t c = 0; c < 7; ++c)
            resp.out(r, c) = v += 13;

    io::ByteWriter w;
    encodeResponse(w, resp);
    io::ByteReader r(w.buffer().data(), w.buffer().size());
    const WireResponse back = decodeResponse(r);
    EXPECT_EQ(back.id, resp.id);
    EXPECT_EQ(back.model, resp.model);
    EXPECT_EQ(back.version, resp.version);
    EXPECT_TRUE(back.out == resp.out);
}

TEST(NetProtocol, ErrorRoundTrips)
{
    const WireError err{7, WireErrorCode::QueueFull, "queue is full"};
    io::ByteWriter w;
    encodeError(w, err);
    io::ByteReader r(w.buffer().data(), w.buffer().size());
    const WireError back = decodeError(r);
    EXPECT_EQ(back.id, err.id);
    EXPECT_EQ(back.code, err.code);
    EXPECT_EQ(back.message, err.message);
}

TEST(NetProtocol, EveryEngineCodeHasAUniqueWireImageAndInverse)
{
    const EngineErrorCode all[] = {
        EngineErrorCode::EmptyModel,      EngineErrorCode::InvalidLayer,
        EngineErrorCode::MissingWeights,  EngineErrorCode::ShapeMismatch,
        EngineErrorCode::NullActivation,  EngineErrorCode::QueueFull,
        EngineErrorCode::Stopped,         EngineErrorCode::UnknownModel,
        EngineErrorCode::ModelExists,     EngineErrorCode::ModelBusy,
        EngineErrorCode::DeadlineExceeded, EngineErrorCode::Internal,
        EngineErrorCode::SessionNotFound, EngineErrorCode::SessionExpired,
        EngineErrorCode::TooManySessions,
    };
    std::vector<WireErrorCode> images;
    for (EngineErrorCode c : all) {
        const WireErrorCode wire = wireCode(c);
        // Engine band, and a faithful inverse.
        EXPECT_GE(static_cast<uint16_t>(wire), 100);
        EXPECT_LT(static_cast<uint16_t>(wire), 200);
        const auto back = engineCodeOf(wire);
        ASSERT_TRUE(back.has_value()) << wireErrorCodeName(wire);
        EXPECT_EQ(*back, c);
        // And the names agree, so logs read the same on both sides.
        EXPECT_STREQ(wireErrorCodeName(wire), engineErrorCodeName(c));
        images.push_back(wire);
    }
    // Injective: no two engine codes share a wire image.
    for (size_t i = 0; i < images.size(); ++i)
        for (size_t j = i + 1; j < images.size(); ++j)
            EXPECT_NE(images[i], images[j]);
}

TEST(NetProtocol, ProtocolBandCodesHaveNoEngineInverse)
{
    for (WireErrorCode c :
         {WireErrorCode::BadMagic, WireErrorCode::FrameTooLarge,
          WireErrorCode::MalformedFrame, WireErrorCode::ServerDraining,
          WireErrorCode::Timeout, WireErrorCode::IoFailure})
        EXPECT_FALSE(engineCodeOf(c).has_value())
            << wireErrorCodeName(c);
}

// ---- incremental parser against hostile bytes -----------------------

TEST(NetProtocol, ParserNeedsMoreOnTruncatedHeaderAndBody)
{
    const std::vector<uint8_t> frame =
        encodeRequestFrame(sampleRequest());
    ParsedFrame out;
    WireErrorCode code;
    std::string msg;
    // Every prefix short of the full frame is NeedMore — never Bad,
    // never a phantom Frame.
    for (size_t len = 0; len < frame.size(); ++len)
        ASSERT_EQ(tryParseFrame(frame.data(), len,
                                kDefaultMaxFrameBytes, out, code, msg),
                  ParseStatus::NeedMore)
            << "at prefix length " << len;
    EXPECT_EQ(tryParseFrame(frame.data(), frame.size(),
                            kDefaultMaxFrameBytes, out, code, msg),
              ParseStatus::Frame);
    EXPECT_EQ(out.frameLen, frame.size());
    EXPECT_EQ(out.type, FrameType::Request);
}

TEST(NetProtocol, ParserRejectsBadMagicOnTheFirstWrongByte)
{
    const uint8_t garbage[] = {'G', 'E', 'T', ' ', '/', ' '};
    ParsedFrame out;
    WireErrorCode code;
    std::string msg;
    // One byte is enough: 'G' != 'P'.
    EXPECT_EQ(tryParseFrame(garbage, 1, kDefaultMaxFrameBytes, out,
                            code, msg),
              ParseStatus::Bad);
    EXPECT_EQ(code, WireErrorCode::BadMagic);
}

TEST(NetProtocol, ParserRejectsUnknownFrameType)
{
    std::vector<uint8_t> frame = encodeRequestFrame(sampleRequest());
    frame[4] = 0xEE; // type field
    ParsedFrame out;
    WireErrorCode code;
    std::string msg;
    EXPECT_EQ(tryParseFrame(frame.data(), frame.size(),
                            kDefaultMaxFrameBytes, out, code, msg),
              ParseStatus::Bad);
    EXPECT_EQ(code, WireErrorCode::BadFrameType);
}

TEST(NetProtocol, ParserRejectsOversizedBodyBeforeBuffering)
{
    io::ByteWriter w;
    w.u32(kMagic);
    w.u32(static_cast<uint32_t>(FrameType::Request));
    w.u32(0xFFFF'FFFFu); // 4 GiB body claim
    ParsedFrame out;
    WireErrorCode code;
    std::string msg;
    // The 12 header bytes alone are enough to refuse — no body is
    // ever awaited or allocated for.
    EXPECT_EQ(tryParseFrame(w.buffer().data(), w.buffer().size(),
                            1 << 20, out, code, msg),
              ParseStatus::Bad);
    EXPECT_EQ(code, WireErrorCode::FrameTooLarge);
}

TEST(NetProtocol, LyingActivationShapeIsTypedNotAnAllocationBomb)
{
    // A request whose header claims a huge activation matrix but whose
    // body holds almost nothing: the decoder must reject on the byte
    // arithmetic *before* sizing any allocation from the shape.
    io::ByteWriter w;
    w.u32(1);         // id
    w.str("vision");  // model
    w.u64(0);         // version
    w.u32(0);         // layer
    w.u32(0);         // deadline
    w.i32(0);         // priority
    w.u32(0x00FF'FFFF); // rows: 16M
    w.u32(0x00FF'FFFF); // cols: 16M
    w.u32(0);           // "first row" — and nothing more
    io::ByteReader r(w.buffer().data(), w.buffer().size());
    EXPECT_THROW(decodeRequest(r), io::IoError);
}

TEST(NetProtocol, RowsWithoutColumnsRequestIsTypedNotAStall)
{
    // rows = 2^32 - 1, cols = 0 needs zero payload bytes, so the byte
    // budget passes it; the decoder must reject the shape itself
    // instead of walking 4 billion empty rows.
    io::ByteWriter w;
    w.u32(1);           // id
    w.str("vision");    // model
    w.u64(0);           // version
    w.u32(0);           // layer
    w.u32(0);           // deadline
    w.i32(0);           // priority
    w.u32(0xFFFF'FFFF); // rows
    w.u32(0);           // cols
    io::ByteReader r(w.buffer().data(), w.buffer().size());
    EXPECT_THROW(decodeRequest(r), io::IoError);

    // The response decoder applies the same rule.
    io::ByteWriter resp;
    resp.u32(1);           // id
    resp.str("vision");    // model
    resp.u64(1);           // version
    resp.u32(0);           // layer
    resp.u32(0xFFFF'FFFF); // rows
    resp.u32(0);           // cols
    io::ByteReader rr(resp.buffer().data(), resp.buffer().size());
    EXPECT_THROW(decodeResponse(rr), io::IoError);
}

TEST(NetProtocol, RowsWithoutColumnsStepSessionIsTypedNotAStall)
{
    io::ByteWriter w;
    w.u32(1);           // id
    w.u64(77);          // session id
    w.u32(0xFFFF'FFFF); // rows
    w.u32(0);           // cols
    io::ByteReader r(w.buffer().data(), w.buffer().size());
    EXPECT_THROW(decodeStepSession(r), io::IoError);
}

TEST(NetProtocol, TruncatedRequestBodyIsTyped)
{
    io::ByteWriter w;
    encodeRequest(w, sampleRequest());
    const std::vector<uint8_t>& full = w.buffer();
    // Chop the body at several depths; every cut is a typed IoError.
    for (size_t keep : {size_t{0}, size_t{3}, size_t{10},
                        full.size() / 2, full.size() - 1}) {
        io::ByteReader r(full.data(), keep);
        EXPECT_THROW(decodeRequest(r), io::IoError)
            << "kept " << keep << " of " << full.size();
    }
}

TEST(NetProtocol, TrailingGarbageAfterBodyIsTyped)
{
    io::ByteWriter w;
    encodeRequest(w, sampleRequest());
    std::vector<uint8_t> padded = w.buffer();
    padded.push_back(0xAB);
    io::ByteReader r(padded.data(), padded.size());
    EXPECT_THROW(decodeRequest(r), io::IoError);
}

// ---- session frames -------------------------------------------------

TEST(NetProtocol, SessionBodiesRoundTripBitExact)
{
    Rng rng(19);

    WireOpenSession open;
    open.id = 3;
    open.model = "vision";
    LifParams p;
    p.leak = 0.875f;
    p.threshold = 2.5f;
    p.hardReset = false;
    p.refractory = 4;
    open.params = {p, LifParams{}};
    {
        io::ByteWriter w;
        encodeOpenSession(w, open);
        io::ByteReader r(w.buffer().data(), w.buffer().size());
        const WireOpenSession back = decodeOpenSession(r);
        EXPECT_EQ(back.id, 3u);
        EXPECT_EQ(back.model, "vision");
        ASSERT_EQ(back.params.size(), 2u);
        // Exact float bits: the codec ships IEEE-754 patterns.
        EXPECT_EQ(back.params[0].leak, 0.875f);
        EXPECT_EQ(back.params[0].threshold, 2.5f);
        EXPECT_FALSE(back.params[0].hardReset);
        EXPECT_EQ(back.params[0].refractory, 4);
        EXPECT_TRUE(back.params[1].hardReset);
    }

    const WireSessionOpened opened{4, 77, "vision", 2, 3};
    {
        io::ByteWriter w;
        encodeSessionOpened(w, opened);
        io::ByteReader r(w.buffer().data(), w.buffer().size());
        const WireSessionOpened back = decodeSessionOpened(r);
        EXPECT_EQ(back.id, 4u);
        EXPECT_EQ(back.sessionId, 77u);
        EXPECT_EQ(back.model, "vision");
        EXPECT_EQ(back.version, 2u);
        EXPECT_EQ(back.layers, 3u);
    }

    WireStepSession step;
    step.id = 5;
    step.sessionId = 77;
    step.frames = BinaryMatrix::random(6, 130, 0.3, rng);
    {
        io::ByteWriter w;
        encodeStepSession(w, step);
        io::ByteReader r(w.buffer().data(), w.buffer().size());
        const WireStepSession back = decodeStepSession(r);
        EXPECT_EQ(back.id, 5u);
        EXPECT_EQ(back.sessionId, 77u);
        EXPECT_TRUE(back.frames == step.frames);
    }

    WireSessionStepped stepped;
    stepped.id = 6;
    stepped.sessionId = 77;
    stepped.firstStep = 1234;
    stepped.spikes = BinaryMatrix::random(6, 65, 0.4, rng);
    {
        io::ByteWriter w;
        encodeSessionStepped(w, stepped);
        io::ByteReader r(w.buffer().data(), w.buffer().size());
        const WireSessionStepped back = decodeSessionStepped(r);
        EXPECT_EQ(back.id, 6u);
        EXPECT_EQ(back.sessionId, 77u);
        EXPECT_EQ(back.firstStep, 1234u);
        EXPECT_TRUE(back.spikes == stepped.spikes);
    }

    const WireCloseSession close{7, 77};
    {
        io::ByteWriter w;
        encodeCloseSession(w, close);
        io::ByteReader r(w.buffer().data(), w.buffer().size());
        const WireCloseSession back = decodeCloseSession(r);
        EXPECT_EQ(back.id, 7u);
        EXPECT_EQ(back.sessionId, 77u);
    }

    const WireSessionClosed closed{8, 77, 4096};
    {
        io::ByteWriter w;
        encodeSessionClosed(w, closed);
        io::ByteReader r(w.buffer().data(), w.buffer().size());
        const WireSessionClosed back = decodeSessionClosed(r);
        EXPECT_EQ(back.id, 8u);
        EXPECT_EQ(back.sessionId, 77u);
        EXPECT_EQ(back.steps, 4096u);
    }
}

TEST(NetProtocol, ParserAcceptsEverySessionFrameType)
{
    for (FrameType t :
         {FrameType::OpenSession, FrameType::StepSession,
          FrameType::CloseSession, FrameType::SessionOpened,
          FrameType::SessionStepped, FrameType::SessionClosed}) {
        io::ByteWriter body;
        body.u64(1);
        const std::vector<uint8_t> frame =
            encodeFrame(t, body.buffer());
        ParsedFrame out;
        WireErrorCode code{};
        std::string msg;
        ASSERT_EQ(tryParseFrame(frame.data(), frame.size(),
                                kDefaultMaxFrameBytes, out, code, msg),
                  ParseStatus::Frame)
            << static_cast<int>(t);
        EXPECT_EQ(out.type, t);
        EXPECT_EQ(out.frameLen, frame.size());
    }
}

TEST(NetProtocol, LyingLifParamsCountIsTypedNotAnAllocationBomb)
{
    // An OpenSession body claiming 2^31 LifParams but carrying none:
    // the decoder must bound the count by the bytes actually present.
    io::ByteWriter w;
    w.u32(1);        // request id
    w.str("vision"); // model
    w.u32(0x8000'0000u); // params count (a lie)
    io::ByteReader r(w.buffer().data(), w.buffer().size());
    EXPECT_THROW(decodeOpenSession(r), io::IoError);
}

TEST(NetProtocol, ActsWithRaggedColumnsSurviveTheWire)
{
    // Column counts straddling word boundaries: 1, 63, 64, 65, 128.
    Rng rng(11);
    for (size_t cols : {1u, 63u, 64u, 65u, 128u}) {
        WireRequest req;
        req.model = "m";
        req.acts = BinaryMatrix::random(3, cols, 0.5, rng);
        io::ByteWriter w;
        encodeRequest(w, req);
        io::ByteReader r(w.buffer().data(), w.buffer().size());
        const WireRequest back = decodeRequest(r);
        ASSERT_EQ(back.acts.cols(), cols);
        for (size_t i = 0; i < 3; ++i)
            for (size_t c = 0; c < cols; ++c)
                ASSERT_EQ(back.acts.get(i, c), req.acts.get(i, c));
    }
}

// ---- the wire bytes, pinned -----------------------------------------
// The codec as it was before its bulk paths, kept as the oracle: every
// value is written byte by byte, every activation bit read with get()
// and written back with set(), every int32 one at a time. The bulk
// encoders must equal it byte for byte, and their decoders must agree
// with its decoders.

void
oracleU32(std::vector<uint8_t>& out, uint32_t v)
{
    for (int s = 0; s < 32; s += 8)
        out.push_back(static_cast<uint8_t>(v >> s));
}

void
oracleU64(std::vector<uint8_t>& out, uint64_t v)
{
    for (int s = 0; s < 64; s += 8)
        out.push_back(static_cast<uint8_t>(v >> s));
}

void
oracleStr(std::vector<uint8_t>& out, const std::string& s)
{
    oracleU32(out, static_cast<uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

void
oracleActs(std::vector<uint8_t>& out, const BinaryMatrix& acts)
{
    oracleU32(out, static_cast<uint32_t>(acts.rows()));
    oracleU32(out, static_cast<uint32_t>(acts.cols()));
    for (size_t r = 0; r < acts.rows(); ++r)
        for (size_t c0 = 0; c0 < acts.cols(); c0 += 64) {
            uint64_t word = 0;
            for (size_t c = c0; c < std::min(c0 + 64, acts.cols()); ++c)
                word |= uint64_t{acts.get(r, c)} << (c - c0);
            oracleU64(out, word);
        }
}

/** Per-bit decode of an activation payload: bits past cols dropped. */
BinaryMatrix
oracleDecodeActs(io::ByteReader& r)
{
    const uint32_t rows = r.u32();
    const uint32_t cols = r.u32();
    BinaryMatrix acts(rows, cols);
    for (uint32_t i = 0; i < rows; ++i)
        for (size_t c0 = 0; c0 < cols; c0 += 64) {
            const uint64_t word = r.u64();
            for (size_t c = c0; c < std::min<size_t>(c0 + 64, cols); ++c)
                acts.set(i, c, (word >> (c - c0)) & 1);
        }
    return acts;
}

std::vector<uint8_t>
oracleFrame(FrameType type, const std::vector<uint8_t>& body)
{
    std::vector<uint8_t> out;
    oracleU32(out, kMagic);
    oracleU32(out, static_cast<uint32_t>(type));
    oracleU32(out, static_cast<uint32_t>(body.size()));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

std::vector<uint8_t>
oracleRequest(const WireRequest& req)
{
    std::vector<uint8_t> b;
    oracleU32(b, req.id);
    oracleStr(b, req.model);
    oracleU64(b, req.version);
    oracleU32(b, req.layer);
    oracleU32(b, req.deadlineMs);
    oracleU32(b, static_cast<uint32_t>(req.priority));
    oracleActs(b, req.acts);
    return oracleFrame(FrameType::Request, b);
}

std::vector<uint8_t>
oracleResponse(const WireResponse& resp)
{
    std::vector<uint8_t> b;
    oracleU32(b, resp.id);
    oracleStr(b, resp.model);
    oracleU64(b, resp.version);
    oracleU32(b, resp.layer);
    oracleU32(b, static_cast<uint32_t>(resp.out.rows()));
    oracleU32(b, static_cast<uint32_t>(resp.out.cols()));
    for (size_t r = 0; r < resp.out.rows(); ++r)
        for (size_t c = 0; c < resp.out.cols(); ++c)
            oracleU32(b, static_cast<uint32_t>(resp.out(r, c)));
    return oracleFrame(FrameType::Response, b);
}

std::vector<uint8_t>
oracleStepSession(const WireStepSession& msg)
{
    std::vector<uint8_t> b;
    oracleU32(b, msg.id);
    oracleU64(b, msg.sessionId);
    oracleActs(b, msg.frames);
    return oracleFrame(FrameType::StepSession, b);
}

std::vector<uint8_t>
oracleSessionStepped(const WireSessionStepped& msg)
{
    std::vector<uint8_t> b;
    oracleU32(b, msg.id);
    oracleU64(b, msg.sessionId);
    oracleU64(b, msg.firstStep);
    oracleActs(b, msg.spikes);
    return oracleFrame(FrameType::SessionStepped, b);
}

/** The body of a whole frame, for the decoders. */
io::ByteReader
bodyOf(const std::vector<uint8_t>& frame)
{
    return io::ByteReader(frame.data() + kFrameHeaderBytes,
                          frame.size() - kFrameHeaderBytes);
}

/** Both ways to build a frame: one buffer, and body + encodeFrame(). */
template <typename Msg>
void
expectFramesEqual(const std::vector<uint8_t>& oracle, FrameType type,
                  const Msg& msg,
                  std::vector<uint8_t> (*oneBuffer)(const Msg&),
                  void (*encodeBody)(io::ByteWriter&, const Msg&))
{
    EXPECT_EQ(oneBuffer(msg), oracle);
    io::ByteWriter body;
    encodeBody(body, msg);
    EXPECT_EQ(encodeFrame(type, body.buffer()), oracle);
}

TEST(NetProtocol, BulkCodecMatchesThePerElementOracle)
{
    Rng rng(23);
    const int32_t extremes[] = {std::numeric_limits<int32_t>::min(),
                                std::numeric_limits<int32_t>::max(),
                                -1};
    for (size_t cols : {1u, 63u, 64u, 65u, 130u, 256u}) {
        for (size_t rows : {0u, 1u, 1024u}) {
            SCOPED_TRACE(testing::Message() << rows << "x" << cols);
            const BinaryMatrix acts =
                BinaryMatrix::random(rows, cols, 0.5, rng);

            WireRequest req;
            req.id = 7;
            req.model = "vision";
            req.version = 3;
            req.layer = 2;
            req.deadlineMs = 90;
            req.priority = -5;
            req.acts = acts;
            const std::vector<uint8_t> reqFrame = oracleRequest(req);
            expectFramesEqual(reqFrame, FrameType::Request, req,
                              encodeRequestFrame, encodeRequest);
            io::ByteReader rq = bodyOf(reqFrame);
            const WireRequest backReq = decodeRequest(rq);
            io::ByteReader oq = bodyOf(reqFrame);
            oq.u32(); // id
            oq.str(); // model
            oq.u64(); // version
            oq.u32(); // layer
            oq.u32(); // deadline
            oq.i32(); // priority
            EXPECT_TRUE(backReq.acts == oracleDecodeActs(oq));
            EXPECT_TRUE(backReq.acts == acts);

            WireResponse resp;
            resp.id = 8;
            resp.model = "vision";
            resp.version = 3;
            resp.layer = 2;
            resp.out = Matrix<int32_t>(rows, cols);
            for (size_t r = 0; r < rows; ++r)
                for (size_t c = 0; c < cols; ++c)
                    resp.out(r, c) = (r + c) % 7 < 3
                                         ? extremes[(r + c) % 7]
                                         : static_cast<int32_t>(rng.next());
            const std::vector<uint8_t> respFrame = oracleResponse(resp);
            expectFramesEqual(respFrame, FrameType::Response, resp,
                              encodeResponseFrame, encodeResponse);
            io::ByteReader rr = bodyOf(respFrame);
            const WireResponse backResp = decodeResponse(rr);
            EXPECT_EQ(backResp.id, resp.id);
            EXPECT_EQ(backResp.model, resp.model);
            EXPECT_EQ(backResp.version, resp.version);
            EXPECT_EQ(backResp.layer, resp.layer);
            EXPECT_TRUE(backResp.out == resp.out);

            const WireStepSession step{9, 77, acts};
            const std::vector<uint8_t> stepFrame = oracleStepSession(step);
            expectFramesEqual(stepFrame, FrameType::StepSession, step,
                              encodeStepSessionFrame, encodeStepSession);
            io::ByteReader rs = bodyOf(stepFrame);
            EXPECT_TRUE(decodeStepSession(rs).frames == acts);

            const WireSessionStepped stepped{10, 77, 1234, acts};
            const std::vector<uint8_t> steppedFrame =
                oracleSessionStepped(stepped);
            expectFramesEqual(steppedFrame, FrameType::SessionStepped,
                              stepped, encodeSessionSteppedFrame,
                              encodeSessionStepped);
            io::ByteReader rt = bodyOf(steppedFrame);
            const WireSessionStepped backStepped = decodeSessionStepped(rt);
            EXPECT_EQ(backStepped.firstStep, 1234u);
            EXPECT_TRUE(backStepped.spikes == acts);
        }
    }
}

TEST(NetProtocol, GarbageTailBitsDecodeToTheCleanRequest)
{
    // A peer may set bits past cols in a row's last word. They are not
    // part of the matrix: the decode equals the request without them
    // and keeps BinaryMatrix's tail invariant.
    Rng rng(29);
    for (size_t cols : {1u, 63u, 65u, 130u}) {
        WireRequest req;
        req.model = "m";
        req.acts = BinaryMatrix::random(4, cols, 0.5, rng);
        std::vector<uint8_t> frame = oracleRequest(req);
        const size_t wordsPerRow = (cols + 63) / 64;
        const size_t payload = frame.size() - 4 * wordsPerRow * 8;
        const uint64_t garbage = ~lowMask(static_cast<int>(cols % 64));
        for (size_t r = 0; r < 4; ++r) {
            // Set every bit of the row's last word that lies past cols.
            const size_t last =
                payload + (r * wordsPerRow + wordsPerRow - 1) * 8;
            for (size_t b = 0; b < 8; ++b)
                frame[last + b] |= static_cast<uint8_t>(garbage >> (8 * b));
        }
        io::ByteReader body = bodyOf(frame);
        const WireRequest back = decodeRequest(body);
        EXPECT_TRUE(back.acts.tailBitsClear()) << cols;
        EXPECT_TRUE(back.acts == req.acts) << cols;
    }
}

} // namespace
} // namespace phi::net
