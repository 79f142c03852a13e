/**
 * @file
 * Wire-protocol tests (net/protocol.hh): codec round-trips, the
 * exhaustive wire<->engine error-code mapping, and the incremental
 * frame parser against hostile input — truncated headers, lying
 * length fields, oversized frames, bad magic, trailing garbage. The
 * contract pinned here: every malformed input is a *typed* rejection
 * (ParseStatus::Bad with a code, or io::IoError from a body decoder),
 * never an out-of-bounds read, an allocation bomb, or a crash.
 */

#include <gtest/gtest.h>

#include <vector>

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

std::vector<uint8_t>
encodeRequestFrame(const WireRequest& req)
{
    io::ByteWriter body;
    encodeRequest(body, req);
    return encodeFrame(FrameType::Request, body.buffer());
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

} // namespace
} // namespace phi::net
