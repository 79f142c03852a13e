#include "io/session_io.hh"

#include <cstring>

#include "io/container.hh"

namespace phi::io
{

namespace
{

constexpr ContainerFormat kSessionFormat{
    kSessionMagic, kSessionFormatVersion, kKindSessions,
    ".phis session snapshot"};

// ---- Record codecs --------------------------------------------------

/** Floats travel as IEEE-754 bit patterns (u32), which round-trips
 *  every value — including NaN payloads — byte-exactly. */
uint32_t
floatBits(float v)
{
    uint32_t bits;
    static_assert(sizeof(bits) == sizeof(v), "float is not 32-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

float
bitsFloat(uint32_t bits)
{
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
writeRecord(ByteWriter& w, const SessionStateRecord& rec)
{
    if (rec.layerParams.size() != rec.layerState.size())
        throw IoError("session " + std::to_string(rec.id) +
                      ": layerParams/layerState count mismatch");
    w.u64(rec.id);
    w.str(rec.model);
    w.u64(rec.version);
    w.u64(rec.steps);
    w.u64(rec.layerParams.size());
    for (size_t l = 0; l < rec.layerParams.size(); ++l) {
        const LifParams& p = rec.layerParams[l];
        const LifState& s = rec.layerState[l];
        if (s.membrane.size() != s.refractory.size())
            throw IoError("session " + std::to_string(rec.id) +
                          " layer " + std::to_string(l) +
                          ": membrane/refractory size mismatch");
        w.u32(floatBits(p.threshold));
        w.u32(floatBits(p.leak));
        w.u8(p.hardReset ? 1 : 0);
        w.i32(p.refractory);
        w.u64(s.membrane.size());
        for (float v : s.membrane)
            w.u32(floatBits(v));
        for (int32_t r : s.refractory)
            w.i32(r);
    }
}

SessionStateRecord
readRecord(ByteReader& r)
{
    SessionStateRecord rec;
    rec.id = r.u64();
    rec.model = r.str();
    if (rec.model.empty())
        throw IoError("session " + std::to_string(rec.id) +
                      " has an empty model name");
    rec.version = r.u64();
    rec.steps = r.u64();
    const uint64_t layers = r.count(/*elemBytes=*/4 + 4 + 1 + 4 + 8);
    rec.layerParams.reserve(layers);
    rec.layerState.reserve(layers);
    for (uint64_t l = 0; l < layers; ++l) {
        LifParams p;
        p.threshold = bitsFloat(r.u32());
        p.leak = bitsFloat(r.u32());
        p.hardReset = r.u8() != 0;
        p.refractory = r.i32();
        if (!(p.threshold > 0))
            throw IoError("layer " + std::to_string(l) +
                          ": non-positive LIF threshold");
        if (!(p.leak >= 0.0f && p.leak <= 1.0f))
            throw IoError("layer " + std::to_string(l) +
                          ": LIF leak outside [0, 1]");
        if (p.refractory < 0)
            throw IoError("layer " + std::to_string(l) +
                          ": negative refractory period");
        LifState s;
        const uint64_t neurons = r.count(/*elemBytes=*/4 + 4);
        s.membrane.reserve(neurons);
        for (uint64_t i = 0; i < neurons; ++i)
            s.membrane.push_back(bitsFloat(r.u32()));
        s.refractory.reserve(neurons);
        for (uint64_t i = 0; i < neurons; ++i) {
            const int32_t c = r.i32();
            if (c < 0)
                throw IoError("layer " + std::to_string(l) +
                              ": negative refractory counter");
            s.refractory.push_back(c);
        }
        rec.layerParams.push_back(p);
        rec.layerState.push_back(std::move(s));
    }
    return rec;
}

} // namespace

std::vector<uint8_t>
serializeSessions(const SessionSnapshot& snap)
{
    ByteWriter w;
    w.u64(snap.nextSessionId);
    w.u64(snap.sessions.size());
    for (const auto& rec : snap.sessions)
        writeRecord(w, rec);
    return assembleContainer(kSessionFormat,
                             {{kSectionSessions, w.buffer()}});
}

SessionSnapshot
parseSessions(const uint8_t* data, size_t size)
{
    const auto sections = parseContainer(kSessionFormat, data, size);
    const SectionView& sess = findSection(sections, kSectionSessions);

    ByteReader r(sess.data, sess.size);
    SessionSnapshot snap;
    snap.nextSessionId = r.u64();
    const uint64_t count = r.count(/*elemBytes=*/8 + 4 + 8 + 8 + 8);
    snap.sessions.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        snap.sessions.push_back(readRecord(r));
    for (const auto& rec : snap.sessions)
        if (rec.id >= snap.nextSessionId)
            throw IoError("session id " + std::to_string(rec.id) +
                          " >= nextSessionId " +
                          std::to_string(snap.nextSessionId));
    return snap;
}

void
saveSessions(const SessionSnapshot& snap, const std::string& path)
{
    writeFileAtomic(path, serializeSessions(snap));
}

SessionSnapshot
loadSessions(const std::string& path)
{
    const std::vector<uint8_t> bytes = readFile(path);
    try {
        return parseSessions(bytes.data(), bytes.size());
    } catch (const IoError& e) {
        rethrowWithPath(path, e);
    }
}

} // namespace phi::io
