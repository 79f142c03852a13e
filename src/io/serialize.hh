/**
 * @file
 * Endian-stable binary primitives for the artifact format.
 *
 * Every multi-byte value is encoded little-endian byte by byte, so the
 * on-disk representation is identical on any host. The reader is fully
 * bounds-checked: running off the end of the buffer throws IoError
 * rather than reading garbage, which is what turns a truncated or
 * corrupt artifact into a clean rejection.
 *
 * Unlike phi_assert (internal invariants, panics), artifact problems
 * are user-level input errors and always throw — a serving process must
 * be able to survive being handed a bad file.
 */

#ifndef PHI_IO_SERIALIZE_HH
#define PHI_IO_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace phi::io
{

/** Artifact I/O failure: corrupt, truncated or unreadable data. */
class IoError : public std::runtime_error
{
  public:
    explicit IoError(const std::string& what)
        : std::runtime_error("phi artifact error: " + what),
          detailText(what)
    {
    }

    /**
     * The same failure annotated with the offending file path —
     * loadModel()/saveModel() wrap parser throws this way so a
     * process juggling many artifacts always knows *which* file was
     * truncated or corrupt.
     */
    IoError(const std::string& path, const IoError& cause)
        : std::runtime_error("phi artifact error in '" + path +
                             "': " + cause.detail()),
          detailText(cause.detail()), pathText(path)
    {
    }

    /** The failure description without the prefix/path decoration. */
    const std::string& detail() const { return detailText; }

    /** Offending file path; empty when the error has no file context
     *  (e.g. parsing an in-memory buffer). */
    const std::string& path() const { return pathText; }

  private:
    std::string detailText;
    std::string pathText;
};

/** Growable little-endian byte sink. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        buf.push_back(static_cast<uint8_t>(v));
        buf.push_back(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        for (int s = 0; s < 32; s += 8)
            buf.push_back(static_cast<uint8_t>(v >> s));
    }

    void
    u64(uint64_t v)
    {
        for (int s = 0; s < 64; s += 8)
            buf.push_back(static_cast<uint8_t>(v >> s));
    }

    void i16(int16_t v) { u16(static_cast<uint16_t>(v)); }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    /** IEEE-754 double via its bit pattern. */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed UTF-8/byte string. */
    void
    str(const std::string& s)
    {
        // One grow for prefix + payload. Also keeps GCC 12's -O2
        // stringop-overflow analysis from mistaking the u32 push_back
        // growth for the insert's destination (a false positive that
        // breaks -Werror builds).
        buf.reserve(buf.size() + sizeof(uint32_t) + s.size());
        u32(static_cast<uint32_t>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }

    void
    bytes(const void* p, size_t n)
    {
        const auto* b = static_cast<const uint8_t*>(p);
        buf.insert(buf.end(), b, b + n);
    }

    size_t size() const { return buf.size(); }
    const std::vector<uint8_t>& buffer() const { return buf; }

  private:
    std::vector<uint8_t> buf;
};

/** Bounds-checked little-endian byte source over a borrowed buffer. */
class ByteReader
{
  public:
    ByteReader(const uint8_t* data, size_t size)
        : base(data), len(size), pos(0)
    {
    }

    size_t remaining() const { return len - pos; }

    uint8_t
    u8()
    {
        need(1);
        return base[pos++];
    }

    uint16_t
    u16()
    {
        need(2);
        uint16_t v = static_cast<uint16_t>(base[pos]) |
                     static_cast<uint16_t>(base[pos + 1]) << 8;
        pos += 2;
        return v;
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(base[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(base[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }

    int16_t i16() { return static_cast<int16_t>(u16()); }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }

    /**
     * Bulk copy of n raw bytes into caller storage. Only correct for
     * data whose encoded layout matches the destination's in-memory
     * layout (e.g. little-endian PODs on a little-endian host); the
     * matrix readers use it to rehydrate rows straight into their
     * aligned buffers without a per-element decode.
     */
    void
    bytesInto(void* dst, size_t n)
    {
        need(n);
        std::memcpy(dst, base + pos, n);
        pos += n;
    }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char*>(base + pos), n);
        pos += n;
        return s;
    }

    /**
     * Read a count that sizes an upcoming allocation; rejects values a
     * truncated buffer could never satisfy, so corrupt counts fail fast
     * instead of triggering a multi-gigabyte allocation.
     *
     * @param elemBytes  minimum encoded bytes per counted element.
     */
    uint64_t
    count(uint64_t elemBytes)
    {
        uint64_t n = u64();
        if (elemBytes > 0 && n > remaining() / elemBytes)
            throw IoError("element count " + std::to_string(n) +
                          " exceeds remaining artifact bytes");
        return n;
    }

  private:
    void
    need(size_t n)
    {
        if (n > len - pos)
            throw IoError("truncated artifact: need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos) +
                          ", have " + std::to_string(len - pos));
    }

    const uint8_t* base;
    size_t len;
    size_t pos;
};

} // namespace phi::io

#endif // PHI_IO_SERIALIZE_HH
