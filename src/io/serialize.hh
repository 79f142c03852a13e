/**
 * @file
 * Endian-stable binary primitives for the artifact format.
 *
 * Every multi-byte value is encoded little-endian, so the on-disk and
 * on-wire representation is identical on any host. Scalars are encoded
 * byte by byte. Integer arrays (ByteWriter::ints, ByteReader::intsInto)
 * take a bulk path: on a little-endian host their in-memory bytes
 * already are the encoding, so a whole array is one memcpy. Other hosts
 * fall back to the per-element loop, which writes the same bytes.
 *
 * The reader is fully bounds-checked: running off the end of the
 * buffer throws IoError rather than reading garbage, which is what
 * turns a truncated or corrupt artifact into a clean rejection.
 *
 * Unlike phi_assert (internal invariants, panics), artifact problems
 * are user-level input errors and always throw — a serving process must
 * be able to survive being handed a bad file.
 */

#ifndef PHI_IO_SERIALIZE_HH
#define PHI_IO_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
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

    /** @p n integers, each little-endian: one copy on a little-endian
     *  host, the per-element encoding elsewhere. */
    template <typename T>
    void
    ints(const T* p, size_t n)
    {
        static_assert(std::is_integral_v<T>, "bulk path is for integers");
        if constexpr (std::endian::native == std::endian::little) {
            bytes(p, n * sizeof(T));
        } else {
            for (size_t i = 0; i < n; ++i) {
                const auto v = static_cast<std::make_unsigned_t<T>>(p[i]);
                for (size_t s = 0; s < sizeof(T); ++s)
                    buf.push_back(static_cast<uint8_t>(v >> (8 * s)));
            }
        }
    }

    /** Overwrite the u32 at byte @p at, e.g. a length prefix written
     *  before the bytes it counts. */
    void
    patchU32(size_t at, uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.at(at + static_cast<size_t>(i)) =
                static_cast<uint8_t>(v >> (8 * i));
    }

    /** Grow capacity to @p n bytes in total, so a payload of known
     *  size lands with one allocation. */
    void reserve(size_t n) { buf.reserve(n); }

    size_t size() const { return buf.size(); }
    const std::vector<uint8_t>& buffer() const { return buf; }

    /** Move the bytes out; the writer is left empty. */
    std::vector<uint8_t> take() { return std::move(buf); }

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

    /** Inverse of ByteWriter::ints(): @p n little-endian integers
     *  straight into caller storage, one copy on a little-endian host. */
    template <typename T>
    void
    intsInto(T* dst, size_t n)
    {
        static_assert(std::is_integral_v<T>, "bulk path is for integers");
        // Saturate rather than wrap, so a huge n still fails need().
        need(n > SIZE_MAX / sizeof(T) ? SIZE_MAX : n * sizeof(T));
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(dst, base + pos, n * sizeof(T));
            pos += n * sizeof(T);
        } else {
            using U = std::make_unsigned_t<T>;
            for (size_t i = 0; i < n; ++i) {
                U v = 0;
                for (size_t s = 0; s < sizeof(T); ++s)
                    v = static_cast<U>(
                        v | static_cast<U>(base[pos++]) << (8 * s));
                dst[i] = static_cast<T>(v);
            }
        }
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
