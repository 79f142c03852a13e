#include "io/container.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/failpoint.hh"

namespace phi::io
{

namespace
{

/**
 * CRC stamp written into a section-table entry's checksum field.
 * 0 is reserved to mean "unstamped" (the pre-CRC format wrote a zero
 * reserved field there), so a payload whose true CRC happens to be 0
 * is stamped as 0xFFFFFFFF instead; crcMatches() on the read side
 * accepts either spelling.
 */
uint32_t
stampCrc(uint32_t crc)
{
    return crc == 0 ? 0xFFFFFFFFu : crc;
}

bool
crcMatches(uint32_t stored, uint32_t computed)
{
    return stored == computed || stored == stampCrc(computed);
}

/** Render a fourcc tag for error messages ('LYRS'); non-printable
 *  bytes fall back to the hex spelling. */
std::string
tagName(uint32_t tag)
{
    char chars[4];
    bool printable = true;
    for (int i = 0; i < 4; ++i) {
        chars[i] = static_cast<char>((tag >> (8 * i)) & 0xFFu);
        printable = printable && chars[i] >= 0x20 && chars[i] < 0x7F;
    }
    if (printable)
        return std::string(chars, 4);
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08X", tag);
    return hex;
}

} // namespace

std::vector<uint8_t>
assembleContainer(const ContainerFormat& format,
                  const std::vector<Section>& sections)
{
    ByteWriter w;
    w.u32(format.magic);
    w.u32(format.version);
    w.u32(format.kind);
    w.u32(static_cast<uint32_t>(sections.size()));

    size_t total = kHeaderBytes + sections.size() * kSectionEntryBytes;
    size_t offset = total;
    for (const auto& s : sections)
        total += s.payload.size();
    w.u64(total);

    for (const auto& s : sections) {
        w.u32(s.tag);
        w.u32(stampCrc(crc32(s.payload.data(), s.payload.size())));
        w.u64(offset);
        w.u64(s.payload.size());
        offset += s.payload.size();
    }
    std::vector<uint8_t> out = w.buffer();
    out.reserve(total);
    for (const auto& s : sections)
        out.insert(out.end(), s.payload.begin(), s.payload.end());
    return out;
}

std::vector<SectionView>
parseContainer(const ContainerFormat& format, const uint8_t* data,
               size_t size)
{
    const std::string noun = format.noun;
    if (data == nullptr || size < kHeaderBytes)
        throw IoError("file too small to hold a " + noun + " header");
    ByteReader r(data, size);
    if (r.u32() != format.magic)
        throw IoError("bad magic: not a " + noun);
    const uint32_t version = r.u32();
    if (version != format.version)
        throw IoError("unsupported " + noun + " format version " +
                      std::to_string(version) + " (reader supports " +
                      std::to_string(format.version) + ")");
    const uint32_t kind = r.u32();
    if (kind != format.kind)
        throw IoError("artifact kind " + std::to_string(kind) +
                      " does not match expected kind " +
                      std::to_string(format.kind) + " of a " + noun);
    const uint32_t count = r.u32();
    const uint64_t declared = r.u64();
    if (declared != size)
        throw IoError("declared size " + std::to_string(declared) +
                      " != actual size " + std::to_string(size) +
                      " (truncated or padded " + noun + ")");
    if (count > (size - kHeaderBytes) / kSectionEntryBytes)
        throw IoError("section table larger than the " + noun);

    std::vector<SectionView> sections;
    sections.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        const uint32_t tag = r.u32();
        const uint32_t storedCrc = r.u32();
        const uint64_t off = r.u64();
        const uint64_t len = r.u64();
        if (off > size || len > size - off)
            throw IoError("section " + std::to_string(i) +
                          " extends past the end of the " + noun);
        // Integrity check before any payload is interpreted. Pre-CRC
        // writers left this field zero, so 0 means "unstamped, accept"
        // and old artifacts keep loading unchanged.
        if (storedCrc != 0) {
            const uint32_t computed =
                crc32(data + off, static_cast<size_t>(len));
            if (!crcMatches(storedCrc, computed))
                throw IoError(
                    "section '" + tagName(tag) + "' CRC mismatch (" +
                    "stored " + std::to_string(storedCrc) +
                    ", computed " + std::to_string(computed) +
                    "): corrupt " + noun);
        }
        sections.push_back({tag, data + off, static_cast<size_t>(len)});
    }
    return sections;
}

const SectionView&
findSection(const std::vector<SectionView>& sections, uint32_t tag)
{
    if (const SectionView* s = findSectionIfPresent(sections, tag))
        return *s;
    throw IoError("missing required section '" + tagName(tag) + "'");
}

const SectionView*
findSectionIfPresent(const std::vector<SectionView>& sections, uint32_t tag)
{
    for (const auto& s : sections)
        if (s.tag == tag)
            return &s;
    return nullptr;
}

std::vector<uint8_t>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw IoError(path, IoError("cannot open for reading"));
    PHI_FAILPOINT(failpoint::sites::kIoRead,
                  throw IoError(path, IoError("injected read failure "
                                              "(failpoint 'io.read')")));
    // A directory opens for reading on Linux, and seeking to its end
    // reports a huge offset: size it as a regular file or reject it,
    // never allocate what the stream claims.
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec)
        throw IoError(path, IoError("not a readable regular file: " +
                                    ec.message()));
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    if (size > 0 &&
        !in.read(reinterpret_cast<char*>(bytes.data()),
                 static_cast<std::streamsize>(size)))
        throw IoError(path, IoError("read failed"));
    return bytes;
}

void
writeFileAtomic(const std::string& path, const std::vector<uint8_t>& bytes)
{
    // Write-then-rename so a crashed writer never leaves a half-written
    // artifact at the published path; the temp name is per-process so
    // concurrent savers to the same path cannot clobber each other's
    // in-flight bytes. A failure anywhere before the rename unlinks
    // the temp file — failed saves must not litter *.tmp files.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    try {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw IoError(path, IoError("cannot open temp file '" + tmp +
                                        "' for writing"));
        PHI_FAILPOINT(
            failpoint::sites::kIoWrite,
            throw IoError(path, IoError("injected mid-write failure "
                                        "(failpoint 'io.write')")));
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            throw IoError(path,
                          IoError("write to '" + tmp + "' failed"));
        out.close();
        if (std::rename(tmp.c_str(), path.c_str()) != 0)
            throw IoError(path,
                          IoError("rename from '" + tmp + "' failed"));
    } catch (...) {
        std::remove(tmp.c_str());
        throw;
    }
}

void
rethrowWithPath(const std::string& path, const IoError& e)
{
    if (e.path().empty())
        throw IoError(path, e);
    throw e;
}

} // namespace phi::io
