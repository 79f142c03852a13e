/**
 * @file
 * Hostile-input cases for the artifact container (io/container.hh),
 * written once and run against every artifact family (.phim models in
 * test_model_io.cc, .phis snapshots in test_session.cc). Each case
 * takes a valid image of the family plus the family's parser and lies
 * about one container field; the parser must reject the result with
 * io::IoError, never crash or accept it.
 */

#ifndef PHI_TESTS_ARTIFACT_CASES_HH
#define PHI_TESTS_ARTIFACT_CASES_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "io/container.hh"
#include "io/model_io.hh"
#include "io/session_io.hh"

namespace phi::test
{

/** One family's in-memory parser; throws io::IoError to reject. */
using ParseImage = std::function<void(const uint8_t* data, size_t size)>;

inline void
parseModelImage(const uint8_t* data, size_t size)
{
    io::parseModel(data, size);
}

inline void
parseSessionsImage(const uint8_t* data, size_t size)
{
    io::parseSessions(data, size);
}

inline uint32_t
imageU32(const std::vector<uint8_t>& bytes, size_t at)
{
    return static_cast<uint32_t>(bytes[at]) |
           static_cast<uint32_t>(bytes[at + 1]) << 8 |
           static_cast<uint32_t>(bytes[at + 2]) << 16 |
           static_cast<uint32_t>(bytes[at + 3]) << 24;
}

inline uint64_t
imageU64(const std::vector<uint8_t>& bytes, size_t at)
{
    return static_cast<uint64_t>(imageU32(bytes, at)) |
           static_cast<uint64_t>(imageU32(bytes, at + 4)) << 32;
}

inline void
putU32(std::vector<uint8_t>& bytes, size_t at, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
}

inline void
putU64(std::vector<uint8_t>& bytes, size_t at, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
}

/** One decoded section-table entry (tag u32, crc u32, payload offset
 *  u64, payload size u64). */
struct SectionEntry
{
    size_t entryOffset; // byte offset of this entry in the image
    uint32_t tag;
    uint32_t crc;
    uint64_t payloadOffset;
    uint64_t payloadSize;

    std::string tagName() const
    {
        std::string s;
        for (int i = 0; i < 4; ++i)
            s.push_back(static_cast<char>((tag >> (8 * i)) & 0xFFu));
        return s;
    }
};

inline std::vector<SectionEntry>
readSectionTable(const std::vector<uint8_t>& bytes)
{
    const uint32_t count = imageU32(bytes, 12);
    std::vector<SectionEntry> entries;
    for (uint32_t i = 0; i < count; ++i) {
        const size_t at = io::kHeaderBytes + i * io::kSectionEntryBytes;
        entries.push_back({at, imageU32(bytes, at), imageU32(bytes, at + 4),
                           imageU64(bytes, at + 8),
                           imageU64(bytes, at + 16)});
    }
    return entries;
}

/** Header offsets of the fields the cases below lie about. */
constexpr size_t kVersionField = 4;
constexpr size_t kKindField = 8;
constexpr size_t kCountField = 12;

inline void
expectRejectsBadMagic(const std::vector<uint8_t>& image,
                      const ParseImage& parse)
{
    std::vector<uint8_t> bytes = image;
    bytes[0] ^= 0xFF;
    EXPECT_THROW(parse(bytes.data(), bytes.size()), io::IoError);
}

inline void
expectRejectsUnsupportedVersion(const std::vector<uint8_t>& image,
                                const ParseImage& parse)
{
    std::vector<uint8_t> bytes = image;
    putU32(bytes, kVersionField, 99);
    EXPECT_THROW(parse(bytes.data(), bytes.size()), io::IoError);
}

/** A header claiming @p kind (another kind than the family's). */
inline void
expectRejectsKind(const std::vector<uint8_t>& image, const ParseImage& parse,
                  uint32_t kind)
{
    std::vector<uint8_t> bytes = image;
    putU32(bytes, kKindField, kind);
    EXPECT_THROW(parse(bytes.data(), bytes.size()), io::IoError)
        << "kind " << kind;
}

/**
 * Every prefix that ends at, just before or just after a header
 * field, a table-entry field or a payload boundary must reject, and
 * so must the empty, half and one-byte-short prefixes.
 */
inline void
expectRejectsTruncationAtEveryBoundary(const std::vector<uint8_t>& image,
                                       const ParseImage& parse)
{
    std::set<size_t> boundaries = {0, 4, 8, 12, 16, io::kHeaderBytes,
                                   image.size() / 2, image.size() - 1};
    for (const SectionEntry& e : readSectionTable(image)) {
        for (size_t field : {0, 4, 8, 16})
            boundaries.insert(e.entryOffset + field);
        boundaries.insert(e.entryOffset + io::kSectionEntryBytes);
        boundaries.insert(e.payloadOffset);
        boundaries.insert(e.payloadOffset + e.payloadSize);
    }
    std::set<size_t> cuts;
    for (size_t b : boundaries)
        for (size_t cut : {b - 1, b, b + 1})
            if (cut < image.size()) // also drops 0 - 1, which wraps
                cuts.insert(cut);
    for (size_t cut : cuts)
        EXPECT_THROW(parse(image.data(), cut), io::IoError)
            << "prefix of " << cut << " bytes";
}

/** Table entries and header counts that point outside the image. */
inline void
expectRejectsLyingSectionTable(const std::vector<uint8_t>& image,
                               const ParseImage& parse)
{
    const SectionEntry first = readSectionTable(image).at(0);
    {
        std::vector<uint8_t> bytes = image;
        putU64(bytes, first.entryOffset + 8, ~uint64_t{0});
        EXPECT_THROW(parse(bytes.data(), bytes.size()), io::IoError)
            << "offset past the end";
    }
    {
        std::vector<uint8_t> bytes = image;
        putU64(bytes, first.entryOffset + 16, bytes.size());
        EXPECT_THROW(parse(bytes.data(), bytes.size()), io::IoError)
            << "size past the end";
    }
    {
        std::vector<uint8_t> bytes = image;
        putU32(bytes, kCountField, ~uint32_t{0});
        EXPECT_THROW(parse(bytes.data(), bytes.size()), io::IoError)
            << "section count larger than the table";
    }
    {
        std::vector<uint8_t> bytes = image;
        bytes.push_back(0);
        EXPECT_THROW(parse(bytes.data(), bytes.size()), io::IoError)
            << "padded past the declared size";
    }
}

/** A flipped payload byte in any section fails its CRC, and the error
 *  names the section. */
inline void
expectCrcFlipNamesTheSection(const std::vector<uint8_t>& image,
                             const ParseImage& parse)
{
    for (const SectionEntry& e : readSectionTable(image)) {
        SCOPED_TRACE("section " + e.tagName());
        ASSERT_GT(e.payloadSize, 0u);
        std::vector<uint8_t> bytes = image;
        bytes[e.payloadOffset + e.payloadSize / 2] ^= 0x01;
        try {
            parse(bytes.data(), bytes.size());
            ADD_FAILURE() << "corrupt section parsed";
        } catch (const io::IoError& err) {
            const std::string what = err.what();
            EXPECT_NE(what.find(e.tagName()), std::string::npos)
                << "error does not name the section: " << what;
            EXPECT_NE(what.find("CRC"), std::string::npos) << what;
        }
    }
}

} // namespace phi::test

#endif // PHI_TESTS_ARTIFACT_CASES_HH
