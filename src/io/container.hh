/**
 * @file
 * The artifact container shared by both on-disk families: `.phim`
 * compiled models (io/model_io.hh) and `.phis` session snapshots
 * (io/session_io.hh). A family supplies only its identity — magic,
 * format version, kind and a name for error messages — and its
 * section payload codecs; the framing, integrity check and file
 * publication below are the same bytes and the same code for both.
 *
 * Layout (all little-endian):
 *
 *   offset 0   u32  magic           family fourcc ("PHIM", "PHIS")
 *              u32  format version  (currently 1 for both families)
 *              u32  file kind       (1 for both families)
 *              u32  section count
 *              u64  total file size (redundant; catches truncation)
 *   offset 24  section table: per section, 24 bytes
 *              u32  tag (fourcc)    u32 payload CRC-32 (0 = unstamped)
 *              u64  payload offset  u64 payload size
 *   then       the section payloads, in table order.
 *
 * The CRC field occupies what was a zeroed reserved slot, so the
 * format version did not move when it was introduced: writers stamp
 * every section's IEEE CRC-32 (a true CRC of 0 is stored as
 * 0xFFFFFFFF), readers verify stamped sections before a single payload
 * byte is interpreted and reject mismatches with an IoError naming the
 * section, while a zero field means "pre-CRC artifact, nothing to
 * verify" and loads exactly as before. Unknown section tags are
 * carried in the table and ignored by readers that do not look for
 * them, so a family can add sections without breaking old readers; a
 * bumped version field rejects incompatible layouts outright.
 */

#ifndef PHI_IO_CONTAINER_HH
#define PHI_IO_CONTAINER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/serialize.hh"

namespace phi::io
{

/** Header bytes before the section table. */
constexpr size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8;
/** Bytes per section-table entry. */
constexpr size_t kSectionEntryBytes = 4 + 4 + 8 + 8;

/** The identity one artifact family stamps into, and expects in, the
 *  header. */
struct ContainerFormat
{
    uint32_t magic;
    uint32_t version;
    uint32_t kind;
    /** Names the family in error messages (".phim artifact"). */
    const char* noun;
};

/** One section to write: its tag and its encoded payload. */
struct Section
{
    uint32_t tag;
    std::vector<uint8_t> payload;
};

/** One verified section of a parsed image, borrowing its bytes. */
struct SectionView
{
    uint32_t tag;
    const uint8_t* data;
    size_t size;
};

/** Header + CRC-stamped section table + payloads, in table order. */
std::vector<uint8_t> assembleContainer(const ContainerFormat& format,
                                       const std::vector<Section>& sections);

/**
 * Check the header against @p format, bound every table entry by the
 * image and verify every stamped CRC; returns views into @p data.
 * @throws IoError on any malformation.
 */
std::vector<SectionView> parseContainer(const ContainerFormat& format,
                                        const uint8_t* data, size_t size);

/** The first section tagged @p tag; throws IoError when absent. */
const SectionView& findSection(const std::vector<SectionView>& sections,
                               uint32_t tag);

/** The first section tagged @p tag, or null for an optional one. */
const SectionView*
findSectionIfPresent(const std::vector<SectionView>& sections, uint32_t tag);

/** Whole file into memory; throws IoError naming @p path. */
std::vector<uint8_t> readFile(const std::string& path);

/**
 * Publish @p bytes at @p path by write-then-rename, so no reader ever
 * sees a half-written file; throws IoError naming @p path.
 */
void writeFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes);

/** Re-throw a parse failure annotated with the file it came from. */
[[noreturn]] void rethrowWithPath(const std::string& path, const IoError& e);

} // namespace phi::io

#endif // PHI_IO_CONTAINER_HH
