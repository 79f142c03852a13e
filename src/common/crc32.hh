/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to stamp
 * and verify artifact section payloads (io/container.hh).
 *
 * Chosen over stronger hashes deliberately: artifact integrity here
 * defends against bit rot, truncation and torn writes — not an
 * adversary — and a table-driven CRC32 verifies at memory speed with
 * zero dependencies, the same trade-off ZIP, PNG and gzip settled on.
 */

#ifndef PHI_COMMON_CRC32_HH
#define PHI_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace phi
{

/**
 * CRC-32 of @p size bytes at @p data. Pass a previous result as
 * @p seed to checksum a buffer in several calls; the default seed
 * (0) makes a single call self-contained. crc32(nullptr, 0) == 0.
 */
uint32_t crc32(const void* data, size_t size, uint32_t seed = 0);

} // namespace phi

#endif // PHI_COMMON_CRC32_HH
