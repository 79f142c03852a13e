/**
 * @file
 * `.phis` session snapshots: the durable form of live temporal serving
 * state, so open sessions survive a restart and can migrate between
 * serving processes.
 *
 * A `.phis` file is the shared artifact container (io/container.hh:
 * header, CRC-stamped section table, payloads, atomic write-then-rename
 * publication) under magic "PHIS", format version 1 and kind 1, with
 * one 'SESS' section of session records. Both artifact families share
 * that code, so a corrupt or truncated snapshot gets the same clean
 * typed rejection as a corrupt model, never a crash or a torn file.
 *
 * Each session record carries everything SessionManager needs to
 * resume the stream exactly where it stopped: the registry model
 * *name* to re-pin (the version is provenance — restore pins the
 * name's current epoch, the same contract a reconnecting client
 * gets), the per-layer LifParams, and the per-layer membrane +
 * refractory vectors.
 *
 * These structs are plain data (no SessionManager dependency) so the
 * io layer stays beneath the runtime in the dependency order.
 */

#ifndef PHI_IO_SESSION_IO_HH
#define PHI_IO_SESSION_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "io/serialize.hh"
#include "snn/lif.hh"

namespace phi::io
{

/** "PHIS" when read as little-endian bytes from the file. */
constexpr uint32_t kSessionMagic = 0x53494850u;
constexpr uint32_t kSessionFormatVersion = 1;
constexpr uint32_t kKindSessions = 1;
/** "SESS": the session-record section. */
constexpr uint32_t kSectionSessions = 0x53534553u;

/** One serialized session: identity, model binding, temporal state. */
struct SessionStateRecord
{
    uint64_t id = 0;
    /** Registry name the session serves; restore re-pins it. */
    std::string model;
    /** Version the session was pinned to when snapshotted
     *  (provenance — restore pins the name's current version). */
    uint64_t version = 0;
    /** Timesteps served before the snapshot. */
    uint64_t steps = 0;
    /** Per-layer neuron dynamics; one entry per model layer. */
    std::vector<LifParams> layerParams;
    /** Per-layer membrane + refractory vectors (same count). */
    std::vector<LifState> layerState;
};

/** Everything a SessionManager snapshots. */
struct SessionSnapshot
{
    /** Restored managers allocate new ids above every saved one. */
    uint64_t nextSessionId = 1;
    std::vector<SessionStateRecord> sessions;
};

/** Serialize a snapshot to `.phis` bytes. */
std::vector<uint8_t> serializeSessions(const SessionSnapshot& snap);

/** Parse `.phis` bytes; @throws IoError on any corruption (bad magic,
 *  version, kind, CRC mismatch, truncation, invalid LIF state). */
SessionSnapshot parseSessions(const uint8_t* data, size_t size);

/** serializeSessions() + atomic write-then-rename to @p path. */
void saveSessions(const SessionSnapshot& snap, const std::string& path);

/** Read + parseSessions(); throws IoError annotated with @p path. */
SessionSnapshot loadSessions(const std::string& path);

} // namespace phi::io

#endif // PHI_IO_SESSION_IO_HH
