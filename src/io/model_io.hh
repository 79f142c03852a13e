/**
 * @file
 * The .phim artifact format: versioned, endian-stable serialization of
 * compiled models, the handoff from the offline compiler to the
 * serving processes.
 *
 * A .phim file is the shared artifact container (io/container.hh:
 * header, CRC-stamped section table, payloads) under magic "PHIM",
 * format version 1 and kind 1 (compiled model). Its sections are
 * 'CFG ' (calibration provenance), 'LYRS' (tables + weights + PWPs per
 * layer) and — when the artifact was stamped — an optional 'META'
 * section (model name + version, the identity a ModelRegistry serves
 * it under). Models whose layers use a quantized PWP storage tier
 * additionally carry a 'LAYT' section (one tier byte per layer); it is
 * written only when some layer is narrower than int32, so unquantized
 * artifacts are byte-identical to pre-LAYT ones, and absence means
 * "all int32" so old artifacts keep loading. PWP payloads in 'LYRS'
 * always store the exact int32 values regardless of tier — the loader
 * re-quantizes and rejects artifacts whose claimed tier the values
 * cannot reach. Pre-CRC files (zeroed checksum fields) and pre-META
 * files load unchanged; the latter are just anonymous.
 *
 * Readers never trust the input: every count is bounds-checked against
 * the remaining payload and every structural inconsistency (PWP shape
 * vs. table, weights vs. partitions) throws io::IoError instead of
 * constructing a broken model; through loadModel() the error also
 * names the file.
 */

#ifndef PHI_IO_MODEL_IO_HH
#define PHI_IO_MODEL_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled_model.hh"
#include "io/serialize.hh"

namespace phi::io
{

/** "PHIM" interpreted as a little-endian u32. */
constexpr uint32_t kMagic = 0x4D494850u;
constexpr uint32_t kFormatVersion = 1;

constexpr uint32_t kKindModel = 1;

/** Section tags (fourcc, little-endian). */
constexpr uint32_t kSectionConfig = 0x20474643u; // "CFG "
constexpr uint32_t kSectionLayers = 0x5352594Cu; // "LYRS"
constexpr uint32_t kSectionMeta = 0x4154454Du;   // "META"
constexpr uint32_t kSectionLayout = 0x5459414Cu; // "LAYT"

/**
 * Artifact identity carried by the optional META section: the model
 * name and registry version the artifact was saved as. Both are
 * provenance — a registry assigns its own monotonic versions when a
 * file is (re)loaded, but the stamp says what the bytes *were* and
 * lets ModelRegistry::load(path) name a model from the artifact
 * alone. Empty name + version 0 (the default) means "unstamped"; such
 * artifacts are written without a META section at all, exactly the
 * pre-META section layout (their table entries still carry the
 * per-section CRC stamps every current writer emits).
 */
struct ArtifactMeta
{
    std::string name;
    uint64_t version = 0;

    bool empty() const { return name.empty() && version == 0; }
};

// ---- Component writers/readers (exposed for tests and tooling) ----

void writePatternTable(ByteWriter& w, const PatternTable& table);
PatternTable readPatternTable(ByteReader& r);

void writeCalibrationConfig(ByteWriter& w, const CalibrationConfig& cfg);
CalibrationConfig readCalibrationConfig(ByteReader& r);

void writeWeights(ByteWriter& w, const Matrix<int16_t>& m);
Matrix<int16_t> readWeights(ByteReader& r);

void writePwps(ByteWriter& w, const std::vector<Matrix<int32_t>>& pwps);
std::vector<Matrix<int32_t>> readPwps(ByteReader& r);

void writeArtifactMeta(ByteWriter& w, const ArtifactMeta& meta);
ArtifactMeta readArtifactMeta(ByteReader& r);

// ---- Whole-artifact API ----

/**
 * Encode a compiled model as a .phim byte image; a non-empty @p meta
 * is stamped into a META section (an empty one writes the pre-META
 * byte layout, so unstamped artifacts stay byte-stable).
 */
std::vector<uint8_t> serializeModel(const CompiledModel& model,
                                    const ArtifactMeta& meta = {});

/**
 * Decode a .phim byte image; throws IoError on any malformation.
 * When @p metaOut is non-null it receives the META stamp (or a
 * default ArtifactMeta for pre-META files).
 */
CompiledModel parseModel(const uint8_t* data, size_t size,
                         ArtifactMeta* metaOut = nullptr);

/**
 * serializeModel + write to disk; throws IoError on I/O failure,
 * always naming the offending file path.
 */
void saveModel(const CompiledModel& model, const std::string& path,
               const ArtifactMeta& meta = {});

/**
 * Read + parseModel; throws IoError on I/O failure or malformation,
 * always naming the offending file path (IoError::path()).
 */
CompiledModel loadModel(const std::string& path,
                        ArtifactMeta* metaOut = nullptr);

} // namespace phi::io

#endif // PHI_IO_MODEL_IO_HH
