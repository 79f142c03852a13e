#include "io/model_io.hh"

#include <algorithm>

#include "io/container.hh"

namespace phi::io
{

namespace
{

constexpr ContainerFormat kModelFormat{kMagic, kFormatVersion, kKindModel,
                                       ".phim artifact"};

// ---- Matrix codecs --------------------------------------------------

/**
 * Validate a rows x cols element count against the bytes actually left
 * in the payload, without overflowing the intermediate products.
 */
size_t
checkedElems(const ByteReader& r, uint64_t rows, uint64_t cols,
             uint64_t elemBytes)
{
    if (rows == 0 || cols == 0)
        return 0;
    const uint64_t budget = r.remaining() / elemBytes;
    if (cols > budget || rows > budget / cols)
        throw IoError("matrix shape " + std::to_string(rows) + "x" +
                      std::to_string(cols) +
                      " exceeds remaining artifact bytes");
    return static_cast<size_t>(rows * cols);
}

/**
 * Matrix rows are encoded densely (cols() elements per row, no
 * padding), so artifacts are independent of the in-memory stride.
 * Whole rows go through the ints()/intsInto() bulk path, so on a
 * little-endian host the loader rehydrates PWP tables into SIMD-ready
 * memory with no per-element decode and no intermediate copy.
 */
template <typename T>
void
writeMatrix(ByteWriter& w, const Matrix<T>& m)
{
    w.u64(m.rows());
    w.u64(m.cols());
    for (size_t r = 0; r < m.rows(); ++r)
        w.ints(m.rowPtr(r), m.cols());
}

template <typename T>
Matrix<T>
readMatrix(ByteReader& r)
{
    const uint64_t rows = r.u64();
    const uint64_t cols = r.u64();
    checkedElems(r, rows, cols, sizeof(T));
    Matrix<T> m(static_cast<size_t>(rows), static_cast<size_t>(cols));
    for (size_t row = 0; row < m.rows(); ++row)
        r.intsInto(m.rowPtr(row), m.cols());
    return m;
}

} // namespace

// ---- Component writers/readers --------------------------------------

void
writePatternTable(ByteWriter& w, const PatternTable& table)
{
    w.i32(table.k());
    w.u64(table.numPartitions());
    for (size_t p = 0; p < table.numPartitions(); ++p) {
        const PatternSet& ps = table.partition(p);
        w.u64(ps.size());
        for (uint64_t bits : ps.patterns())
            w.u64(bits);
    }
}

PatternTable
readPatternTable(ByteReader& r)
{
    const int k = r.i32();
    if (k < 1 || k > 64)
        throw IoError("pattern width " + std::to_string(k) +
                      " outside [1,64]");
    const uint64_t parts = r.count(8);
    std::vector<PatternSet> sets;
    sets.reserve(static_cast<size_t>(parts));
    for (uint64_t p = 0; p < parts; ++p) {
        const uint64_t n = r.count(8);
        // Pattern ids are uint16_t with 0 reserved: a larger set would
        // wrap ids and serve the wrong pattern's PWP row.
        if (n > kMaxPatternsPerPartition)
            throw IoError("partition " + std::to_string(p) + " holds " +
                          std::to_string(n) + " patterns, more than " +
                          std::to_string(kMaxPatternsPerPartition));
        std::vector<uint64_t> pats;
        pats.reserve(static_cast<size_t>(n));
        for (uint64_t i = 0; i < n; ++i)
            pats.push_back(r.u64());
        sets.emplace_back(k, std::move(pats));
    }
    return PatternTable(k, std::move(sets));
}

void
writeCalibrationConfig(ByteWriter& w, const CalibrationConfig& cfg)
{
    // exec{threads,tiles} is a per-process runtime knob, not part of the
    // model; it is deliberately not serialized.
    w.i32(cfg.k);
    w.i32(cfg.q);
    w.u64(cfg.maxRowsPerPartition);
    w.i32(cfg.kmeans.numClusters);
    w.i32(cfg.kmeans.maxIters);
    w.u64(cfg.kmeans.seed);
    w.u32(static_cast<uint32_t>(cfg.kmeans.init));
    w.u64(cfg.kmeans.maxDistinct);
}

CalibrationConfig
readCalibrationConfig(ByteReader& r)
{
    CalibrationConfig cfg;
    cfg.k = r.i32();
    cfg.q = r.i32();
    cfg.maxRowsPerPartition = static_cast<size_t>(r.u64());
    cfg.kmeans.numClusters = r.i32();
    cfg.kmeans.maxIters = r.i32();
    cfg.kmeans.seed = r.u64();
    const uint32_t init = r.u32();
    if (init > static_cast<uint32_t>(KMeansConfig::Init::PlusPlus))
        throw IoError("unknown k-means init scheme " +
                      std::to_string(init));
    cfg.kmeans.init = static_cast<KMeansConfig::Init>(init);
    cfg.kmeans.maxDistinct = static_cast<size_t>(r.u64());
    return cfg;
}

void
writeWeights(ByteWriter& w, const Matrix<int16_t>& m)
{
    writeMatrix(w, m);
}

Matrix<int16_t>
readWeights(ByteReader& r)
{
    return readMatrix<int16_t>(r);
}

void
writePwps(ByteWriter& w, const std::vector<Matrix<int32_t>>& pwps)
{
    w.u64(pwps.size());
    for (const auto& p : pwps)
        writeMatrix(w, p);
}

std::vector<Matrix<int32_t>>
readPwps(ByteReader& r)
{
    const uint64_t n = r.count(8 + 8);
    std::vector<Matrix<int32_t>> pwps;
    pwps.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i)
        pwps.push_back(readMatrix<int32_t>(r));
    return pwps;
}

void
writeArtifactMeta(ByteWriter& w, const ArtifactMeta& meta)
{
    w.str(meta.name);
    w.u64(meta.version);
}

ArtifactMeta
readArtifactMeta(ByteReader& r)
{
    ArtifactMeta meta;
    meta.name = r.str();
    meta.version = r.u64();
    return meta;
}

// ---- Whole-artifact API ---------------------------------------------

std::vector<uint8_t>
serializeModel(const CompiledModel& model, const ArtifactMeta& meta)
{
    Section cfg{kSectionConfig, {}};
    {
        ByteWriter w;
        writeCalibrationConfig(w, model.calibration());
        cfg.payload = w.buffer();
    }

    Section layers{kSectionLayers, {}};
    {
        ByteWriter w;
        w.u64(model.numLayers());
        for (const auto& l : model.layers()) {
            w.str(l.name());
            writePatternTable(w, l.table());
            w.u8(l.hasWeights() ? 1 : 0);
            if (l.hasWeights()) {
                writeWeights(w, l.weights());
                writePwps(w, l.pwps());
            }
        }
        layers.payload = w.buffer();
    }

    std::vector<Section> sections;
    sections.push_back(std::move(cfg));
    sections.push_back(std::move(layers));

    // LAYT carries per-layer PWP storage tiers. Written only when some
    // layer is quantized, so all-int32 models serialize byte-identical
    // to pre-LAYT artifacts and old readers (which skip unknown
    // sections) still load quantized ones — just at int32.
    bool anyQuantized = false;
    for (const auto& l : model.layers())
        anyQuantized = anyQuantized || l.pwpTier() != PwpTier::Int32;
    if (anyQuantized) {
        Section layout{kSectionLayout, {}};
        ByteWriter w;
        w.u64(model.numLayers());
        for (const auto& l : model.layers())
            w.u8(static_cast<uint8_t>(l.pwpTier()));
        layout.payload = w.buffer();
        sections.push_back(std::move(layout));
    }

    if (!meta.empty()) {
        Section metaSec{kSectionMeta, {}};
        ByteWriter w;
        writeArtifactMeta(w, meta);
        metaSec.payload = w.buffer();
        sections.push_back(std::move(metaSec));
    }
    return assembleContainer(kModelFormat, sections);
}

CompiledModel
parseModel(const uint8_t* data, size_t size, ArtifactMeta* metaOut)
{
    const auto sections = parseContainer(kModelFormat, data, size);
    const SectionView& cfgSec = findSection(sections, kSectionConfig);
    const SectionView& layerSec = findSection(sections, kSectionLayers);

    // META is optional so pre-META artifacts keep loading; absence
    // reads back as the default (unstamped) meta.
    if (metaOut != nullptr) {
        *metaOut = ArtifactMeta{};
        if (const SectionView* metaSec =
                findSectionIfPresent(sections, kSectionMeta)) {
            ByteReader metaReader(metaSec->data, metaSec->size);
            *metaOut = readArtifactMeta(metaReader);
        }
    }

    ByteReader cfgReader(cfgSec.data, cfgSec.size);
    CalibrationConfig calib = readCalibrationConfig(cfgReader);

    ByteReader r(layerSec.data, layerSec.size);
    const uint64_t n = r.count(4 + 4 + 8 + 1);

    // Optional LAYT section: per-layer PWP storage tiers. Absence
    // (every pre-LAYT artifact) means all-int32.
    std::vector<PwpTier> tiers(static_cast<size_t>(n), PwpTier::Int32);
    if (const SectionView* layoutSec =
            findSectionIfPresent(sections, kSectionLayout)) {
        ByteReader lr(layoutSec->data, layoutSec->size);
        const uint64_t count = lr.count(1);
        if (count != n)
            throw IoError("layout section lists " +
                          std::to_string(count) + " layers, model has " +
                          std::to_string(n));
        for (uint64_t i = 0; i < count; ++i) {
            const uint8_t t = lr.u8();
            if (t > static_cast<uint8_t>(PwpTier::Int8))
                throw IoError("unknown PWP tier " + std::to_string(t) +
                              " in layout section");
            tiers[static_cast<size_t>(i)] = static_cast<PwpTier>(t);
        }
    }

    std::vector<CompiledLayer> layers;
    layers.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
        std::string name = r.str();
        PatternTable table = readPatternTable(r);
        const uint8_t hasWeights = r.u8();
        if (hasWeights > 1)
            throw IoError("corrupt has-weights flag in layer '" + name +
                          "'");
        const PwpTier tier = tiers[static_cast<size_t>(i)];
        if (!hasWeights) {
            if (tier != PwpTier::Int32)
                throw IoError("layer '" + name +
                              "': quantized tier on a weightless layer");
            layers.emplace_back(std::move(name), std::move(table));
            continue;
        }
        Matrix<int16_t> weights = readWeights(r);
        std::vector<Matrix<int32_t>> pwps = readPwps(r);

        // Validate here with IoError: CompiledLayer's own phi_asserts
        // guard programming bugs and panic; a malformed artifact must
        // reject cleanly instead.
        if (ceilDiv(weights.rows(), static_cast<size_t>(table.k())) >
            table.numPartitions())
            throw IoError("layer '" + name +
                          "': weights span more partitions than the "
                          "pattern table");
        if (pwps.size() != table.numPartitions())
            throw IoError("layer '" + name + "': " +
                          std::to_string(pwps.size()) +
                          " PWP matrices for " +
                          std::to_string(table.numPartitions()) +
                          " partitions");
        for (size_t p = 0; p < pwps.size(); ++p)
            if (pwps[p].rows() != table.partition(p).size() ||
                (pwps[p].rows() > 0 && pwps[p].cols() != weights.cols()))
                throw IoError("layer '" + name +
                              "': PWP shape mismatch in partition " +
                              std::to_string(p));
        // The serve kernel gathers weight row p * k + b for every set
        // bit b of a matched pattern, so a pattern in the ragged final
        // partition must not reach past the last weight row.
        const size_t k = static_cast<size_t>(table.k());
        for (size_t p = 0; p * k < weights.rows(); ++p) {
            const uint64_t inside = lowMask(
                static_cast<int>(std::min(k, weights.rows() - p * k)));
            for (uint64_t pat : table.partition(p).patterns())
                if ((pat & ~inside) != 0)
                    throw IoError("layer '" + name + "': partition " +
                                  std::to_string(p) +
                                  " pattern sets a bit past weight row " +
                                  std::to_string(weights.rows()));
        }
        // Re-quantize from the exact int32 payload at the claimed
        // tier. The arena only ever falls back *wider* than the
        // request, so ending up off-tier proves the PWP values cannot
        // be stored at the claimed width — a lying layout section.
        std::string layerName = name;
        layers.emplace_back(std::move(name), std::move(table),
                            std::move(weights), std::move(pwps), tier);
        if (layers.back().pwpTier() != tier)
            throw IoError(
                "layer '" + layerName + "': layout section claims " +
                pwpTierName(tier) + " PWPs but the values require " +
                pwpTierName(layers.back().pwpTier()));
    }
    return CompiledModel(std::move(layers), calib);
}

void
saveModel(const CompiledModel& model, const std::string& path,
          const ArtifactMeta& meta)
{
    writeFileAtomic(path, serializeModel(model, meta));
}

CompiledModel
loadModel(const std::string& path, ArtifactMeta* metaOut)
{
    const std::vector<uint8_t> bytes = readFile(path);
    try {
        return parseModel(bytes.data(), bytes.size(), metaOut);
    } catch (const IoError& e) {
        // A truncated-file (or any parse) throw must say which file:
        // a registry process handles many artifacts at once.
        rethrowWithPath(path, e);
    }
}

} // namespace phi::io
