#include "io/model_io.hh"

#include <bit>
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/failpoint.hh"

namespace phi::io
{

namespace
{

// ---- Generic helpers ------------------------------------------------

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

/** True when raw memcpy of T rows equals the per-element LE encoding. */
template <typename T>
constexpr bool kPodLittleEndian =
    std::endian::native == std::endian::little &&
    std::is_integral_v<T>;

/**
 * Matrix rows are encoded densely (cols() elements per row, no
 * padding), so artifacts are independent of the in-memory stride. On
 * little-endian hosts whole rows are copied directly between the
 * artifact and the 64-byte-aligned row storage — the loader rehydrates
 * PWP tables into SIMD-ready memory with no per-element decode and no
 * intermediate copy.
 */
template <typename T, typename WriteElem>
void
writeMatrix(ByteWriter& w, const Matrix<T>& m, WriteElem&& elem)
{
    w.u64(m.rows());
    w.u64(m.cols());
    for (size_t r = 0; r < m.rows(); ++r) {
        const T* row = m.rowPtr(r);
        if constexpr (kPodLittleEndian<T>) {
            w.bytes(row, m.cols() * sizeof(T));
        } else {
            for (size_t c = 0; c < m.cols(); ++c)
                elem(row[c]);
        }
    }
}

template <typename T, typename ReadElem>
Matrix<T>
readMatrix(ByteReader& r, ReadElem&& elem)
{
    const uint64_t rows = r.u64();
    const uint64_t cols = r.u64();
    checkedElems(r, rows, cols, sizeof(T));
    Matrix<T> m(static_cast<size_t>(rows), static_cast<size_t>(cols));
    for (size_t row = 0; row < m.rows(); ++row) {
        T* dst = m.rowPtr(row);
        if constexpr (kPodLittleEndian<T>) {
            r.bytesInto(dst, m.cols() * sizeof(T));
        } else {
            for (size_t c = 0; c < m.cols(); ++c)
                dst[c] = elem();
        }
    }
    return m;
}

Matrix<int32_t>
readMatrixI32(ByteReader& r)
{
    return readMatrix<int32_t>(r, [&r] { return r.i32(); });
}

void
writeMatrixI32(ByteWriter& w, const Matrix<int32_t>& m)
{
    writeMatrix(w, m, [&w](int32_t v) { w.i32(v); });
}

// ---- Container assembly ---------------------------------------------

struct Section
{
    uint32_t tag;
    std::vector<uint8_t> payload;
};

/** Header bytes before the section table. */
constexpr size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8;
/** Bytes per section-table entry. */
constexpr size_t kSectionEntryBytes = 4 + 4 + 8 + 8;

/**
 * CRC stamp written into a section-table entry's checksum field.
 * 0 is reserved to mean "unstamped" (the pre-CRC format wrote a zero
 * reserved field there), so a payload whose true CRC happens to be 0
 * is stamped as 0xFFFFFFFF instead; unstampCrc() on the read side
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

std::vector<uint8_t>
assemble(uint32_t kind, const std::vector<Section>& sections)
{
    ByteWriter w;
    w.u32(kMagic);
    w.u32(kFormatVersion);
    w.u32(kind);
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

struct SectionView
{
    uint32_t tag;
    const uint8_t* data;
    size_t size;
};

std::vector<SectionView>
parseContainer(const uint8_t* data, size_t size, uint32_t expectKind)
{
    if (data == nullptr || size < kHeaderBytes)
        throw IoError("file too small to hold a .phim header");
    ByteReader r(data, size);
    if (r.u32() != kMagic)
        throw IoError("bad magic: not a .phim artifact");
    const uint32_t version = r.u32();
    if (version != kFormatVersion)
        throw IoError("unsupported format version " +
                      std::to_string(version) + " (reader supports " +
                      std::to_string(kFormatVersion) + ")");
    const uint32_t kind = r.u32();
    if (kind != expectKind)
        throw IoError("artifact kind " + std::to_string(kind) +
                      " does not match expected kind " +
                      std::to_string(expectKind));
    const uint32_t count = r.u32();
    const uint64_t declared = r.u64();
    if (declared != size)
        throw IoError("declared size " + std::to_string(declared) +
                      " != actual size " + std::to_string(size) +
                      " (truncated or padded artifact)");
    if (count > (size - kHeaderBytes) / kSectionEntryBytes)
        throw IoError("section table larger than the artifact");

    std::vector<SectionView> sections;
    sections.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        const uint32_t tag = r.u32();
        const uint32_t storedCrc = r.u32();
        const uint64_t off = r.u64();
        const uint64_t len = r.u64();
        if (off > size || len > size - off)
            throw IoError("section " + std::to_string(i) +
                          " extends past the end of the artifact");
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
                    "): corrupt artifact");
        }
        sections.push_back({tag, data + off, static_cast<size_t>(len)});
    }
    return sections;
}

const SectionView&
findSection(const std::vector<SectionView>& sections, uint32_t tag,
            const char* what)
{
    for (const auto& s : sections)
        if (s.tag == tag)
            return s;
    throw IoError(std::string("missing required section '") + what + "'");
}

/** Optional sections (META) return null instead of throwing. */
const SectionView*
findSectionIfPresent(const std::vector<SectionView>& sections,
                     uint32_t tag)
{
    for (const auto& s : sections)
        if (s.tag == tag)
            return &s;
    return nullptr;
}

std::vector<uint8_t>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw IoError(path, IoError("cannot open for reading"));
    PHI_FAILPOINT(failpoint::sites::kIoRead,
                  throw IoError(path, IoError("injected read failure "
                                              "(failpoint 'io.read')")));
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    if (size > 0 &&
        !in.read(reinterpret_cast<char*>(bytes.data()), size))
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

/** Re-throw a parse failure annotated with the file it came from. */
[[noreturn]] void
rethrowWithPath(const std::string& path, const IoError& e)
{
    if (e.path().empty())
        throw IoError(path, e);
    throw e;
}

// ---- Trace sub-records ----------------------------------------------

void
writeGemmLayerSpec(ByteWriter& w, const GemmLayerSpec& s)
{
    w.str(s.name);
    w.u64(s.m);
    w.u64(s.k);
    w.u64(s.n);
    w.u64(s.count);
}

GemmLayerSpec
readGemmLayerSpec(ByteReader& r)
{
    GemmLayerSpec s;
    s.name = r.str();
    s.m = static_cast<size_t>(r.u64());
    s.k = static_cast<size_t>(r.u64());
    s.n = static_cast<size_t>(r.u64());
    s.count = static_cast<size_t>(r.u64());
    return s;
}

void
writeModelSpec(ByteWriter& w, const ModelSpec& s)
{
    w.u32(static_cast<uint32_t>(s.model));
    w.u32(static_cast<uint32_t>(s.dataset));
    w.i32(s.timesteps);
    w.u64(s.layers.size());
    for (const auto& l : s.layers)
        writeGemmLayerSpec(w, l);
    w.f64(s.profile.bitDensity);
    w.f64(s.profile.l2DensityTarget);
    w.f64(s.profile.zeroRowFrac);
    w.i32(s.profile.prototypes);
    w.f64(s.profile.zipfS);
    w.f64(s.profile.randomRowFrac);
}

ModelSpec
readModelSpec(ByteReader& r)
{
    ModelSpec s;
    const uint32_t model = r.u32();
    const uint32_t dataset = r.u32();
    if (model > static_cast<uint32_t>(ModelId::SpikingBERT))
        throw IoError("unknown model id " + std::to_string(model));
    if (dataset > static_cast<uint32_t>(DatasetId::MNLI))
        throw IoError("unknown dataset id " + std::to_string(dataset));
    s.model = static_cast<ModelId>(model);
    s.dataset = static_cast<DatasetId>(dataset);
    s.timesteps = r.i32();
    const uint64_t n = r.count(4 + 8 * 4);
    s.layers.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i)
        s.layers.push_back(readGemmLayerSpec(r));
    s.profile.bitDensity = r.f64();
    s.profile.l2DensityTarget = r.f64();
    s.profile.zeroRowFrac = r.f64();
    s.profile.prototypes = r.i32();
    s.profile.zipfS = r.f64();
    s.profile.randomRowFrac = r.f64();
    return s;
}

void
writeDecomposition(ByteWriter& w, const LayerDecomposition& d)
{
    w.u64(d.m);
    w.u64(d.kTotal);
    w.i32(d.k);
    w.u64(d.tiles.size());
    for (const auto& t : d.tiles) {
        w.u64(t.partition);
        w.i32(t.k);
        w.u64(t.patternIds.size());
        for (uint16_t id : t.patternIds)
            w.u16(id);
        w.u64(t.l2Offsets.size());
        for (uint32_t o : t.l2Offsets)
            w.u32(o);
        w.u64(t.l2Entries.size());
        for (const auto& e : t.l2Entries) {
            w.u16(e.col);
            w.u8(static_cast<uint8_t>(e.sign));
        }
    }
}

LayerDecomposition
readDecomposition(ByteReader& r)
{
    LayerDecomposition d;
    d.m = static_cast<size_t>(r.u64());
    d.kTotal = static_cast<size_t>(r.u64());
    d.k = r.i32();
    if (d.k < 1 || d.k > 64)
        throw IoError("decomposition pattern width " +
                      std::to_string(d.k) + " outside [1,64]");
    const uint64_t tiles = r.count(8 + 4 + 8 * 3);
    // Tiles partition [0, kTotal) into k-bit slices, so the counts must
    // agree — this also bounds kTotal, which sizes the activation
    // matrix reconstructed from the decomposition.
    if (ceilDiv(d.kTotal, static_cast<size_t>(d.k)) != tiles)
        throw IoError("tile count " + std::to_string(tiles) +
                      " does not cover K " + std::to_string(d.kTotal) +
                      " at width " + std::to_string(d.k));
    d.tiles.reserve(static_cast<size_t>(tiles));
    for (uint64_t i = 0; i < tiles; ++i) {
        TileDecomposition t;
        t.partition = static_cast<size_t>(r.u64());
        t.k = r.i32();
        if (t.k != d.k)
            throw IoError("tile pattern width " + std::to_string(t.k) +
                          " does not match layer width " +
                          std::to_string(d.k));
        const uint64_t ids = r.count(2);
        if (ids != d.m)
            throw IoError("tile holds " + std::to_string(ids) +
                          " rows, decomposition has " +
                          std::to_string(d.m));
        t.patternIds.reserve(static_cast<size_t>(ids));
        for (uint64_t j = 0; j < ids; ++j)
            t.patternIds.push_back(r.u16());
        const uint64_t offs = r.count(4);
        if (offs != ids + 1 && !(offs == 0 && ids == 0))
            throw IoError("CSR offset count " + std::to_string(offs) +
                          " does not match " + std::to_string(ids) +
                          " rows");
        t.l2Offsets.reserve(static_cast<size_t>(offs));
        for (uint64_t j = 0; j < offs; ++j)
            t.l2Offsets.push_back(r.u32());
        const uint64_t entries = r.count(3);
        // Consumers index l2Entries[l2Offsets[r] .. l2Offsets[r+1])
        // unchecked, so the whole CSR structure must be proven sound
        // here: start at 0, monotone, terminated by the entry count.
        if (offs > 0) {
            if (t.l2Offsets.front() != 0)
                throw IoError("CSR offsets do not start at 0");
            for (uint64_t j = 1; j < offs; ++j)
                if (t.l2Offsets[j] < t.l2Offsets[j - 1])
                    throw IoError("CSR offsets decrease at row " +
                                  std::to_string(j));
            if (t.l2Offsets.back() != entries)
                throw IoError("CSR terminator does not match entry count");
            // A row-tile has at most k distinct correction columns; a
            // larger count means duplicate columns.
            for (uint64_t j = 1; j < offs; ++j)
                if (t.l2Offsets[j] - t.l2Offsets[j - 1] >
                    static_cast<uint32_t>(t.k))
                    throw IoError(
                        "row " + std::to_string(j - 1) + " holds " +
                        std::to_string(t.l2Offsets[j] -
                                       t.l2Offsets[j - 1]) +
                        " L2 entries, more than the partition width " +
                        std::to_string(t.k));
        } else if (entries != 0) {
            throw IoError("L2 entries without CSR offsets");
        }
        t.l2Entries.reserve(static_cast<size_t>(entries));
        for (uint64_t j = 0; j < entries; ++j) {
            L2Entry e;
            e.col = r.u16();
            e.sign = static_cast<int8_t>(r.u8());
            if (e.col >= static_cast<uint16_t>(t.k))
                throw IoError("L2 column " + std::to_string(e.col) +
                              " outside partition width " +
                              std::to_string(t.k));
            if (e.sign != 1 && e.sign != -1)
                throw IoError("L2 sign must be +1 or -1");
            t.l2Entries.push_back(e);
        }
        d.tiles.push_back(std::move(t));
    }
    return d;
}

/**
 * Cross-check a decomposition against its pattern table: every tile
 * must target a real partition and every pattern id must exist there.
 * Downstream consumers (phiGemm, stats, the simulators) index both
 * unchecked — or via phi_assert, which panics rather than rejects.
 */
void
validateDecomposition(const LayerDecomposition& d, const PatternTable& t)
{
    if (d.k != t.k())
        throw IoError("decomposition width " + std::to_string(d.k) +
                      " does not match table width " +
                      std::to_string(t.k()));
    for (const auto& tile : d.tiles) {
        if (tile.partition >= t.numPartitions())
            throw IoError("tile partition " +
                          std::to_string(tile.partition) + " out of " +
                          std::to_string(t.numPartitions()));
        const size_t patterns = t.partition(tile.partition).size();
        for (uint16_t id : tile.patternIds)
            if (id > patterns)
                throw IoError("pattern id " + std::to_string(id) +
                              " out of range for partition " +
                              std::to_string(tile.partition) + " (" +
                              std::to_string(patterns) + " patterns)");
    }
}

void
writeBreakdown(ByteWriter& w, const SparsityBreakdown& b)
{
    w.f64(b.bitDensity);
    w.f64(b.l1Density);
    w.f64(b.l2PosDensity);
    w.f64(b.l2NegDensity);
    w.f64(b.indexDensity);
    w.f64(b.vectorDensity);
    w.u64(b.elements);
    w.u64(b.rowTiles);
    w.u64(b.bitOnes);
    w.u64(b.l1Ones);
    w.u64(b.l2Pos);
    w.u64(b.l2Neg);
    w.u64(b.assigned);
}

SparsityBreakdown
readBreakdown(ByteReader& r)
{
    SparsityBreakdown b;
    b.bitDensity = r.f64();
    b.l1Density = r.f64();
    b.l2PosDensity = r.f64();
    b.l2NegDensity = r.f64();
    b.indexDensity = r.f64();
    b.vectorDensity = r.f64();
    b.elements = static_cast<size_t>(r.u64());
    b.rowTiles = static_cast<size_t>(r.u64());
    b.bitOnes = static_cast<size_t>(r.u64());
    b.l1Ones = static_cast<size_t>(r.u64());
    b.l2Pos = static_cast<size_t>(r.u64());
    b.l2Neg = static_cast<size_t>(r.u64());
    b.assigned = static_cast<size_t>(r.u64());
    return b;
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
writeBinaryMatrix(ByteWriter& w, const BinaryMatrix& m)
{
    w.u64(m.rows());
    w.u64(m.cols());
    for (size_t r = 0; r < m.rows(); ++r) {
        const uint64_t* words = m.rowWords(r);
        for (size_t i = 0; i < m.numWordsPerRow(); ++i)
            w.u64(words[i]);
    }
}

BinaryMatrix
readBinaryMatrix(ByteReader& r)
{
    const uint64_t rows = r.u64();
    const uint64_t cols = r.u64();
    const uint64_t wordsPerRow = (cols + 63) / 64;
    checkedElems(r, rows, wordsPerRow == 0 ? 1 : wordsPerRow, 8);
    BinaryMatrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
    for (uint64_t row = 0; row < rows; ++row) {
        for (uint64_t wi = 0; wi < wordsPerRow; ++wi) {
            const uint64_t word = r.u64();
            const int len = static_cast<int>(
                std::min<uint64_t>(64, cols - wi * 64));
            m.deposit(static_cast<size_t>(row),
                      static_cast<size_t>(wi * 64), len, word);
        }
    }
    return m;
}

void
writeWeights(ByteWriter& w, const Matrix<int16_t>& m)
{
    writeMatrix(w, m, [&w](int16_t v) { w.i16(v); });
}

Matrix<int16_t>
readWeights(ByteReader& r)
{
    return readMatrix<int16_t>(r, [&r] { return r.i16(); });
}

void
writePwps(ByteWriter& w, const std::vector<Matrix<int32_t>>& pwps)
{
    w.u64(pwps.size());
    for (const auto& p : pwps)
        writeMatrixI32(w, p);
}

std::vector<Matrix<int32_t>>
readPwps(ByteReader& r)
{
    const uint64_t n = r.count(8 + 8);
    std::vector<Matrix<int32_t>> pwps;
    pwps.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i)
        pwps.push_back(readMatrixI32(r));
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
    return assemble(kKindModel, sections);
}

CompiledModel
parseModel(const uint8_t* data, size_t size, ArtifactMeta* metaOut)
{
    auto sections = parseContainer(data, size, kKindModel);
    const SectionView& cfgSec =
        findSection(sections, kSectionConfig, "CFG ");
    const SectionView& layerSec =
        findSection(sections, kSectionLayers, "LYRS");

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

std::vector<uint8_t>
serializeTrace(const ModelTrace& trace)
{
    Section sec{kSectionTrace, {}};
    ByteWriter w;
    writeModelSpec(w, trace.spec);
    w.u64(trace.layers.size());
    for (const auto& l : trace.layers) {
        writeGemmLayerSpec(w, l.spec);
        writeBinaryMatrix(w, l.acts);
        writePatternTable(w, l.table);
        writeDecomposition(w, l.dec);
        writeBreakdown(w, l.stats);
        writeWeights(w, l.weights);
        w.u64(l.paftStats.mismatchBitsBefore);
        w.u64(l.paftStats.bitsFlipped);
        w.u64(l.paftStats.elements);
    }
    sec.payload = w.buffer();
    return assemble(kKindTrace, {std::move(sec)});
}

ModelTrace
parseTrace(const uint8_t* data, size_t size)
{
    auto sections = parseContainer(data, size, kKindTrace);
    const SectionView& sec = findSection(sections, kSectionTrace, "TRAC");
    ByteReader r(sec.data, sec.size);
    ModelTrace trace;
    trace.spec = readModelSpec(r);
    const uint64_t n = r.count(1);
    trace.layers.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
        LayerTrace lt;
        lt.spec = readGemmLayerSpec(r);
        lt.acts = readBinaryMatrix(r);
        lt.table = readPatternTable(r);
        lt.dec = readDecomposition(r);
        validateDecomposition(lt.dec, lt.table);
        lt.stats = readBreakdown(r);
        lt.weights = readWeights(r);
        lt.paftStats.mismatchBitsBefore = static_cast<size_t>(r.u64());
        lt.paftStats.bitsFlipped = static_cast<size_t>(r.u64());
        lt.paftStats.elements = static_cast<size_t>(r.u64());
        trace.layers.push_back(std::move(lt));
    }
    return trace;
}

void
saveTrace(const ModelTrace& trace, const std::string& path)
{
    writeFileAtomic(path, serializeTrace(trace));
}

ModelTrace
loadTrace(const std::string& path)
{
    const std::vector<uint8_t> bytes = readFile(path);
    try {
        return parseTrace(bytes.data(), bytes.size());
    } catch (const IoError& e) {
        rethrowWithPath(path, e);
    }
}

} // namespace phi::io
