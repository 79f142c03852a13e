/**
 * @file
 * Serialization tests: .phim round trips preserve every component
 * (tables, weights, PWPs, config, traces) exactly, and malformed
 * artifacts — bad magic, bad version, truncations at any byte, lying
 * section tables — are rejected with io::IoError, never a crash.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "common/rng.hh"
#include "core/pipeline.hh"
#include "test_support.hh"
#include "io/model_io.hh"
#include "snn/trace.hh"

namespace phi
{
namespace
{

CompiledModel
makeCompiledModel(uint64_t seed = 1, bool secondLayerWeightless = true)
{
    Rng rng(seed);
    BinaryMatrix train0 = BinaryMatrix::random(128, 64, 0.15, rng);
    BinaryMatrix train1 = BinaryMatrix::random(96, 48, 0.2, rng);

    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 24;
    cfg.kmeans.maxIters = 8;
    cfg.kmeans.seed = 5;
    cfg.kmeans.maxDistinct = 512;
    Pipeline pipe(cfg);
    pipe.addLayer("proj", {&train0}).bindWeights(test::randomWeights(64, 20, 2));
    LayerPipeline& l1 = pipe.addLayer("head", {&train1});
    if (!secondLayerWeightless)
        l1.bindWeights(test::randomWeights(48, 8, 3));
    return pipe.compile();
}

void
expectTablesEqual(const PatternTable& a, const PatternTable& b)
{
    ASSERT_EQ(a.k(), b.k());
    ASSERT_EQ(a.numPartitions(), b.numPartitions());
    for (size_t p = 0; p < a.numPartitions(); ++p)
        EXPECT_EQ(a.partition(p).patterns(), b.partition(p).patterns())
            << "partition " << p;
}

void
expectModelsEqual(const CompiledModel& a, const CompiledModel& b)
{
    ASSERT_EQ(a.numLayers(), b.numLayers());
    EXPECT_EQ(a.calibration().k, b.calibration().k);
    EXPECT_EQ(a.calibration().q, b.calibration().q);
    EXPECT_EQ(a.calibration().maxRowsPerPartition,
              b.calibration().maxRowsPerPartition);
    EXPECT_EQ(a.calibration().kmeans.numClusters,
              b.calibration().kmeans.numClusters);
    EXPECT_EQ(a.calibration().kmeans.maxIters,
              b.calibration().kmeans.maxIters);
    EXPECT_EQ(a.calibration().kmeans.seed, b.calibration().kmeans.seed);
    EXPECT_EQ(a.calibration().kmeans.init, b.calibration().kmeans.init);
    EXPECT_EQ(a.calibration().kmeans.maxDistinct,
              b.calibration().kmeans.maxDistinct);
    for (size_t l = 0; l < a.numLayers(); ++l) {
        const CompiledLayer& la = a.layer(l);
        const CompiledLayer& lb = b.layer(l);
        EXPECT_EQ(la.name(), lb.name());
        expectTablesEqual(la.table(), lb.table());
        ASSERT_EQ(la.hasWeights(), lb.hasWeights());
        if (la.hasWeights()) {
            EXPECT_EQ(la.weights(), lb.weights());
            ASSERT_EQ(la.pwps().size(), lb.pwps().size());
            for (size_t p = 0; p < la.pwps().size(); ++p)
                EXPECT_EQ(la.pwps()[p], lb.pwps()[p])
                    << "layer " << l << " partition " << p;
        }
    }
}

std::string
tempArtifactPath(const char* stem)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("phi_test_") + stem + "_" +
             std::to_string(::getpid()) + ".phim"))
        .string();
}

/** Deletes the temp artifact even when an assertion fails mid-test. */
struct TempFile
{
    explicit TempFile(const char* stem) : path(tempArtifactPath(stem)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

TEST(ModelIo, InMemoryRoundTripPreservesEverything)
{
    const CompiledModel model = makeCompiledModel();
    const std::vector<uint8_t> bytes = io::serializeModel(model);
    const CompiledModel back = io::parseModel(bytes.data(), bytes.size());
    expectModelsEqual(model, back);
}

TEST(ModelIo, SerializationIsByteStable)
{
    // parse -> serialize must reproduce the identical byte image, so
    // artifacts can be content-addressed / diffed.
    const CompiledModel model = makeCompiledModel();
    const std::vector<uint8_t> bytes = io::serializeModel(model);
    const CompiledModel back = io::parseModel(bytes.data(), bytes.size());
    EXPECT_EQ(io::serializeModel(back), bytes);
}

TEST(ModelIo, FileRoundTripThroughSaveAndLoad)
{
    TempFile f("roundtrip");
    const CompiledModel model = makeCompiledModel(7, false);
    io::saveModel(model, f.path);
    const CompiledModel back = io::loadModel(f.path);
    expectModelsEqual(model, back);
}

TEST(ModelIo, LoadedModelComputesIdenticallyToOriginal)
{
    TempFile f("compute");
    const CompiledModel model = makeCompiledModel(9, false);
    io::saveModel(model, f.path);
    const CompiledModel back = io::loadModel(f.path);

    Rng rng(21);
    BinaryMatrix acts = BinaryMatrix::random(64, 64, 0.15, rng);
    const auto ref = model.layer(0).compute(model.layer(0).decompose(acts));
    EXPECT_EQ(back.layer(0).compute(back.layer(0).decompose(acts)), ref);
}

TEST(ModelIo, RejectsBadMagic)
{
    std::vector<uint8_t> bytes = io::serializeModel(makeCompiledModel());
    bytes[0] ^= 0xFF;
    EXPECT_THROW(io::parseModel(bytes.data(), bytes.size()), io::IoError);
}

TEST(ModelIo, RejectsUnsupportedVersion)
{
    std::vector<uint8_t> bytes = io::serializeModel(makeCompiledModel());
    bytes[4] = 99; // version field, little-endian low byte
    EXPECT_THROW(io::parseModel(bytes.data(), bytes.size()), io::IoError);
}

TEST(ModelIo, RejectsWrongKind)
{
    // A trace artifact is not a model artifact.
    ModelSpec spec = makeModel(ModelId::VGG16, DatasetId::CIFAR100);
    spec.layers = {{"conv", 64, 48, 8, 1}};
    TraceOptions opt;
    opt.calib.q = 8;
    opt.calib.kmeans.maxIters = 4;
    const std::vector<uint8_t> bytes =
        io::serializeTrace(buildModelTrace(spec, opt));
    EXPECT_THROW(io::parseModel(bytes.data(), bytes.size()), io::IoError);
}

TEST(ModelIo, RejectsTruncationAtEveryBoundary)
{
    const std::vector<uint8_t> bytes =
        io::serializeModel(makeCompiledModel());
    // Every prefix must reject cleanly: the declared-size check catches
    // all of them, and the bounds-checked reader backstops it.
    const size_t cuts[] = {0, 1, 7, 8, 15, 23, 24, 40,
                           bytes.size() / 2, bytes.size() - 1};
    for (size_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        EXPECT_THROW(io::parseModel(bytes.data(), cut), io::IoError)
            << "prefix of " << cut << " bytes";
    }
}

TEST(ModelIo, RejectsLyingSectionTable)
{
    std::vector<uint8_t> bytes = io::serializeModel(makeCompiledModel());
    // First section entry starts at byte 24; its offset field is at
    // +8. Point it past the end of the file.
    const size_t offsetField = 24 + 8;
    for (int i = 0; i < 8; ++i)
        bytes[offsetField + i] = 0xFF;
    EXPECT_THROW(io::parseModel(bytes.data(), bytes.size()), io::IoError);
}

TEST(ModelIo, RejectsCorruptPatternWidth)
{
    const CompiledModel model = makeCompiledModel();
    io::ByteWriter w;
    io::writePatternTable(w, model.layer(0).table());
    std::vector<uint8_t> bytes = w.buffer();
    bytes[0] = 200; // k = 200 is outside [1, 64]
    io::ByteReader r(bytes.data(), bytes.size());
    EXPECT_THROW(io::readPatternTable(r), io::IoError);
}

TEST(ModelIo, RejectsOversizedElementCounts)
{
    // A weights matrix claiming 2^40 rows in a tiny buffer must be
    // rejected by the count guard, not attempted as an allocation.
    io::ByteWriter w;
    w.u64(uint64_t{1} << 40);
    w.u64(uint64_t{1} << 40);
    std::vector<uint8_t> bytes = w.buffer();
    io::ByteReader r(bytes.data(), bytes.size());
    EXPECT_THROW(io::readWeights(r), io::IoError);
}

TEST(ModelIo, RejectsTraceWithCorruptDecomposition)
{
    // Structural lies that survive the byte-level checks must still be
    // rejected: consumers index pattern ids and CSR offsets unchecked.
    ModelSpec spec = makeModel(ModelId::VGG16, DatasetId::CIFAR100);
    spec.layers = {{"conv", 64, 48, 8, 1}};
    TraceOptions opt;
    opt.calib.q = 8;
    opt.calib.kmeans.maxIters = 4;
    const ModelTrace good = buildModelTrace(spec, opt);
    ASSERT_FALSE(good.layers[0].dec.tiles.empty());

    {
        ModelTrace bad = good;
        bad.layers[0].dec.tiles[0].patternIds[0] = 999; // > q patterns
        const auto bytes = io::serializeTrace(bad);
        EXPECT_THROW(io::parseTrace(bytes.data(), bytes.size()),
                     io::IoError);
    }
    {
        ModelTrace bad = good;
        bad.layers[0].dec.tiles[0].partition = 77; // no such partition
        const auto bytes = io::serializeTrace(bad);
        EXPECT_THROW(io::parseTrace(bytes.data(), bytes.size()),
                     io::IoError);
    }
    {
        ModelTrace bad = good;
        auto& offs = bad.layers[0].dec.tiles[0].l2Offsets;
        if (offs.size() > 2)
            offs[1] = offs.back() + 100; // non-monotone interior offset
        const auto bytes = io::serializeTrace(bad);
        EXPECT_THROW(io::parseTrace(bytes.data(), bytes.size()),
                     io::IoError);
    }
    {
        // A pattern width smuggled past [1,64] would let L2 columns
        // index out of bounds downstream.
        ModelTrace bad = good;
        bad.layers[0].dec.k = 1000;
        for (auto& tile : bad.layers[0].dec.tiles)
            tile.k = 1000;
        const auto bytes = io::serializeTrace(bad);
        EXPECT_THROW(io::parseTrace(bytes.data(), bytes.size()),
                     io::IoError);
    }
    {
        // Width mismatch vs. the table must reject even when the
        // decomposition is internally consistent (k=24 covers the same
        // 3 tiles, but the table was calibrated at k=16).
        ModelTrace bad = good;
        bad.layers[0].dec.k = 24;
        bad.layers[0].dec.kTotal = 72;
        for (auto& tile : bad.layers[0].dec.tiles)
            tile.k = 24;
        const auto bytes = io::serializeTrace(bad);
        EXPECT_THROW(io::parseTrace(bytes.data(), bytes.size()),
                     io::IoError);
    }
    {
        // kTotal inflated to force a huge reconstruction allocation.
        ModelTrace bad = good;
        bad.layers[0].dec.kTotal = size_t{1} << 60;
        const auto bytes = io::serializeTrace(bad);
        EXPECT_THROW(io::parseTrace(bytes.data(), bytes.size()),
                     io::IoError);
    }
    {
        // More L2 entries in one row than the partition has columns
        // (duplicate columns pass the per-entry checks, but would
        // overflow the uint8_t row-major count index downstream).
        ModelTrace bad = good;
        auto& tile = bad.layers[0].dec.tiles[0];
        const uint32_t extra =
            static_cast<uint32_t>(tile.k) + 1;
        tile.l2Entries.clear();
        for (uint32_t i = 0; i < extra; ++i)
            tile.l2Entries.push_back({0, int8_t{1}});
        tile.l2Offsets.assign(tile.patternIds.size() + 1, extra);
        tile.l2Offsets[0] = 0;
        const auto bytes = io::serializeTrace(bad);
        EXPECT_THROW(io::parseTrace(bytes.data(), bytes.size()),
                     io::IoError);
    }
}

TEST(ModelIo, RejectsPartitionWithMorePatternsThanIdsAddress)
{
    // Pattern ids are uint16_t with 0 meaning "none": a 65536th
    // pattern's id would wrap to 0, so the exact match (the last
    // pattern here) would serve as "no pattern" and a wrong product.
    std::vector<uint64_t> pats(65536);
    for (size_t i = 0; i < pats.size(); ++i)
        pats[i] = (i + 1) & 0xFFFF;
    PatternTable table(16, {PatternSet(16, pats)});
    const Matrix<int16_t> w = test::randomWeights(16, 1, 7);
    const std::vector<uint8_t> image = test::rawModelImage(
        "wide", table, w, computeLayerPwps(table, w));
    EXPECT_THROW(io::parseModel(image.data(), image.size()),
                 io::IoError);
}

TEST(ModelIo, RejectsPatternBitsPastTheLastWeightRow)
{
    // K = 20, k = 16: partition 1 covers weight rows 16..19, so
    // pattern 0x800F's bit 15 names row 31, which does not exist.
    const Matrix<int16_t> w = test::randomWeights(20, 8, 9);
    PatternTable bad(16, {PatternSet(16, {0x00FF}),
                          PatternSet(16, {0x800F})});
    const std::vector<uint8_t> image =
        test::rawModelImage("ragged", bad, w, computeLayerPwps(bad, w));
    EXPECT_THROW(io::parseModel(image.data(), image.size()),
                 io::IoError);

    // The same layout with the pattern inside the edge loads and
    // serves exactly.
    PatternTable good(16, {PatternSet(16, {0x00FF}),
                           PatternSet(16, {0x000F})});
    const std::vector<uint8_t> fine = test::rawModelImage(
        "ragged", good, w, computeLayerPwps(good, w));
    const CompiledModel model = io::parseModel(fine.data(), fine.size());
    Rng rng(10);
    const BinaryMatrix acts = BinaryMatrix::random(9, 20, 0.4, rng);
    Matrix<int32_t> out(9, 8);
    model.layer(0).serveInto(out, acts);
    EXPECT_EQ(out, spikeGemm(acts, w));
}

TEST(ModelIo, LoadMissingFileThrows)
{
    EXPECT_THROW(io::loadModel("/nonexistent/phi_no_such_model.phim"),
                 io::IoError);
}

TEST(ModelIo, MetaSectionRoundTripsAndStaysOptional)
{
    const CompiledModel model = makeCompiledModel();

    // Stamped artifact: META round-trips exactly.
    const io::ArtifactMeta stamp{"vision-resnet", 42};
    const std::vector<uint8_t> stamped =
        io::serializeModel(model, stamp);
    io::ArtifactMeta back;
    const CompiledModel m1 =
        io::parseModel(stamped.data(), stamped.size(), &back);
    expectModelsEqual(model, m1);
    EXPECT_EQ(back.name, "vision-resnet");
    EXPECT_EQ(back.version, 42u);
    EXPECT_FALSE(back.empty());

    // Unstamped artifacts carry no META section at all — old files
    // keep loading, new unstamped files stay content-addressable.
    const std::vector<uint8_t> plain = io::serializeModel(model);
    EXPECT_LT(plain.size(), stamped.size());
    io::ArtifactMeta none{"poison", 9}; // must be overwritten
    io::parseModel(plain.data(), plain.size(), &none);
    EXPECT_TRUE(none.empty());

    // A pre-META reader's view: parsing the stamped image without
    // asking for meta ignores the unknown section cleanly.
    expectModelsEqual(model,
                      io::parseModel(stamped.data(), stamped.size()));
}

TEST(ModelIo, SaveLoadCarriesMetaThroughDisk)
{
    TempFile f("meta");
    const CompiledModel model = makeCompiledModel();
    io::saveModel(model, f.path, {"nlp-bert", 3});
    io::ArtifactMeta meta;
    const CompiledModel back = io::loadModel(f.path, &meta);
    expectModelsEqual(model, back);
    EXPECT_EQ(meta.name, "nlp-bert");
    EXPECT_EQ(meta.version, 3u);
}

TEST(ModelIo, LoadErrorsNameTheOffendingFile)
{
    // Regression: a truncated-file throw used to describe the
    // truncation but not say which file — useless in a registry
    // process juggling many artifacts. Every loadModel failure path
    // must carry the path, both in what() and structured (path()).
    TempFile f("truncated");
    const CompiledModel model = makeCompiledModel();
    const std::vector<uint8_t> bytes = io::serializeModel(model);
    {
        std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    try {
        io::loadModel(f.path);
        FAIL() << "truncated artifact loaded";
    } catch (const io::IoError& e) {
        EXPECT_NE(std::string(e.what()).find(f.path), std::string::npos)
            << "what() does not name the file: " << e.what();
        EXPECT_EQ(e.path(), f.path);
        EXPECT_FALSE(e.detail().empty());
    }

    // The unreadable-file path reports the name too.
    try {
        io::loadModel("/nonexistent/phi_no_such_model.phim");
        FAIL() << "missing artifact loaded";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.path(), "/nonexistent/phi_no_such_model.phim");
        EXPECT_NE(std::string(e.what()).find("phi_no_such_model"),
                  std::string::npos);
    }

    // And the save path: an unwritable target names itself.
    try {
        io::saveModel(model, "/nonexistent/dir/out.phim");
        FAIL() << "saved into a nonexistent directory";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.path(), "/nonexistent/dir/out.phim");
    }
}

TEST(ModelIo, ComponentRoundTrips)
{
    const CompiledModel model = makeCompiledModel(3, false);

    io::ByteWriter w;
    io::writeCalibrationConfig(w, model.calibration());
    io::writePatternTable(w, model.layer(0).table());
    io::writeWeights(w, model.layer(0).weights());
    io::writePwps(w, model.layer(0).pwps());

    io::ByteReader r(w.buffer().data(), w.buffer().size());
    const CalibrationConfig cfg = io::readCalibrationConfig(r);
    EXPECT_EQ(cfg.q, model.calibration().q);
    expectTablesEqual(io::readPatternTable(r), model.layer(0).table());
    EXPECT_EQ(io::readWeights(r), model.layer(0).weights());
    const auto pwps = io::readPwps(r);
    ASSERT_EQ(pwps.size(), model.layer(0).pwps().size());
    for (size_t p = 0; p < pwps.size(); ++p)
        EXPECT_EQ(pwps[p], model.layer(0).pwps()[p]);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ModelIo, BinaryMatrixRoundTripIncludingRaggedTail)
{
    Rng rng(31);
    for (size_t cols : {1u, 63u, 64u, 65u, 130u}) {
        BinaryMatrix m = BinaryMatrix::random(17, cols, 0.3, rng);
        io::ByteWriter w;
        io::writeBinaryMatrix(w, m);
        io::ByteReader r(w.buffer().data(), w.buffer().size());
        BinaryMatrix back = io::readBinaryMatrix(r);
        EXPECT_TRUE(back == m) << "cols=" << cols;
        EXPECT_TRUE(back.tailBitsClear());
    }
}

TEST(ModelIo, TraceRoundTripPreservesLayers)
{
    ModelSpec spec = makeModel(ModelId::VGG16, DatasetId::CIFAR100);
    spec.layers = {{"conv", 128, 96, 16, 2}};
    TraceOptions opt;
    opt.calib.q = 16;
    opt.calib.kmeans.maxIters = 6;
    opt.withWeights = true;
    const ModelTrace trace = buildModelTrace(spec, opt);

    TempFile f("trace");
    io::saveTrace(trace, f.path);
    const ModelTrace back = io::loadTrace(f.path);

    ASSERT_EQ(back.layers.size(), trace.layers.size());
    EXPECT_EQ(back.spec.model, trace.spec.model);
    EXPECT_EQ(back.spec.dataset, trace.spec.dataset);
    EXPECT_EQ(back.spec.timesteps, trace.spec.timesteps);
    ASSERT_EQ(back.spec.layers.size(), trace.spec.layers.size());
    EXPECT_EQ(back.spec.layers[0].name, trace.spec.layers[0].name);
    EXPECT_EQ(back.spec.layers[0].count, trace.spec.layers[0].count);
    EXPECT_DOUBLE_EQ(back.spec.profile.bitDensity,
                     trace.spec.profile.bitDensity);

    for (size_t l = 0; l < trace.layers.size(); ++l) {
        const LayerTrace& a = trace.layers[l];
        const LayerTrace& b = back.layers[l];
        EXPECT_TRUE(a.acts == b.acts);
        expectTablesEqual(a.table, b.table);
        EXPECT_EQ(a.weights, b.weights);
        ASSERT_EQ(a.dec.tiles.size(), b.dec.tiles.size());
        for (size_t t = 0; t < a.dec.tiles.size(); ++t) {
            EXPECT_EQ(a.dec.tiles[t].patternIds, b.dec.tiles[t].patternIds);
            EXPECT_EQ(a.dec.tiles[t].l2Offsets, b.dec.tiles[t].l2Offsets);
            EXPECT_EQ(a.dec.tiles[t].l2Nnz(), b.dec.tiles[t].l2Nnz());
        }
        EXPECT_EQ(a.stats.bitOnes, b.stats.bitOnes);
        EXPECT_EQ(a.stats.l2Pos, b.stats.l2Pos);
        EXPECT_DOUBLE_EQ(a.stats.bitDensity, b.stats.bitDensity);
        EXPECT_EQ(a.paftStats.elements, b.paftStats.elements);
        // The reconstructed trace must still satisfy the losslessness
        // invariant end to end.
        EXPECT_TRUE(reconstructActivations(b.dec, b.table) == b.acts);
    }
    EXPECT_EQ(back.aggregate().bitOnes, trace.aggregate().bitOnes);
}

// ---- Section CRC integrity ----

/** One decoded section-table entry (header is 24 bytes, entries 24
 *  bytes each: tag u32, crc u32, payload offset u64, size u64). */
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

std::vector<SectionEntry>
readSectionTable(const std::vector<uint8_t>& bytes)
{
    auto u32 = [&](size_t at) {
        return static_cast<uint32_t>(bytes[at]) |
               static_cast<uint32_t>(bytes[at + 1]) << 8 |
               static_cast<uint32_t>(bytes[at + 2]) << 16 |
               static_cast<uint32_t>(bytes[at + 3]) << 24;
    };
    auto u64 = [&](size_t at) {
        return static_cast<uint64_t>(u32(at)) |
               static_cast<uint64_t>(u32(at + 4)) << 32;
    };
    const uint32_t count = u32(12);
    std::vector<SectionEntry> entries;
    for (uint32_t i = 0; i < count; ++i) {
        const size_t at = 24 + i * 24u;
        entries.push_back({at, u32(at), u32(at + 4), u64(at + 8),
                           u64(at + 16)});
    }
    return entries;
}

TEST(ModelIoCrc, EverySectionIsStampedWithItsPayloadCrc)
{
    const CompiledModel model = makeCompiledModel();
    io::ArtifactMeta meta;
    meta.name = "crc-demo";
    meta.version = 7;
    const std::vector<uint8_t> bytes = io::serializeModel(model, meta);

    const auto entries = readSectionTable(bytes);
    ASSERT_EQ(entries.size(), 3u); // CFG , LYRS, META
    for (const SectionEntry& e : entries)
        EXPECT_NE(e.crc, 0u)
            << "section '" << e.tagName() << "' left unstamped";
}

TEST(ModelIoCrc, FlippedByteInAnySectionIsRejectedNamingTheSection)
{
    // The acceptance criterion: corrupt ONE payload byte of ANY
    // section and the artifact must be rejected before interpretation,
    // with an IoError naming both the section and the file.
    const CompiledModel model = makeCompiledModel();
    io::ArtifactMeta meta;
    meta.name = "crc-demo";
    meta.version = 7;
    const std::vector<uint8_t> pristine = io::serializeModel(model, meta);

    TempFile f("crc_flip");
    for (const SectionEntry& e : readSectionTable(pristine)) {
        SCOPED_TRACE("section " + e.tagName());
        ASSERT_GT(e.payloadSize, 0u);
        std::vector<uint8_t> corrupt = pristine;
        corrupt[e.payloadOffset + e.payloadSize / 2] ^= 0x01;

        // In-memory parse rejects it...
        try {
            io::parseModel(corrupt.data(), corrupt.size());
            FAIL() << "corrupt section parsed";
        } catch (const io::IoError& err) {
            EXPECT_NE(std::string(err.what()).find(e.tagName()),
                      std::string::npos)
                << "error does not name the section: " << err.what();
            EXPECT_NE(std::string(err.what()).find("CRC"),
                      std::string::npos);
        }

        // ...and the file path joins the message through loadModel.
        {
            std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char*>(corrupt.data()),
                      static_cast<std::streamsize>(corrupt.size()));
        }
        try {
            io::loadModel(f.path);
            FAIL() << "corrupt artifact loaded";
        } catch (const io::IoError& err) {
            EXPECT_EQ(err.path(), f.path);
            EXPECT_NE(std::string(err.what()).find(e.tagName()),
                      std::string::npos);
            EXPECT_NE(std::string(err.what()).find(f.path),
                      std::string::npos);
        }
    }
}

TEST(ModelIoCrc, PreCrcArtifactsWithZeroedFieldsStillLoad)
{
    // Fabricate a pre-CRC artifact: zero every section's CRC field
    // (exactly what old writers put in the then-reserved slot). It
    // must parse without complaint and decode to the same model.
    const CompiledModel model = makeCompiledModel(9, false);
    std::vector<uint8_t> bytes = io::serializeModel(model);
    for (const SectionEntry& e : readSectionTable(bytes))
        for (size_t i = 0; i < 4; ++i)
            bytes[e.entryOffset + 4 + i] = 0;

    const CompiledModel back = io::parseModel(bytes.data(), bytes.size());
    expectModelsEqual(model, back);

    // And through the file path too.
    TempFile f("crc_precrc");
    {
        std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    expectModelsEqual(model, io::loadModel(f.path));
}

TEST(ModelIoCrc, CorruptUnstampedSectionIsNotCaught)
{
    // Documents the compatibility trade-off: a zeroed CRC field means
    // "nothing to verify", so corruption in an unstamped section falls
    // through to the structural validators (which may or may not
    // object). The format detects it only for stamped artifacts.
    const CompiledModel model = makeCompiledModel();
    std::vector<uint8_t> bytes = io::serializeModel(model);
    const auto entries = readSectionTable(bytes);
    for (const SectionEntry& e : entries)
        for (size_t i = 0; i < 4; ++i)
            bytes[e.entryOffset + 4 + i] = 0;
    // The image with zeroed stamps still parses (baseline for the
    // statement above).
    EXPECT_NO_THROW(io::parseModel(bytes.data(), bytes.size()));
}

TEST(ModelIoCrc, StampedRoundTripThroughDiskIsExact)
{
    // saveModel stamps, loadModel verifies: the normal path round
    // trips and the on-disk image equals the in-memory serialization.
    const CompiledModel model = makeCompiledModel(4);
    io::ArtifactMeta meta;
    meta.name = "round";
    meta.version = 1;
    TempFile f("crc_round");
    io::saveModel(model, f.path, meta);

    io::ArtifactMeta metaBack;
    const CompiledModel back = io::loadModel(f.path, &metaBack);
    expectModelsEqual(model, back);
    EXPECT_EQ(metaBack.name, "round");
    EXPECT_EQ(metaBack.version, 1u);

    std::ifstream in(f.path, std::ios::binary);
    std::vector<uint8_t> onDisk(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(onDisk, io::serializeModel(model, meta));
}

// ---- PWP layout (LAYT) section ----

/** Two-layer model compiled at the given PWP quantization ceiling. */
CompiledModel
makeQuantizedModel(PwpTier tier, uint64_t seed = 1,
                   bool secondLayerWeightless = false)
{
    Rng rng(seed);
    BinaryMatrix train0 = BinaryMatrix::random(128, 64, 0.15, rng);
    BinaryMatrix train1 = BinaryMatrix::random(96, 48, 0.2, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 24;
    cfg.kmeans.maxIters = 8;
    cfg.kmeans.seed = 5;
    cfg.kmeans.maxDistinct = 512;
    Pipeline pipe(cfg);
    pipe.setPwpQuant(tier);
    pipe.addLayer("proj", {&train0})
        .bindWeights(test::randomWeights(64, 20, 2));
    LayerPipeline& l1 = pipe.addLayer("head", {&train1});
    if (!secondLayerWeightless)
        l1.bindWeights(test::randomWeights(48, 8, 3));
    return pipe.compile();
}

/** The LAYT section-table entry of a serialized image (asserts it
 *  exists). */
SectionEntry
findLayoutEntry(const std::vector<uint8_t>& bytes)
{
    for (const SectionEntry& e : readSectionTable(bytes))
        if (e.tag == io::kSectionLayout)
            return e;
    ADD_FAILURE() << "no LAYT section in image";
    return {};
}

TEST(ModelIoLayout, QuantizedModelRoundTripsTiersAndValues)
{
    const CompiledModel model = makeQuantizedModel(PwpTier::Int16);
    ASSERT_EQ(model.layer(0).pwpTier(), PwpTier::Int16);
    const std::vector<uint8_t> bytes = io::serializeModel(model);
    const CompiledModel back =
        io::parseModel(bytes.data(), bytes.size());
    EXPECT_EQ(back.layer(0).pwpTier(), PwpTier::Int16);
    EXPECT_EQ(back.layer(1).pwpTier(), PwpTier::Int16);
    expectModelsEqual(model, back);

    // Quantized artifacts are byte-stable too.
    EXPECT_EQ(io::serializeModel(back), bytes);

    // And the reloaded quantized model still serves exactly.
    Rng rng(55);
    BinaryMatrix acts = BinaryMatrix::random(40, 64, 0.15, rng);
    EXPECT_EQ(back.layer(0).compute(back.layer(0).decompose(acts)),
              model.layer(0).compute(model.layer(0).decompose(acts)));
}

TEST(ModelIoLayout, UnquantizedModelsCarryNoLayoutSection)
{
    // Byte-compatibility contract: an all-int32 model must serialize
    // without a LAYT section, so new writers reproduce pre-LAYT
    // artifacts byte-for-byte.
    const std::vector<uint8_t> bytes =
        io::serializeModel(makeCompiledModel());
    for (const SectionEntry& e : readSectionTable(bytes))
        EXPECT_NE(e.tag, io::kSectionLayout);

    // A pipeline whose quantization request resolves to int32 must
    // serialize byte-identical to one that never asked.
    EXPECT_EQ(
        io::serializeModel(makeQuantizedModel(PwpTier::Int32, 1, true)),
        io::serializeModel(makeCompiledModel()));
}

TEST(ModelIoLayout, PreLayoutArtifactsLoadAsInt32)
{
    // parseModel of an image with no LAYT section (any pre-LAYT
    // artifact) must land every layer on the legacy int32 tier.
    const std::vector<uint8_t> bytes =
        io::serializeModel(makeCompiledModel(7, false));
    const CompiledModel back =
        io::parseModel(bytes.data(), bytes.size());
    EXPECT_EQ(back.layer(0).pwpTier(), PwpTier::Int32);
    EXPECT_EQ(back.layer(1).pwpTier(), PwpTier::Int32);
}

TEST(ModelIoLayout, TruncatedQuantizedArtifactIsRejected)
{
    const std::vector<uint8_t> bytes =
        io::serializeModel(makeQuantizedModel(PwpTier::Int16));
    const size_t cuts[] = {8, 24, bytes.size() / 2, bytes.size() - 1};
    for (size_t cut : cuts)
        EXPECT_THROW(io::parseModel(bytes.data(), cut), io::IoError)
            << "prefix of " << cut << " bytes";
}

TEST(ModelIoLayout, FlippedLayoutByteIsCaughtByTheSectionCrc)
{
    const std::vector<uint8_t> pristine =
        io::serializeModel(makeQuantizedModel(PwpTier::Int16));
    const SectionEntry e = findLayoutEntry(pristine);
    ASSERT_GT(e.payloadSize, 0u);
    std::vector<uint8_t> corrupt = pristine;
    corrupt[e.payloadOffset + e.payloadSize - 1] ^= 0x01;
    EXPECT_THROW(io::parseModel(corrupt.data(), corrupt.size()),
                 io::IoError);
}

/** Patch one LAYT tier byte and unstamp the section CRC, simulating a
 *  CRC-valid artifact from a buggy or malicious writer: the semantic
 *  checks must still reject it. */
std::vector<uint8_t>
withPatchedTier(const std::vector<uint8_t>& pristine, size_t layer,
                uint8_t tier)
{
    const SectionEntry e = findLayoutEntry(pristine);
    std::vector<uint8_t> bytes = pristine;
    // LAYT payload: u64 layer count, then one u8 tier per layer.
    bytes[e.payloadOffset + 8 + layer] = tier;
    for (int i = 0; i < 4; ++i)
        bytes[e.entryOffset + 4 + i] = 0; // CRC 0 = unstamped
    return bytes;
}

TEST(ModelIoLayout, RejectsTierTheValuesCannotReach)
{
    // The artifact's PWP payload is exact int32; a section claiming
    // int8 when the values only fit int16 is lying (the arena only
    // ever falls back wider) and must be rejected, not served off-tier.
    // Weights of magnitude ~300 guarantee every non-empty PWP value
    // overflows int8 while staying well inside int16.
    Rng rng(1);
    BinaryMatrix train = BinaryMatrix::random(128, 64, 0.15, rng);
    CalibrationConfig ccfg;
    ccfg.k = 16;
    ccfg.q = 24;
    ccfg.kmeans.maxIters = 8;
    Pipeline pipe(ccfg);
    pipe.setPwpQuant(PwpTier::Int16);
    pipe.addLayer("proj", {&train})
        .bindWeights(test::randomWeights(64, 20, 2, 200, 400));
    const CompiledModel model = pipe.compile();
    ASSERT_EQ(model.layer(0).pwpTier(), PwpTier::Int16);
    const std::vector<uint8_t> pristine = io::serializeModel(model);
    const auto lying = withPatchedTier(
        pristine, 0, static_cast<uint8_t>(PwpTier::Int8));
    try {
        io::parseModel(lying.data(), lying.size());
        FAIL() << "off-tier artifact parsed";
    } catch (const io::IoError& err) {
        EXPECT_NE(std::string(err.what()).find("claims"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ModelIoLayout, RejectsQuantizedTierOnWeightlessLayer)
{
    const std::vector<uint8_t> pristine = io::serializeModel(
        makeQuantizedModel(PwpTier::Int16, 1, true));
    const auto lying = withPatchedTier(
        pristine, 1, static_cast<uint8_t>(PwpTier::Int16));
    EXPECT_THROW(io::parseModel(lying.data(), lying.size()),
                 io::IoError);
}

TEST(ModelIoLayout, RejectsUnknownTierAndCountMismatch)
{
    const std::vector<uint8_t> pristine =
        io::serializeModel(makeQuantizedModel(PwpTier::Int16));
    const auto unknown = withPatchedTier(pristine, 0, 9);
    EXPECT_THROW(io::parseModel(unknown.data(), unknown.size()),
                 io::IoError);

    // A layer count that disagrees with LYRS must be rejected before
    // the tiers are applied.
    const SectionEntry e = findLayoutEntry(pristine);
    std::vector<uint8_t> mismatch = pristine;
    mismatch[e.payloadOffset] = 9; // count u64 low byte
    for (int i = 0; i < 4; ++i)
        mismatch[e.entryOffset + 4 + i] = 0;
    EXPECT_THROW(io::parseModel(mismatch.data(), mismatch.size()),
                 io::IoError);
}

} // namespace
} // namespace phi
