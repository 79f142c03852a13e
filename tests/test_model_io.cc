/**
 * @file
 * Serialization tests: .phim round trips preserve every component
 * (tables, weights, PWPs, config) exactly, and malformed artifacts —
 * bad magic, bad version, truncations at any boundary, lying section
 * tables — are rejected with io::IoError, never a crash. The container
 * cases are the shared ones in artifact_cases.hh, which the .phis
 * tests run too.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "artifact_cases.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "io/model_io.hh"
#include "io/session_io.hh"
#include "test_support.hh"

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
    test::expectRejectsBadMagic(io::serializeModel(makeCompiledModel()),
                                test::parseModelImage);
}

TEST(ModelIo, RejectsUnsupportedVersion)
{
    test::expectRejectsUnsupportedVersion(
        io::serializeModel(makeCompiledModel()), test::parseModelImage);
}

TEST(ModelIo, RejectsWrongKind)
{
    // Kind 2 was the retired trace container; no .phim reader accepts
    // it, nor any other kind but the model's.
    const std::vector<uint8_t> bytes =
        io::serializeModel(makeCompiledModel());
    test::expectRejectsKind(bytes, test::parseModelImage, 2);
    test::expectRejectsKind(bytes, test::parseModelImage, 0);
}

TEST(ModelIo, RejectsTruncationAtEveryBoundary)
{
    // Every prefix must reject cleanly: the declared-size check catches
    // all of them, and the bounds-checked reader backstops it.
    test::expectRejectsTruncationAtEveryBoundary(
        io::serializeModel(makeCompiledModel()), test::parseModelImage);
}

TEST(ModelIo, RejectsLyingSectionTable)
{
    test::expectRejectsLyingSectionTable(
        io::serializeModel(makeCompiledModel()), test::parseModelImage);
}

TEST(ModelIo, ArtifactFamiliesRejectEachOthersImages)
{
    // Both families share the container, so only the header identity
    // keeps a .phis image out of the .phim reader and vice versa.
    io::SessionSnapshot snap;
    io::SessionStateRecord rec;
    rec.id = 1;
    rec.model = "m";
    rec.layerParams = {LifParams{}};
    rec.layerState.push_back({{0.5f}, {0}});
    snap.nextSessionId = 2;
    snap.sessions.push_back(rec);
    const std::vector<uint8_t> phis = io::serializeSessions(snap);
    EXPECT_THROW(io::parseModel(phis.data(), phis.size()), io::IoError);

    const std::vector<uint8_t> phim =
        io::serializeModel(makeCompiledModel());
    EXPECT_THROW(io::parseSessions(phim.data(), phim.size()),
                 io::IoError);
}

TEST(ModelIo, ContainerLayoutIsPinnedByLiteralBytes)
{
    // A one-layer weightless model with every CFG field set explicitly,
    // so the header and the first table entry (CFG 's CRC included)
    // depend on the format alone. A layout change that stays
    // self-consistent still fails here.
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 1;
    cfg.maxRowsPerPartition = 64;
    cfg.kmeans.numClusters = 1;
    cfg.kmeans.maxIters = 2;
    cfg.kmeans.seed = 3;
    cfg.kmeans.init = KMeansConfig::Init::Random;
    cfg.kmeans.maxDistinct = 0;
    std::vector<CompiledLayer> layers;
    layers.emplace_back("l", PatternTable(16, {PatternSet(16, {0x00FF})}));
    const std::vector<uint8_t> bytes =
        io::serializeModel(CompiledModel(std::move(layers), cfg));

    const std::vector<uint8_t> expected = {
        0x50, 0x48, 0x49, 0x4D,                         // "PHIM"
        0x01, 0x00, 0x00, 0x00,                         // version 1
        0x01, 0x00, 0x00, 0x00,                         // kind 1: model
        0x02, 0x00, 0x00, 0x00,                         // 2 sections
        0x9E, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 158 bytes
        0x43, 0x46, 0x47, 0x20,                         // "CFG "
        0x92, 0x81, 0xB0, 0xA7,                         // CRC-32
        0x48, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // offset 72
        0x2C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 44 bytes
    };
    ASSERT_EQ(bytes.size(), 158u);
    EXPECT_EQ(std::vector<uint8_t>(bytes.begin(),
                                   bytes.begin() + expected.size()),
              expected);
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

TEST(ModelIo, LoadingADirectoryIsAnIoErrorNamingIt)
{
    // A directory opens for reading but has no size; both families'
    // loaders must reject it typed instead of trying to allocate
    // 2^64 bytes.
    const std::string dir = ::testing::TempDir();
    try {
        io::loadModel(dir);
        FAIL() << "directory loaded as a model";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.path(), dir);
    }
    EXPECT_THROW(io::loadSessions(dir), io::IoError);
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

// ---- Section CRC integrity ----

using test::readSectionTable;
using test::SectionEntry;

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

    test::expectCrcFlipNamesTheSection(pristine, test::parseModelImage);

    // The file path joins the message through loadModel.
    TempFile f("crc_flip");
    for (const SectionEntry& e : readSectionTable(pristine)) {
        SCOPED_TRACE("section " + e.tagName());
        std::vector<uint8_t> corrupt = pristine;
        corrupt[e.payloadOffset + e.payloadSize / 2] ^= 0x01;
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
