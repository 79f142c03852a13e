/**
 * @file
 * Property tests of the SIMD kernel layer: every compiled-and-available
 * backend must produce bit-identical results to the scalar reference,
 * for every vtable primitive and for the whole kernels built on them —
 * across odd shapes (tail words, ragged final K partition, n not a
 * multiple of any vector width, empty matrices).
 */

#include <gtest/gtest.h>

#include "arch/pattern_matcher.hh"
#include "common/rng.hh"
#include "core/calibration.hh"
#include "core/decompose.hh"
#include "core/pwp.hh"
#include "numeric/gemm.hh"
#include "numeric/simd.hh"
#include "test_support.hh"

namespace phi
{
namespace
{

/** Backends to test against scalar (may be empty on plain hosts). */
std::vector<SimdIsa>
simdBackends()
{
    std::vector<SimdIsa> v;
    for (SimdIsa isa : simd::availableIsas())
        if (isa != SimdIsa::Scalar)
            v.push_back(isa);
    return v;
}

/** Odd span lengths around every vector width in the layer. */
const std::vector<size_t> kSpans = {0,  1,  2,  3,   7,   8,   15, 16,
                                    17, 31, 32, 33,  63,  64,  65, 100,
                                    127, 128, 129, 257, 1000};

template <typename T>
std::vector<T>
randomValues(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<T> v(n);
    for (auto& x : v)
        x = static_cast<T>(rng.uniformInt(-500, 500));
    return v;
}

std::vector<float>
randomFloats(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.uniform()) - 0.5f;
    return v;
}

TEST(SimdDispatch, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(simd::available(SimdIsa::Scalar));
    EXPECT_TRUE(simd::compiledIn(SimdIsa::Scalar));
    EXPECT_STREQ(simd::kernels(SimdIsa::Scalar).name, "scalar");
}

TEST(SimdDispatch, AutoResolvesToAvailableBackend)
{
    const SimdIsa active = simd::activeIsa();
    EXPECT_NE(active, SimdIsa::Auto);
    EXPECT_TRUE(simd::available(active));
    EXPECT_EQ(simd::kernels().isa, active);
}

TEST(SimdDispatch, UnavailableBackendFallsBackToScalar)
{
    for (SimdIsa isa :
         {SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon}) {
        if (!simd::available(isa))
            EXPECT_EQ(simd::kernels(isa).isa, SimdIsa::Scalar)
                << simdIsaName(isa);
        else
            EXPECT_EQ(simd::kernels(isa).isa, isa)
                << simdIsaName(isa);
    }
}

TEST(SimdDispatch, IsaNamesRoundTrip)
{
    for (SimdIsa isa : {SimdIsa::Auto, SimdIsa::Scalar, SimdIsa::Avx2,
                        SimdIsa::Avx512, SimdIsa::Neon})
        EXPECT_EQ(parseSimdIsa(simdIsaName(isa)), isa);
    EXPECT_FALSE(parseSimdIsa("sse9").has_value());
}

TEST(SimdKernels, SingleRowPrimitivesMatchScalar)
{
    const simd::Kernels& ref = simd::scalarKernels();
    for (SimdIsa isa : simdBackends()) {
        const simd::Kernels& kr = simd::kernels(isa);
        for (size_t n : kSpans) {
            const auto f32 = randomFloats(n, 30 + n);
            auto fa = randomFloats(n, 50 + n);
            auto fb = fa;
            ref.fmaRowF32(fa.data(), f32.data(), 0.37f, n);
            kr.fmaRowF32(fb.data(), f32.data(), 0.37f, n);
            EXPECT_EQ(fa, fb) << kr.name << " fmaRowF32 n=" << n;
        }
    }
}

TEST(SimdKernels, MultiRowPrimitivesMatchScalar)
{
    const simd::Kernels& ref = simd::scalarKernels();
    for (SimdIsa isa : simdBackends()) {
        const simd::Kernels& kr = simd::kernels(isa);
        for (size_t n : {size_t{0}, size_t{3}, size_t{16}, size_t{33},
                         size_t{64}, size_t{100}}) {
            for (size_t m : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                             size_t{16}, size_t{40}}) {
                std::vector<std::vector<int16_t>> rows16(m);
                std::vector<std::vector<float>> rowsF(m);
                std::vector<const int16_t*> p16(m);
                std::vector<const float*> pF(m);
                for (size_t j = 0; j < m; ++j) {
                    rows16[j] = randomValues<int16_t>(n, j * 7 + n);
                    rowsF[j] = randomFloats(n, j * 11 + n);
                    p16[j] = rows16[j].data();
                    pF[j] = rowsF[j].data();
                }

                auto a = randomValues<int32_t>(n, 60 + n + m);
                auto b = a;
                ref.addRowsI16(a.data(), p16.data(), m, n);
                kr.addRowsI16(b.data(), p16.data(), m, n);
                EXPECT_EQ(a, b)
                    << kr.name << " addRowsI16 m=" << m << " n=" << n;

                ref.storeRowsI16(a.data(), p16.data(), m, n);
                kr.storeRowsI16(b.data(), p16.data(), m, n);
                EXPECT_EQ(a, b)
                    << kr.name << " storeRowsI16 m=" << m << " n=" << n;

                auto fa = randomFloats(n, 70 + n + m);
                auto fb = fa;
                ref.addRowsF32(fa.data(), pF.data(), m, n);
                kr.addRowsF32(fb.data(), pF.data(), m, n);
                EXPECT_EQ(fa, fb)
                    << kr.name << " addRowsF32 m=" << m << " n=" << n;
            }
        }
    }
}

/** Exercise one pwpGather element width against the scalar kernel. */
template <typename Elem, typename Fn>
void
checkPwpGather(const simd::Kernels& ref, const simd::Kernels& kr,
               Fn refGather, Fn krGather, const char* what)
{
    constexpr size_t kRowsPerTile = 4;
    Rng rng(777);
    for (size_t n : kSpans) {
        for (size_t numTiles : {size_t{0}, size_t{1}, size_t{3},
                                size_t{8}}) {
            const size_t stride = n + (n % 2 ? 5 : 16);
            std::vector<Elem> arena(numTiles * kRowsPerTile * stride);
            for (auto& x : arena)
                x = static_cast<Elem>(rng.uniformInt(-100, 100));
            std::vector<uint64_t> rowBase(numTiles);
            std::vector<uint16_t> ids(numTiles);
            for (size_t t = 0; t < numTiles; ++t) {
                rowBase[t] = t * kRowsPerTile;
                // 0 = no pattern assigned: the kernel must skip it.
                ids[t] = static_cast<uint16_t>(
                    rng.uniformInt(0, kRowsPerTile));
            }
            const auto w16a = randomValues<int16_t>(n, 81 + n);
            const auto w16b = randomValues<int16_t>(n, 82 + n);
            const auto w16c = randomValues<int16_t>(n, 83 + n);
            const std::vector<const int16_t*> pos = {w16a.data(),
                                                     w16b.data()};
            const std::vector<const int16_t*> neg = {w16c.data()};

            auto a = randomValues<int32_t>(n, 84 + n);
            auto b = a;
            refGather(a.data(), arena.data(), rowBase.data(),
                      ids.data(), numTiles, stride, pos.data(),
                      pos.size(), neg.data(), neg.size(), n);
            krGather(b.data(), arena.data(), rowBase.data(),
                     ids.data(), numTiles, stride, pos.data(),
                     pos.size(), neg.data(), neg.size(), n);
            EXPECT_EQ(a, b) << kr.name << " " << what << " tiles="
                            << numTiles << " n=" << n;
            (void)ref;
        }
    }
}

TEST(SimdKernels, PwpGatherMatchesScalarAtEveryWidth)
{
    const simd::Kernels& ref = simd::scalarKernels();
    for (SimdIsa isa : simdBackends()) {
        const simd::Kernels& kr = simd::kernels(isa);
        checkPwpGather<int32_t>(ref, kr, ref.pwpGatherI32,
                                kr.pwpGatherI32, "pwpGatherI32");
        checkPwpGather<int16_t>(ref, kr, ref.pwpGatherI16,
                                kr.pwpGatherI16, "pwpGatherI16");
        checkPwpGather<int8_t>(ref, kr, ref.pwpGatherI8,
                               kr.pwpGatherI8, "pwpGatherI8");
    }
}

TEST(SimdKernels, PopcountAndHammingMatchScalar)
{
    const simd::Kernels& ref = simd::scalarKernels();
    Rng rng(99);
    for (SimdIsa isa : simdBackends()) {
        const simd::Kernels& kr = simd::kernels(isa);
        for (size_t n : kSpans) {
            std::vector<uint64_t> words(n);
            for (auto& w : words)
                w = rng.next();
            EXPECT_EQ(ref.popcountWords(words.data(), n),
                      kr.popcountWords(words.data(), n))
                << kr.name << " popcountWords n=" << n;

            const uint64_t row = rng.next();
            std::vector<uint8_t> da(n, 0xEE), db(n, 0x11);
            ref.hammingScan(row, words.data(), n, da.data());
            kr.hammingScan(row, words.data(), n, db.data());
            EXPECT_EQ(da, db) << kr.name << " hammingScan n=" << n;
        }
    }
}

// ---- Whole-kernel equivalence across backends -----------------------

/** Odd GEMM shapes: tail word, ragged K partition, odd n, empties. */
struct GemmShape
{
    size_t m, k, n;
};

const std::vector<GemmShape> kShapes = {
    {33, 130, 37},  // tail word (130 = 2 words + 2 bits), odd n
    {17, 64, 100},  // exact word boundary
    {5, 65, 1},     // 1-column output
    {64, 256, 64},  // vector-friendly everything
    {1, 7, 513},    // tiny K, n just past a tile
    {0, 64, 8},     // empty activations
    {8, 64, 0},     // empty outputs
};

TEST(SimdKernelEquivalence, SpikeGemmMatchesScalarBackend)
{
    for (const GemmShape& s : kShapes) {
        Rng rng(1000 + s.m + s.k + s.n);
        BinaryMatrix acts =
            BinaryMatrix::random(s.m, s.k, 0.2, rng);
        Matrix<int16_t> w = test::randomWeights(s.k, s.n, 7);

        ExecutionConfig scalarExec;
        scalarExec.threads = 1;
        scalarExec.isa = SimdIsa::Scalar;
        const Matrix<int32_t> ref = spikeGemm(acts, w, scalarExec);

        for (SimdIsa isa : simdBackends()) {
            ExecutionConfig exec;
            exec.threads = 2;
            exec.isa = isa;
            EXPECT_TRUE(spikeGemm(acts, w, exec) == ref)
                << simdIsaName(isa) << " m=" << s.m << " k=" << s.k
                << " n=" << s.n;
        }
    }
}

TEST(SimdKernelEquivalence, SpikeGemmFMatchesScalarBackendBitwise)
{
    for (const GemmShape& s : kShapes) {
        Rng rng(2000 + s.m + s.k + s.n);
        BinaryMatrix acts =
            BinaryMatrix::random(s.m, s.k, 0.3, rng);
        Matrix<float> w(s.k, s.n);
        Rng wr(3000 + s.n);
        for (size_t r = 0; r < w.rows(); ++r)
            for (size_t c = 0; c < w.cols(); ++c)
                w(r, c) = static_cast<float>(wr.uniform()) - 0.5f;

        ExecutionConfig scalarExec;
        scalarExec.threads = 1;
        scalarExec.isa = SimdIsa::Scalar;
        const Matrix<float> ref = spikeGemmF(acts, w, scalarExec);

        for (SimdIsa isa : simdBackends()) {
            ExecutionConfig exec;
            exec.threads = 2;
            exec.isa = isa;
            // Bitwise equality: float kernels vectorize across columns
            // only and never fuse multiply-add.
            EXPECT_TRUE(spikeGemmF(acts, w, exec) == ref)
                << simdIsaName(isa) << " m=" << s.m << " k=" << s.k
                << " n=" << s.n;
        }
    }
}

TEST(SimdKernelEquivalence, DenseGemmMatchesScalarBackendBitwise)
{
    Rng rng(4000);
    Matrix<float> a(19, 33);
    Matrix<float> b(33, 41);
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            a(r, c) = rng.bernoulli(0.7)
                          ? static_cast<float>(rng.uniform()) - 0.5f
                          : 0.0f;
    for (size_t r = 0; r < b.rows(); ++r)
        for (size_t c = 0; c < b.cols(); ++c)
            b(r, c) = static_cast<float>(rng.uniform()) - 0.5f;

    ExecutionConfig scalarExec;
    scalarExec.threads = 1;
    scalarExec.isa = SimdIsa::Scalar;
    const Matrix<float> ref = denseGemm(a, b, scalarExec);
    for (SimdIsa isa : simdBackends()) {
        ExecutionConfig exec;
        exec.threads = 2;
        exec.isa = isa;
        EXPECT_TRUE(denseGemm(a, b, exec) == ref) << simdIsaName(isa);
    }
}

TEST(SimdKernelEquivalence, PhiGemmMatchesScalarBackendAndSpikeGemm)
{
    // 133 columns with k=16 leaves a ragged 5-bit final partition.
    Rng rng(5000);
    BinaryMatrix acts = BinaryMatrix::random(47, 133, 0.15, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 24;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    Matrix<int16_t> w = test::randomWeights(133, 29, 11);

    ExecutionConfig scalarExec;
    scalarExec.threads = 1;
    scalarExec.isa = SimdIsa::Scalar;
    const Matrix<int32_t> dense = spikeGemm(acts, w, scalarExec);
    const Matrix<int32_t> ref = phiGemm(dec, table, w, scalarExec);
    EXPECT_TRUE(ref == dense);

    for (SimdIsa isa : simdBackends()) {
        ExecutionConfig exec;
        exec.threads = 2;
        exec.isa = isa;
        EXPECT_TRUE(phiGemm(dec, table, w, exec) == ref)
            << simdIsaName(isa);
    }
}

TEST(SimdKernelEquivalence, ComputePwpMatchesScalarBackend)
{
    Rng rng(6000);
    std::vector<uint64_t> pats;
    for (int i = 0; i < 37; ++i)
        pats.push_back(rng.next() & 0x1fff);
    pats.push_back(0); // empty pattern row must store zeros
    PatternSet ps(13, pats);
    // kOffset near the edge exercises the ragged zero-padded rows.
    Matrix<int16_t> w = test::randomWeights(20, 21, 13);

    ExecutionConfig scalarExec;
    scalarExec.threads = 1;
    scalarExec.isa = SimdIsa::Scalar;
    const Matrix<int32_t> ref = computePwp(ps, w, 13, scalarExec);
    for (SimdIsa isa : simdBackends()) {
        ExecutionConfig exec;
        exec.threads = 2;
        exec.isa = isa;
        EXPECT_TRUE(computePwp(ps, w, 13, exec) == ref)
            << simdIsaName(isa);
    }
}

TEST(SimdKernelEquivalence, MatcherMatchAllMatchesScalarBackend)
{
    Rng rng(7000);
    std::vector<uint64_t> pats;
    for (int i = 0; i < 77; ++i)
        pats.push_back(rng.next() & 0x3ffff);
    PatternMatcher matcher(PatternSet(18, pats));

    std::vector<uint64_t> rows(1537);
    for (auto& r : rows)
        r = rng.bernoulli(0.1) ? 0 : (rng.next() & 0x3ffff);

    ExecutionConfig scalarExec;
    scalarExec.threads = 1;
    scalarExec.isa = SimdIsa::Scalar;
    const auto ref = matcher.matchAll(rows, scalarExec);

    // matchAll must equal per-row match() on every backend.
    for (size_t i = 0; i < rows.size(); ++i) {
        const RowAssignment one = matcher.match(rows[i]);
        ASSERT_EQ(ref[i].patternId, one.patternId);
        ASSERT_EQ(ref[i].posMask, one.posMask);
        ASSERT_EQ(ref[i].negMask, one.negMask);
    }

    for (SimdIsa isa : simdBackends()) {
        ExecutionConfig exec;
        exec.threads = 2;
        exec.isa = isa;
        const auto got = matcher.matchAll(rows, exec);
        ASSERT_EQ(got.size(), ref.size()) << simdIsaName(isa);
        for (size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(got[i].patternId, ref[i].patternId)
                << simdIsaName(isa) << " row " << i;
            EXPECT_EQ(got[i].posMask, ref[i].posMask)
                << simdIsaName(isa) << " row " << i;
            EXPECT_EQ(got[i].negMask, ref[i].negMask)
                << simdIsaName(isa) << " row " << i;
        }
    }
}

TEST(SimdKernelEquivalence, EmptyPatternSetAndEmptyRows)
{
    PatternMatcher matcher(PatternSet(16, {}));
    for (SimdIsa isa : simd::availableIsas()) {
        ExecutionConfig exec;
        exec.isa = isa;
        const auto out =
            matcher.matchAll({0ull, 0xBEEFull, 0ull}, exec);
        ASSERT_EQ(out.size(), 3u);
        EXPECT_EQ(out[1].patternId, 0);
        EXPECT_EQ(out[1].posMask, 0xBEEFull);
        const auto none = matcher.matchAll({}, exec);
        EXPECT_TRUE(none.empty());
    }
}

} // namespace
} // namespace phi
