/**
 * @file
 * google-benchmark micro-benchmarks of the performance-critical
 * kernels: k-means calibration, pattern assignment, decomposition,
 * matching, packing, the reconfigurable adder tree, the GEMM paths and
 * one served layer end to end (BM_ServeLayer*).
 * These quantify the simulator's own throughput, not the modelled
 * hardware.
 *
 * The parallel kernels take the thread count as the trailing benchmark
 * argument (1 = the sequential baseline identical to the seed scalar
 * path); speedup at t threads is the ratio of the two times at equal
 * problem size.
 */

#include <benchmark/benchmark.h>

#include "arch/adder_tree.hh"
#include "arch/packer.hh"
#include "arch/pattern_matcher.hh"
#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "core/calibration.hh"
#include "core/compiled_model.hh"
#include "core/pwp.hh"
#include "numeric/simd.hh"
#include "snn/activation_gen.hh"

namespace phi
{
namespace
{

BinaryMatrix
clusteredActs(size_t rows, size_t cols, uint64_t seed)
{
    ClusterGenConfig cfg;
    cfg.bitDensity = 0.12;
    cfg.l2DensityTarget = 0.025;
    ClusteredSpikeGenerator gen(cfg, cols, seed);
    Rng rng(seed + 1);
    return gen.generate(rows, rng);
}

/** Engine config for the benchmark's trailing threads argument. */
ExecutionConfig
benchExec(const benchmark::State& state)
{
    ExecutionConfig exec;
    exec.threads = static_cast<int>(state.range(1));
    return exec;
}

void
BM_KMeansCalibration(benchmark::State& state)
{
    BinaryMatrix acts =
        clusteredActs(static_cast<size_t>(state.range(0)), 256, 1);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 128;
    cfg.kmeans.maxIters = 12;
    cfg.exec = benchExec(state);
    for (auto _ : state) {
        PatternTable t = calibrateLayer(acts, cfg);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 16);
}
BENCHMARK(BM_KMeansCalibration)
    ->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}});

void
BM_DecomposeLayer(benchmark::State& state)
{
    BinaryMatrix acts =
        clusteredActs(static_cast<size_t>(state.range(0)), 256, 2);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 128;
    PatternTable table = calibrateLayer(acts, cfg);
    const ExecutionConfig exec = benchExec(state);
    for (auto _ : state) {
        LayerDecomposition dec = decomposeLayer(acts, table, exec);
        benchmark::DoNotOptimize(dec);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 16);
}
BENCHMARK(BM_DecomposeLayer)->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}});

void
BM_PatternMatch(benchmark::State& state)
{
    Rng rng(3);
    std::vector<uint64_t> pats;
    for (int i = 0; i < 128; ++i)
        pats.push_back((rng.next() & 0xffff) | 0b11);
    PatternMatcher matcher(PatternSet(16, pats));
    uint64_t row = 0xBEEF;
    for (auto _ : state) {
        RowAssignment a = matcher.match(row);
        benchmark::DoNotOptimize(a);
        row = (row * 2862933555777941757ull + 1) & 0xffff;
    }
    state.SetItemsProcessed(state.iterations() * 129);
}
BENCHMARK(BM_PatternMatch);

void
BM_PatternMatchAll(benchmark::State& state)
{
    Rng rng(3);
    std::vector<uint64_t> pats;
    for (int i = 0; i < 128; ++i)
        pats.push_back((rng.next() & 0xffff) | 0b11);
    PatternMatcher matcher(PatternSet(16, pats));
    std::vector<uint64_t> rows(16384);
    for (auto& r : rows)
        r = rng.next() & 0xffff;
    const ExecutionConfig exec = benchExec(state);
    for (auto _ : state) {
        auto out = matcher.matchAll(rows, exec);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(rows.size()) * 129);
}
BENCHMARK(BM_PatternMatchAll)->ArgsProduct({{0}, {1, 2, 4, 8}});

void
BM_PackerThroughput(benchmark::State& state)
{
    Rng rng(4);
    std::vector<CompressedRow> rows;
    for (int i = 0; i < 4096; ++i) {
        CompressedRow r;
        r.rowId = static_cast<uint32_t>(rng.nextBounded(256));
        r.partition = static_cast<uint32_t>(rng.nextBounded(16));
        r.needsPsum = rng.bernoulli(0.4);
        int nnz = 1 + static_cast<int>(rng.nextBounded(3));
        for (int e = 0; e < nnz; ++e)
            r.entries.emplace_back(static_cast<uint16_t>(e),
                                   int8_t{1});
        rows.push_back(r);
    }
    for (auto _ : state) {
        size_t packs = 0;
        Packer packer({4, 8}, [&](Pack&&) { ++packs; });
        for (const auto& r : rows)
            packer.push(r);
        packer.flush();
        benchmark::DoNotOptimize(packs);
    }
    state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_PackerThroughput);

void
BM_AdderTreeReduce(benchmark::State& state)
{
    ReconfigurableAdderTree tree(32);
    Rng rng(5);
    Matrix<int32_t> inputs(8, 32);
    for (size_t r = 0; r < 8; ++r)
        for (size_t c = 0; c < 32; ++c)
            inputs(r, c) = static_cast<int32_t>(rng.uniformInt(-9, 9));
    const std::vector<int> segs{3, 3, 2};
    for (auto _ : state) {
        auto out = tree.reduce(inputs, segs);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * 8 * 32);
}
BENCHMARK(BM_AdderTreeReduce);

void
BM_SpikeGemm(benchmark::State& state)
{
    BinaryMatrix acts =
        clusteredActs(static_cast<size_t>(state.range(0)), 256, 6);
    Rng rng(7);
    Matrix<int16_t> w(256, 64);
    for (size_t r = 0; r < w.rows(); ++r)
        for (size_t c = 0; c < w.cols(); ++c)
            w(r, c) = static_cast<int16_t>(rng.uniformInt(-40, 40));
    const ExecutionConfig exec = benchExec(state);
    for (auto _ : state) {
        Matrix<int32_t> out = spikeGemm(acts, w, exec);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_SpikeGemm)->ArgsProduct({{256, 1024}, {1, 2, 4, 8}});

void
BM_SpikeGemmF(benchmark::State& state)
{
    BinaryMatrix acts =
        clusteredActs(static_cast<size_t>(state.range(0)), 256, 10);
    Rng rng(11);
    Matrix<float> w(256, 64);
    for (size_t r = 0; r < w.rows(); ++r)
        for (size_t c = 0; c < w.cols(); ++c)
            w(r, c) = static_cast<float>(rng.uniform()) - 0.5f;
    const ExecutionConfig exec = benchExec(state);
    for (auto _ : state) {
        Matrix<float> out = spikeGemmF(acts, w, exec);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_SpikeGemmF)->ArgsProduct({{256, 1024}, {1, 2, 4, 8}});

/**
 * Shared setup for the PWP serving benchmarks: a calibrated,
 * decomposed layer with bound weights, its per-partition PWPs and
 * every serving representation derived from them. @p wmax bounds the
 * weight magnitude so the quantized tiers are exercised honestly:
 * +/-40 weights over k=16 partitions keep PWP values in int16 but
 * beyond int8; +/-4 fits int8.
 */
struct ServeFixture
{
    BinaryMatrix acts;
    PatternTable table;
    LayerDecomposition dec;
    Matrix<int16_t> w;
    std::vector<Matrix<int32_t>> pwps;

    ServeFixture(size_t m, size_t n, uint64_t seed, int wmax = 40)
        : acts(clusteredActs(m, 256, seed)), w(256, n)
    {
        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = 128;
        table = calibrateLayer(acts, cfg);
        dec = decomposeLayer(acts, table);
        Rng rng(seed + 1);
        for (size_t r = 0; r < w.rows(); ++r)
            for (size_t c = 0; c < w.cols(); ++c)
                w(r, c) = static_cast<int16_t>(
                    rng.uniformInt(-wmax, wmax));
        pwps = computeLayerPwps(table, w);
    }

    /** Level 1 bytes the serving loop reads per output row at a given
     *  element width (the bandwidth the layout work attacks). */
    double
    l1BytesPerRow(size_t elemBytes) const
    {
        size_t rows = 0;
        for (const auto& t : dec.tiles)
            for (uint16_t id : t.patternIds)
                rows += id != 0 ? 1 : 0;
        return static_cast<double>(rows * w.cols() * elemBytes) /
               static_cast<double>(dec.m);
    }
};

void
BM_PhiGemm(benchmark::State& state)
{
    // Steady-state serving: PWPs are bound once (arena form, as the
    // engine serves them) and activation batches stream through — the
    // shape of the runtime hot path. Decomposition and PWP compute
    // have their own benchmarks above.
    ServeFixture fx(static_cast<size_t>(state.range(0)), 64, 8);
    PwpArena arena(fx.pwps, fx.w.cols());
    Matrix<int32_t> out(fx.dec.m, fx.w.cols());
    const ExecutionConfig exec = benchExec(state);
    for (auto _ : state) {
        phiGemmWithArenaInto(out, fx.dec, arena, fx.w, exec);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) *
                            static_cast<int64_t>(fx.w.cols()));
}
BENCHMARK(BM_PhiGemm)->ArgsProduct({{256, 1024}, {1, 2, 4, 8}});

/**
 * PWP-tier ablation: the same serving problem through each arena
 * storage width, so a regression report can attribute the gain.
 * Counters report the Level 1 bytes each tier streams per output row
 * and the resident PWP bytes.
 *
 *   arena   — contiguous int32 arena
 *   quant16 — quantized int16 arena (lossless for these weights)
 */
void
serveAblation(benchmark::State& state, PwpTier quant)
{
    ServeFixture fx(1024, 64, 8);
    PwpArena arena(fx.pwps, fx.w.cols(), quant);
    Matrix<int32_t> out(fx.dec.m, fx.w.cols());
    const ExecutionConfig exec = benchExec(state);
    for (auto _ : state) {
        phiGemmWithArenaInto(out, fx.dec, arena, fx.w, exec);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["l1_bytes_per_row"] = benchmark::Counter(
        fx.l1BytesPerRow(pwpTierBytes(arena.tier())));
    state.counters["pwp_resident_bytes"] =
        benchmark::Counter(static_cast<double>(arena.bytes()));
}

void
BM_PwpServeArena(benchmark::State& state)
{
    serveAblation(state, PwpTier::Int32);
}
void
BM_PwpServeQuant16(benchmark::State& state)
{
    serveAblation(state, PwpTier::Int16);
}
BENCHMARK(BM_PwpServeArena)->ArgsProduct({{1024}, {1}});
BENCHMARK(BM_PwpServeQuant16)->ArgsProduct({{1024}, {1}});

void
BM_PwpServeQuant8(benchmark::State& state)
{
    // Small weights so the int8 tier is genuinely reachable.
    ServeFixture fx(1024, 64, 8, 4);
    PwpArena arena(fx.pwps, fx.w.cols(), PwpTier::Int8);
    Matrix<int32_t> out(fx.dec.m, fx.w.cols());
    const ExecutionConfig exec = benchExec(state);
    for (auto _ : state) {
        phiGemmWithArenaInto(out, fx.dec, arena, fx.w, exec);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["l1_bytes_per_row"] = benchmark::Counter(
        fx.l1BytesPerRow(pwpTierBytes(arena.tier())));
    state.counters["pwp_resident_bytes"] =
        benchmark::Counter(static_cast<double>(arena.bytes()));
}
BENCHMARK(BM_PwpServeQuant8)->ArgsProduct({{1024}, {1}});

/**
 * One served layer at equal shapes across the three ways to compute
 * it: the fused Phi serve kernel (matching included, warm match
 * table), spikeGemm over the set bits, and a dense float GEMM. Each
 * iteration allocates its output as the engine does per request.
 * Arguments: rows m, bit density in percent, output width n.
 */
struct ServeLayerFixture
{
    BinaryMatrix acts;
    Matrix<int16_t> w;

    explicit ServeLayerFixture(const benchmark::State& state)
        : w(256, static_cast<size_t>(state.range(2)))
    {
        // Calibration and traffic share the generator's prototypes;
        // Level 2 noise scales with the bit density.
        ClusterGenConfig gc;
        gc.bitDensity = static_cast<double>(state.range(1)) / 100.0;
        gc.l2DensityTarget = gc.bitDensity / 5.0;
        ClusteredSpikeGenerator gen(gc, 256, 21);
        Rng rng(22);
        calib = gen.generate(1024, rng);
        acts = gen.generate(static_cast<size_t>(state.range(0)), rng);
        Rng wr(23);
        for (size_t r = 0; r < w.rows(); ++r)
            for (size_t c = 0; c < w.cols(); ++c)
                w(r, c) = static_cast<int16_t>(wr.uniformInt(-40, 40));
    }

    CompiledLayer
    compile() const
    {
        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = 128;
        PatternTable table = calibrateLayer(calib, cfg);
        auto pwps = computeLayerPwps(table, w);
        return CompiledLayer("bench", std::move(table), w,
                             std::move(pwps));
    }

    BinaryMatrix calib;
};

void
BM_ServeLayerPhi(benchmark::State& state)
{
    ServeLayerFixture fx(state);
    const CompiledLayer layer = fx.compile();
    ExecutionConfig exec;
    exec.threads = 1;
    Matrix<int32_t> warm =
        Matrix<int32_t>::uninitialized(fx.acts.rows(), fx.w.cols());
    layer.serveInto(warm, fx.acts, exec);
    for (auto _ : state) {
        Matrix<int32_t> out =
            Matrix<int32_t>::uninitialized(fx.acts.rows(), fx.w.cols());
        layer.serveInto(out, fx.acts, exec);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["bit_density"] = fx.acts.density();
}

void
BM_ServeLayerSpikeGemm(benchmark::State& state)
{
    ServeLayerFixture fx(state);
    ExecutionConfig exec;
    exec.threads = 1;
    for (auto _ : state) {
        Matrix<int32_t> out = spikeGemm(fx.acts, fx.w, exec);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["bit_density"] = fx.acts.density();
}

void
BM_ServeLayerDense(benchmark::State& state)
{
    ServeLayerFixture fx(state);
    Matrix<float> a(fx.acts.rows(), fx.acts.cols());
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            a(r, c) = fx.acts.get(r, c) ? 1.0f : 0.0f;
    Matrix<float> wf(fx.w.rows(), fx.w.cols());
    for (size_t r = 0; r < wf.rows(); ++r)
        for (size_t c = 0; c < wf.cols(); ++c)
            wf(r, c) = static_cast<float>(fx.w(r, c));
    ExecutionConfig exec;
    exec.threads = 1;
    for (auto _ : state) {
        Matrix<float> out = denseGemm(a, wf, exec);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["bit_density"] = fx.acts.density();
}

const std::vector<std::vector<int64_t>> kServeLayerArgs = {
    {8, 1024}, {5, 12, 25}, {64, 256}};
BENCHMARK(BM_ServeLayerPhi)->ArgsProduct(kServeLayerArgs);
BENCHMARK(BM_ServeLayerSpikeGemm)->ArgsProduct(kServeLayerArgs);
BENCHMARK(BM_ServeLayerDense)->ArgsProduct(kServeLayerArgs);

} // namespace
} // namespace phi

int
main(int argc, char** argv)
{
    // Baselines must come from optimised binaries; a non-Release build
    // refuses to write JSON at all. The context records this binary's
    // build type and the SIMD backend Auto resolves to (the benchmark
    // library's own library_build_type reflects how libbenchmark was
    // compiled, not this binary).
    phi::bench::guardJsonOutput(argc, argv);
    benchmark::AddCustomContext(
        "phi_build_type",
        phi::bench::kReleaseBuild ? "release" : "debug");
    benchmark::AddCustomContext(
        "phi_simd", phi::simdIsaName(phi::simd::activeIsa()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
