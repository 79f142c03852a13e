/**
 * @file
 * Quickstart: compile once, serve many.
 *
 * Offline: calibrate patterns on sample spike activations, bind
 * weights, compile to an immutable artifact and save it as
 * quickstart.phim. Online: load the artifact into a ModelRegistry and
 * serve a batch of fresh activation matrices through a PhiEngine in
 * one serve() call, verifying every result is
 * bit-exact against the reference GEMM, then print the sparsity
 * accounting.
 *
 * Build & run:  ./build/examples/example_quickstart
 */

#include <phi/phi.hh> // the public facade: compile -> save/load -> serve

#include <filesystem>
#include <iostream>

#include "common/table.hh"       // internal: report formatting
#include "numeric/gemm.hh"       // internal: reference GEMM for verdicts
#include "snn/activation_gen.hh" // internal: synthetic spike traffic

using namespace phi;

int
main()
{
    // 1. Get spike activations. Here: the clustered generator standing
    //    in for a trained SNN layer (M=1024 rows, K=256 inputs).
    ClusterGenConfig gen_cfg;
    gen_cfg.bitDensity = 0.10;       // ~10% of bits are spikes
    gen_cfg.l2DensityTarget = 0.02;  // tight clusters
    ClusteredSpikeGenerator gen(gen_cfg, 256, /*seed=*/7);
    Rng rng(1);
    BinaryMatrix train = gen.generate(1024, rng); // calibration split

    // 2. Offline compile: calibrate k-means patterns per 16-bit
    //    partition (Alg. 1), bind weights (pattern-weight products are
    //    precomputed here), snapshot into an immutable artifact.
    CalibrationConfig cfg;
    cfg.k = 16;  // partition width
    cfg.q = 128; // patterns per partition
    Pipeline pipe(cfg);
    LayerPipeline& layer = pipe.addLayer("demo", {&train});

    Rng wrng(2);
    Matrix<int16_t> weights(256, 64);
    for (size_t r = 0; r < weights.rows(); ++r)
        for (size_t c = 0; c < weights.cols(); ++c)
            weights(r, c) = static_cast<int16_t>(wrng.uniformInt(-64, 63));
    layer.bindWeights(weights);

    const CompiledModel compiled = phi::compile(pipe);
    // The META stamp names the artifact so a ModelRegistry can load
    // it without being told what it is (registry.load("", path)).
    io::saveModel(compiled, "quickstart.phim", {"quickstart", 1});
    std::cout << "Compiled 1 layer -> quickstart.phim ("
              << std::filesystem::file_size("quickstart.phim")
              << " bytes, "
              << compiled.layer(0).table().totalPatterns()
              << " patterns, PWP footprint "
              << compiled.pwpFootprintBytes() << " bytes)\n\n";

    // 3. Online serve: a fresh process would start exactly here. The
    //    registry names the model from the artifact's META stamp; the
    //    pin fixes the version every request of the batch serves on.
    PhiEngine engine(std::make_shared<ModelRegistry>());
    const ModelHandle model = engine.registry()->load("", "quickstart.phim");
    const ModelRegistry::Pinned pin = engine.registry()->pin(model);

    std::vector<BinaryMatrix> requests;
    for (int i = 0; i < 4; ++i)
        requests.push_back(gen.generate(1024, rng));
    std::vector<EngineRequest> batch;
    for (const BinaryMatrix& acts : requests)
        batch.push_back({pin, 0, &acts});
    std::vector<EngineResponse> responses = engine.serve(batch);

    // 4. Verify losslessness against the reference binary GEMM.
    bool all_exact = true;
    for (size_t i = 0; i < requests.size(); ++i)
        all_exact &= responses[i].out == spikeGemm(requests[i], weights);
    std::cout << "Served " << engine.stats().requests << " requests in "
              << engine.stats().batches << " batch; lossless: "
              << (all_exact ? "YES (bit-exact)" : "NO (bug!)") << "\n\n";

    // 5. Report the hierarchical sparsity of one request (Table 4
    //    style) by decomposing it offline — the engine's fused kernel
    //    makes the same assignments, so this is exactly what it served.
    const CompiledLayer& served = pin->layer(0);
    SparsityBreakdown b =
        served.breakdown(requests[0], served.decompose(requests[0]));
    Table t({"Metric", "Value"});
    t.addRow({"Bit density", Table::fmtPct(b.bitDensity)});
    t.addRow({"L1 (pattern) density", Table::fmtPct(b.l1Density)});
    t.addRow({"L2 (+1) density", Table::fmtPct(b.l2PosDensity)});
    t.addRow({"L2 (-1) density", Table::fmtPct(b.l2NegDensity)});
    t.addRow({"Row-tiles with pattern", Table::fmtPct(b.indexDensity)});
    t.addRow({"Theoretical speedup vs bit sparsity",
              Table::fmtX(b.speedupOverBit())});
    t.addRow({"Theoretical speedup vs dense",
              Table::fmtX(b.speedupOverDense())});
    t.print(std::cout);
    return all_exact ? 0 : 1;
}
