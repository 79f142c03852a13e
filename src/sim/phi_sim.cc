#include "sim/phi_sim.hh"

#include <algorithm>
#include <cmath>

#include "arch/adder_tree.hh"
#include "arch/buffer.hh"
#include "arch/prefetcher.hh"
#include "common/bitops.hh"
#include "core/pwp.hh"

namespace phi
{

PhiSimulator::PhiSimulator(PhiArchConfig archCfg, OpEnergies energies,
                           ExecutionConfig execCfg)
    : cfg(archCfg), ops(energies), exec(execCfg)
{
    phi_assert(cfg.tileK >= 1 && cfg.tileK <= 64,
               "tile k must be in [1,64]");
    phi_assert(static_cast<size_t>(cfg.simdWidth) == cfg.tileN,
               "SIMD width must equal the n tile size");
}

LayerSimResult
PhiSimulator::runLayer(const LayerTrace& layer) const
{
    const size_t m = layer.spec.m;
    const size_t k_total = layer.spec.k;
    const size_t n = layer.spec.n;
    const size_t partitions = layer.dec.numPartitions();
    phi_assert(layer.dec.m == m, "trace decomposition rows mismatch");

    const size_t m_tiles = ceilDiv(m, cfg.tileM);
    const size_t n_tiles = ceilDiv(n, cfg.tileN);
    // Pattern budget per partition: what the trace was calibrated
    // with, not the config default (the DSE sweeps it).
    size_t q = 0;
    for (size_t p = 0; p < layer.table.numPartitions(); ++p)
        q = std::max(q, layer.table.partition(p).size());
    q = std::max<size_t>(q, 1);
    const size_t idx_window = 16; // pattern indices examined per cycle

    LayerSimResult res;
    res.name = layer.spec.name;
    res.count = layer.spec.count;
    res.bitOps = static_cast<double>(layer.stats.bitOnes) *
                 static_cast<double>(n);
    res.denseOps = static_cast<double>(m) * k_total * n;

    // ------------------------------------------------------------------
    // L1 processor: per row, scan pattern indices in windows of 16
    // partitions; forward up to l1Channels PWPs per cycle.
    // ------------------------------------------------------------------
    uint64_t l1_cycles_one_pass = 0; // per n-tile pass
    uint64_t l1_psum_accesses = 0;
    const size_t groups = ceilDiv(partitions, idx_window);
    for (size_t r = 0; r < m; ++r) {
        for (size_t g = 0; g < groups; ++g) {
            size_t nnz = 0;
            const size_t p_end =
                std::min(partitions, (g + 1) * idx_window);
            for (size_t p = g * idx_window; p < p_end; ++p)
                if (layer.dec.tiles[p].patternIds[r] != 0)
                    ++nnz;
            uint64_t c = ceilDiv(nnz,
                                 static_cast<size_t>(cfg.l1Channels));
            if (!cfg.perfectL1Skip)
                c = std::max<uint64_t>(c, 1);
            l1_cycles_one_pass += c;
            if (nnz > 0)
                ++l1_psum_accesses; // one psum read-modify-write per
                                    // active window
        }
    }
    const double l1_cycles =
        static_cast<double>(l1_cycles_one_pass) * n_tiles;

    // ------------------------------------------------------------------
    // L2 processor: per m-tile, feed each row-tile's L2 entries from
    // the decomposition to the packer as a CompressedRow, in K-first
    // partition order; the pack stream repeats per n-tile.
    // ------------------------------------------------------------------
    uint64_t packs_total = 0;
    uint64_t pack_units_total = 0;
    uint64_t psum_units_total = 0;
    for (size_t mt = 0; mt < m_tiles; ++mt) {
        const size_t row_lo = mt * cfg.tileM;
        const size_t row_hi = std::min(m, row_lo + cfg.tileM);
        std::vector<bool> has_psum(row_hi - row_lo, false);

        uint64_t packs_tile = 0;
        Packer packer(cfg.packer, [&](Pack&& pack) {
            ++packs_tile;
            pack_units_total += static_cast<uint64_t>(pack.used());
            for (const auto& seg : pack.rows)
                if (seg.hasPsum)
                    ++psum_units_total;
        });

        for (size_t p = 0; p < partitions; ++p) {
            const TileDecomposition& tile = layer.dec.tiles[p];
            for (size_t r = row_lo; r < row_hi; ++r) {
                auto [lo, hi] = tile.rowRange(r);
                if (lo == hi)
                    continue;
                CompressedRow row;
                row.rowId = static_cast<uint32_t>(r);
                row.partition = static_cast<uint32_t>(p);
                row.needsPsum = has_psum[r - row_lo];
                for (uint32_t e = lo; e < hi; ++e)
                    row.entries.emplace_back(
                        tile.l2Entries[e].col,
                        tile.l2Entries[e].sign);
                packer.push(row);
                has_psum[r - row_lo] = true;
            }
        }
        packer.flush();
        packs_total += packs_tile;
    }
    const double l2_cycles =
        static_cast<double>(packs_total) * n_tiles;

    // ------------------------------------------------------------------
    // Preprocessor: matcher throughput over all row-tiles; overlapped
    // with compute (see DESIGN.md on self-attribution).
    // ------------------------------------------------------------------
    const double preproc_cycles =
        static_cast<double>(q) +
        static_cast<double>(m) * static_cast<double>(partitions) /
            cfg.matcherLanes;

    // ------------------------------------------------------------------
    // Spiking neuron array.
    // ------------------------------------------------------------------
    const double neuron_cycles =
        static_cast<double>(m) * static_cast<double>(n) /
        cfg.neuronLanes;

    // ------------------------------------------------------------------
    // DRAM traffic (per inference; weights/PWPs amortised over batch).
    // ------------------------------------------------------------------
    DramTraffic traffic;
    const double batch = static_cast<double>(cfg.batchSize);

    // L2 weight stream: every (k,n) weight tile per m-tile.
    traffic.weightBytes = static_cast<double>(k_total) * n *
                          cfg.weightElemBytes * m_tiles / batch;

    // PWPs: full-N pattern rows per (m-tile, partition); the
    // prefetcher fetches only patterns named by the index tile.
    PwpPrefetcher prefetcher;
    if (cfg.prefetchPwp) {
        for (size_t mt = 0; mt < m_tiles; ++mt) {
            const size_t row_lo = mt * cfg.tileM;
            const size_t row_hi = std::min(m, row_lo + cfg.tileM);
            for (size_t p = 0; p < partitions; ++p) {
                const auto& ids = layer.dec.tiles[p].patternIds;
                std::vector<uint16_t> tile_ids(
                    ids.begin() + static_cast<long>(row_lo),
                    ids.begin() + static_cast<long>(row_hi));
                prefetcher.analyzeTile(tile_ids, q);
            }
        }
        traffic.pwpBytes = static_cast<double>(
                               prefetcher.fetchedPatterns()) *
                           n * cfg.pwpElemBytes / batch;
    } else {
        traffic.pwpBytes = static_cast<double>(q) * partitions *
                           m_tiles * n * cfg.pwpElemBytes / batch;
    }

    // Activations in: compact pack stream + pattern indices, or the
    // uncompressed two-level representation (Fig. 12a).
    const double idx_bytes = static_cast<double>(m) * partitions *
                             cfg.patternIdBytes;
    if (cfg.compressActs) {
        // Compact index stream: a presence bitmap over row-tiles plus
        // one id byte per assigned tile (index density ~50%, Sec. 4.4).
        const double packed_idx_bytes =
            static_cast<double>(m) * partitions / 8.0 +
            static_cast<double>(layer.stats.assigned) *
                cfg.patternIdBytes;
        traffic.activationBytes =
            static_cast<double>(pack_units_total) * cfg.packUnitBytes +
            static_cast<double>(packs_total) * 4.0 /* metadata */ +
            packed_idx_bytes;
    } else {
        // Uncompressed two-level form: a 1-bit nonzero bitmap over the
        // element matrix, sign bits for the nonzeros, plus indices.
        traffic.activationBytes =
            static_cast<double>(m) * k_total / 8.0 +
            static_cast<double>(layer.dec.totalL2Nnz()) / 8.0 +
            idx_bytes;
    }

    // Output-stationarity is limited by the partial-sum buffer: the N
    // dimension is processed in chunks of n_chunk_cols columns. When
    // an m-tile's Level 2 stream does not fit on chip, it must be
    // re-streamed from DRAM once per chunk (Fig. 7d's buffer/DRAM
    // trade-off; at the paper's 240 KB complement no layer re-fetches).
    const double n_chunk_cols = std::max<double>(
        static_cast<double>(cfg.tileN),
        std::floor(static_cast<double>(cfg.psumBufBytes) /
                   static_cast<double>(cfg.tileM * cfg.psumElemBytes)));
    const double n_chunks =
        std::max(1.0, std::ceil(static_cast<double>(n) / n_chunk_cols));
    const double act_stream_per_mtile =
        traffic.activationBytes / static_cast<double>(m_tiles);
    const double act_hold_capacity = static_cast<double>(
        cfg.packBufBytes + cfg.patternIdBufBytes);
    if (act_stream_per_mtile > act_hold_capacity)
        traffic.refetchBytes =
            traffic.activationBytes * (n_chunks - 1.0);

    // Output spikes written back as a bitmap.
    traffic.outputBytes = static_cast<double>(m) * n / 8.0;

    const double dram_cycles =
        DramModel(cfg.dram).transferCycles(traffic.totalBytes(),
                                           cfg.freqHz);

    // ------------------------------------------------------------------
    // Assemble cycles: L1 and L2 run concurrently, synchronising per
    // output tile; preprocessing, neurons and DRAM overlap compute.
    // ------------------------------------------------------------------
    const double sync_cycles =
        2.0 * static_cast<double>(m_tiles) * n_tiles;
    const double compute =
        std::max(l1_cycles, l2_cycles) + sync_cycles;
    const double bound = std::max(
        {compute, preproc_cycles, neuron_cycles, dram_cycles});

    res.breakdown.l1 = l1_cycles;
    res.breakdown.l2 = l2_cycles;
    res.breakdown.compute = compute;
    res.breakdown.preprocess = preproc_cycles;
    res.breakdown.neuron = neuron_cycles;
    res.breakdown.dram = dram_cycles;
    res.breakdown.bound = bound;
    res.cycles = bound;
    res.traffic = traffic;

    // ------------------------------------------------------------------
    // Energy.
    // ------------------------------------------------------------------
    const double assigned = static_cast<double>(layer.stats.assigned);
    const double l2_nnz = static_cast<double>(layer.dec.totalL2Nnz());

    // Core: L1 PWP accumulations, L2 unit accumulations (incl. psum
    // units), matcher comparisons, dispatch, LIF updates.
    const double l1_adds = assigned * n;
    const double l2_adds =
        (l2_nnz + static_cast<double>(psum_units_total)) * n;
    const double matcher_cmps = static_cast<double>(m) * partitions *
                                (static_cast<double>(q) + 1.0);
    EnergyBreakdownPj e;
    e.core = (l1_adds + l2_adds) * ops.add16 +
             matcher_cmps * ops.patternCompare +
             static_cast<double>(pack_units_total) * n_tiles *
                 ops.dispatch +
             static_cast<double>(m) * n * ops.lifUpdate;

    // Buffers: account bytes moved through each named buffer.
    SramBuffer weight_buf("weight", cfg.weightBufBytes);
    SramBuffer pwp_buf("pwp", cfg.pwpBufBytes);
    SramBuffer psum_buf("psum", cfg.psumBufBytes);
    SramBuffer pack_buf("pack", cfg.packBufBytes);
    SramBuffer id_buf("pattern_id", cfg.patternIdBufBytes);

    weight_buf.write(static_cast<uint64_t>(traffic.weightBytes * batch));
    weight_buf.read(static_cast<uint64_t>(l2_nnz * cfg.tileN *
                                          cfg.weightElemBytes));
    pwp_buf.write(static_cast<uint64_t>(traffic.pwpBytes * batch));
    pwp_buf.read(static_cast<uint64_t>(assigned * n *
                                       cfg.pwpElemBytes));
    psum_buf.read(static_cast<uint64_t>(
        (static_cast<double>(l1_psum_accesses) +
         static_cast<double>(psum_units_total)) *
        n_tiles * cfg.tileN * cfg.psumElemBytes));
    psum_buf.write(static_cast<uint64_t>(
        (static_cast<double>(l1_psum_accesses) +
         static_cast<double>(packs_total)) *
        n_tiles * cfg.tileN * cfg.psumElemBytes));
    pack_buf.write(static_cast<uint64_t>(
        static_cast<double>(pack_units_total) * cfg.packUnitBytes));
    pack_buf.read(static_cast<uint64_t>(
        static_cast<double>(pack_units_total) * n_tiles *
        cfg.packUnitBytes));
    id_buf.write(static_cast<uint64_t>(idx_bytes));
    id_buf.read(static_cast<uint64_t>(idx_bytes * (1.0 + n_tiles)));

    const double seconds = bound / cfg.freqHz;
    e.buffer = weight_buf.dynamicEnergyPj() + pwp_buf.dynamicEnergyPj() +
               psum_buf.dynamicEnergyPj() + pack_buf.dynamicEnergyPj() +
               id_buf.dynamicEnergyPj();
    // Buffer + logic leakage over the layer runtime.
    const double buf_kib =
        static_cast<double>(cfg.totalBufferBytes()) / 1024.0;
    e.buffer += SramModel::leakageMw(buf_kib) * seconds * 1e9;
    e.core += PhiAreaPowerModel(cfg).logicLeakageMw() * seconds * 1e9;

    DramModel dram(cfg.dram);
    e.dram = dram.dynamicEnergyPj(traffic.totalBytes()) +
             dram.staticEnergyPj(seconds);

    res.energy = e;
    return res;
}

SimResult
PhiSimulator::run(const ModelTrace& trace) const
{
    SimResult result;
    result.arch = name();
    result.workload = modelName(trace.spec.model) + "/" +
                      datasetName(trace.spec.dataset);
    result.freqHz = cfg.freqHz;

    // Unique layers are independent: simulate them in parallel, then
    // accumulate sequentially in layer order (float sums stay
    // bit-identical at any thread count).
    std::vector<LayerSimResult> layerResults(trace.layers.size());
    parallelFor(exec, 0, trace.layers.size(), 1,
                [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            layerResults[i] = runLayer(trace.layers[i]);
    });

    for (size_t i = 0; i < trace.layers.size(); ++i) {
        LayerSimResult lr = std::move(layerResults[i]);
        const double c =
            static_cast<double>(trace.layers[i].spec.count);
        lr.cycles *= c;
        lr.energy.core *= c;
        lr.energy.buffer *= c;
        lr.energy.dram *= c;
        lr.traffic.weightBytes *= c;
        lr.traffic.pwpBytes *= c;
        lr.traffic.activationBytes *= c;
        lr.traffic.refetchBytes *= c;
        lr.traffic.outputBytes *= c;
        lr.bitOps *= c;
        lr.denseOps *= c;

        result.cycles += lr.cycles;
        result.energy += lr.energy;
        result.traffic += lr.traffic;
        result.bitOps += lr.bitOps;
        result.denseOps += lr.denseOps;
        result.layers.push_back(std::move(lr));
    }
    return result;
}

Matrix<int32_t>
emulateDatapath(const LayerTrace& layer, const PhiArchConfig& cfg,
                const ExecutionConfig& exec)
{
    phi_assert(!layer.weights.empty(),
               "datapath emulation requires trace weights");
    const size_t m = layer.spec.m;
    const size_t n = layer.spec.n;
    const int k = layer.dec.k;
    Matrix<int32_t> out(m, n, 0);

    // L1: gather PWP rows by pattern id, row-parallel (disjoint rows).
    auto pwps = computeLayerPwps(layer.table, layer.weights, exec);
    parallelFor(exec, 0, m, 64, [&](size_t r0, size_t r1) {
        for (const auto& tile : layer.dec.tiles) {
            const auto& pwp = pwps[tile.partition];
            for (size_t r = r0; r < r1; ++r) {
                if (tile.patternIds[r] == 0)
                    continue;
                const int32_t* src = pwp.rowPtr(tile.patternIds[r] - 1);
                int32_t* dst = out.rowPtr(r);
                for (size_t c = 0; c < n; ++c)
                    dst[c] += src[c];
            }
        }
    });

    // L2: stream packs through dispatcher + reconfigurable adder tree
    // per n-tile, maintaining a real psum store. Every (n-tile, m-tile)
    // pair touches a disjoint output block, so the grid runs in
    // parallel with all pack/psum state local to a grid cell.
    const size_t n_tiles = ceilDiv(n, cfg.tileN);
    const size_t m_tiles = ceilDiv(m, cfg.tileM);

    parallelFor(exec, 0, n_tiles * m_tiles, 1,
                [&](size_t t0, size_t t1) {
        for (size_t t = t0; t < t1; ++t) {
            const size_t nt = t / m_tiles;
            const size_t mt = t % m_tiles;
            const size_t col_lo = nt * cfg.tileN;
            const size_t col_hi = std::min(n, col_lo + cfg.tileN);
            const size_t width = col_hi - col_lo;

            const size_t row_lo = mt * cfg.tileM;
            const size_t row_hi = std::min(m, row_lo + cfg.tileM);

            // psum[row] for this (m,n) tile.
            Matrix<int32_t> psums(row_hi - row_lo, cfg.tileN, 0);
            std::vector<bool> has_psum(row_hi - row_lo, false);

            ReconfigurableAdderTree tree(cfg.tileN);
            std::vector<Pack> packs;
            Packer packer(cfg.packer, [&](Pack&& p) {
                packs.push_back(std::move(p));
            });

            for (size_t p = 0; p < layer.dec.numPartitions(); ++p) {
                const TileDecomposition& tile = layer.dec.tiles[p];
                for (size_t r = row_lo; r < row_hi; ++r) {
                    auto [lo, hi] = tile.rowRange(r);
                    if (lo == hi)
                        continue;
                    CompressedRow row;
                    row.rowId = static_cast<uint32_t>(r);
                    row.partition = static_cast<uint32_t>(p);
                    row.needsPsum = has_psum[r - row_lo];
                    for (uint32_t e2 = lo; e2 < hi; ++e2)
                        row.entries.emplace_back(
                            tile.l2Entries[e2].col,
                            tile.l2Entries[e2].sign);
                    packer.push(row);
                    has_psum[r - row_lo] = true;
                }
            }
            packer.flush();

            for (const auto& pack : packs) {
                // Dispatcher (Fig. 5 step 4): prepare one adder-tree
                // input per unit — weight rows (negated for -1) or
                // psums read from the store.
                Matrix<int32_t> inputs(
                    ReconfigurableAdderTree::numChannels, cfg.tileN, 0);
                size_t ch = 0;
                size_t unit_idx = 0;
                // Map psum slot -> rowId for psum units, in order.
                std::vector<uint32_t> psum_rows;
                for (const auto& seg : pack.rows)
                    if (seg.hasPsum)
                        psum_rows.push_back(seg.rowId);

                size_t psum_slot_seen = 0;
                for (const auto& seg : pack.rows) {
                    for (uint8_t u = 0; u < seg.unitCount;
                         ++u, ++unit_idx, ++ch) {
                        const PackUnit& unit = pack.units[unit_idx];
                        if (unit.label == PackUnit::Label::Psum) {
                            phi_assert(unit.index == psum_slot_seen,
                                       "psum slot order violated");
                            ++psum_slot_seen;
                            const size_t rr = seg.rowId - row_lo;
                            for (size_t c = 0; c < width; ++c)
                                inputs(ch, c) = psums(rr, c);
                            // Psum consumed: it will be rewritten by
                            // this pack's output.
                            for (size_t c = 0; c < width; ++c)
                                psums(rr, c) = 0;
                        } else {
                            const size_t wk =
                                seg.partition *
                                    static_cast<size_t>(k) +
                                unit.index;
                            phi_assert(wk < layer.weights.rows(),
                                       "weight row out of range");
                            for (size_t c = 0; c < width; ++c) {
                                int32_t v = layer.weights(
                                    wk, col_lo + c);
                                inputs(ch, c) =
                                    unit.value > 0 ? v : -v;
                            }
                        }
                    }
                }

                auto sums = tree.reduce(inputs, pack.segments());
                phi_assert(sums.size() == pack.rows.size(),
                           "adder tree segment count mismatch");
                for (size_t s = 0; s < sums.size(); ++s) {
                    const size_t rr = pack.rows[s].rowId - row_lo;
                    for (size_t c = 0; c < width; ++c)
                        psums(rr, c) += sums[s][c];
                }
            }

            // Drain psums into the output tile.
            for (size_t r = row_lo; r < row_hi; ++r)
                for (size_t c = 0; c < width; ++c)
                    out(r, col_lo + c) += psums(r - row_lo, c);
        }
    });
    return out;
}

} // namespace phi
