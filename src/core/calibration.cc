#include "core/calibration.hh"

#include <algorithm>
#include <unordered_map>

namespace phi
{

PatternTable
calibrateLayer(const std::vector<const BinaryMatrix*>& samples,
               const CalibrationConfig& cfg)
{
    phi_assert(!samples.empty(), "calibration needs at least one sample");
    const size_t cols = samples.front()->cols();
    for (const auto* s : samples)
        phi_assert(s->cols() == cols,
                   "calibration samples disagree on column count");

    // Pattern ids are uint16_t with 0 reserved.
    phi_assert(cfg.q >= 0 &&
               static_cast<size_t>(cfg.q) <= kMaxPatternsPerPartition,
               "q = ", cfg.q, " patterns per partition outside [0, ",
               kMaxPatternsPerPartition, "]");
    const int k = cfg.k;
    const size_t partitions = ceilDiv(cols, static_cast<size_t>(k));

    KMeansConfig km = cfg.kmeans;
    km.numClusters = cfg.q;
    km.exec = cfg.exec;
    BinaryKMeans clustering(km);

    // Deterministic row subsampling when the pooled sample exceeds the
    // per-partition cap: take every ceil(total/cap)-th row.
    size_t total_rows = 0;
    for (const auto* s : samples)
        total_rows += s->rows();
    size_t stride = 1;
    if (cfg.maxRowsPerPartition > 0 &&
        total_rows > cfg.maxRowsPerPartition)
        stride = ceilDiv(total_rows, cfg.maxRowsPerPartition);

    // Partitions are fully independent: parallel sweep with disjoint
    // writes, one calibrated PatternSet per slot.
    std::vector<PatternSet> parts(partitions);
    parallelFor(cfg.exec, 0, partitions, 1, [&](size_t p0, size_t p1) {
        for (size_t p = p0; p < p1; ++p) {
            const size_t start = p * static_cast<size_t>(k);
            std::unordered_map<uint64_t, uint64_t> counts;
            for (const auto* s : samples)
                for (size_t r = 0; r < s->rows(); r += stride)
                    ++counts[s->extract(r, start, k)];

            std::vector<WeightedRow> hist(counts.begin(), counts.end());
            std::sort(hist.begin(), hist.end());
            parts[p] = clustering.fit(hist, k);
        }
    });
    return PatternTable(k, std::move(parts));
}

PatternTable
calibrateLayer(const BinaryMatrix& sample, const CalibrationConfig& cfg)
{
    std::vector<const BinaryMatrix*> samples{&sample};
    return calibrateLayer(samples, cfg);
}

} // namespace phi
