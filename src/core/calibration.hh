/**
 * @file
 * Phi calibration stage (Sec. 3.2): derive per-partition pattern sets
 * from a small set of sample activation matrices.
 */

#ifndef PHI_CORE_CALIBRATION_HH
#define PHI_CORE_CALIBRATION_HH

#include <vector>

#include "core/kmeans.hh"
#include "core/pattern.hh"
#include "numeric/binary_matrix.hh"

namespace phi
{

/** Knobs of the calibration stage. */
struct CalibrationConfig
{
    /** Partition (row-tile) width in bits (paper: 16). */
    int k = 16;
    /** Patterns per partition (paper: 128; at most
     *  kMaxPatternsPerPartition). */
    int q = 128;
    /** Clustering parameters; numClusters is overwritten with q. */
    KMeansConfig kmeans;
    /**
     * Cap on rows sampled per partition across all calibration matrices;
     * the paper notes a small calibration subset suffices (Sec. 3.2).
     * 0 disables the cap.
     */
    size_t maxRowsPerPartition = 16384;
    /**
     * Execution engine knobs: partitions calibrate in parallel (each is
     * fully independent), and the same config feeds the clustering's
     * own sweeps. Results are identical at any thread count.
     */
    ExecutionConfig exec;
};

/**
 * Calibrate a pattern table for one layer from sample activations.
 *
 * All samples must share the same column count. Rows are pooled across
 * samples per partition, reduced to a multiplicity histogram, and
 * clustered with BinaryKMeans.
 */
PatternTable calibrateLayer(
    const std::vector<const BinaryMatrix*>& samples,
    const CalibrationConfig& cfg);

/** Convenience overload for a single calibration matrix. */
PatternTable calibrateLayer(const BinaryMatrix& sample,
                            const CalibrationConfig& cfg);

} // namespace phi

#endif // PHI_CORE_CALIBRATION_HH
