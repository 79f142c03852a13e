/**
 * @file
 * The Preprocessor's pattern matcher (Fig. 4a).
 *
 * Functionally: broadcast a spike row-tile to all matcher units, XOR
 * against each stored pattern, popcount the difference and the raw row,
 * take the minimum — yielding the Level 1 pattern id and the Level 2
 * sparse row. That function is PatternAssigner's; this class adds the
 * architecture on top of it: a 1-D systolic pipeline of q units with a
 * throughput of `lanes` row-tiles per cycle and a fill latency of q.
 */

#ifndef PHI_ARCH_PATTERN_MATCHER_HH
#define PHI_ARCH_PATTERN_MATCHER_HH

#include <cstdint>
#include <vector>

#include "common/parallel.hh"
#include "core/decompose.hh"
#include "core/pattern.hh"

namespace phi
{

/** Timing model of the systolic pattern matcher over the assigner. */
class PatternMatcher
{
  public:
    /**
     * @param ps     patterns pre-loaded for the current partition.
     * @param lanes  row-tiles matched per cycle (throughput).
     */
    explicit PatternMatcher(const PatternSet& ps, int lanes = 8);

    /** Match one row-tile (PatternAssigner::assign). */
    RowAssignment match(uint64_t row) const { return assigner.assign(row); }

    /**
     * Match a batch of row-tiles on the exec.isa backend with a
     * parallel sweep; each row's result equals match(row) at any
     * thread count and on any backend.
     */
    std::vector<RowAssignment> matchAll(
        const std::vector<uint64_t>& rows,
        const ExecutionConfig& exec = {}) const;

    /** Cycles to stream `rows` row-tiles through the pipeline. */
    uint64_t
    cycles(uint64_t rows) const
    {
        if (rows == 0)
            return 0;
        // Fill latency of the systolic pipe + streaming throughput.
        return pipelineDepth +
               (rows + static_cast<uint64_t>(lanes) - 1) /
                   static_cast<uint64_t>(lanes);
    }

    /** Pattern comparisons per matched row (energy accounting). */
    size_t
    comparisonsPerRow() const
    {
        return assigner.patternSet().size() + 1;
    }

    int numLanes() const { return lanes; }

  private:
    PatternAssigner assigner;
    int lanes;
    uint64_t pipelineDepth;
};

} // namespace phi

#endif // PHI_ARCH_PATTERN_MATCHER_HH
