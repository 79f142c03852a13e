/**
 * @file
 * Pattern containers for Phi's Level 1 vector sparsity.
 *
 * A pattern is a k-bit binary vector (k <= 64) calibrated offline for one
 * K-dimension partition of one layer. Pattern index 0 is reserved for
 * "no pattern assigned"; pattern i (1-based) lives at patterns()[i-1].
 */

#ifndef PHI_CORE_PATTERN_HH
#define PHI_CORE_PATTERN_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace phi
{

/** Most patterns one partition may hold: ids are uint16_t, and id 0
 *  means "no pattern". */
inline constexpr size_t kMaxPatternsPerPartition = 65535;

/** The calibrated pattern set of a single (layer, partition). */
class PatternSet
{
  public:
    PatternSet() : kBits(16) {}

    PatternSet(int k, std::vector<uint64_t> patternBits)
        : kBits(k), pats(std::move(patternBits))
    {
        phi_assert(k >= 1 && k <= 64, "pattern length must be in [1,64]");
        for (auto& p : this->pats)
            p &= lowMask(k);
    }

    int k() const { return kBits; }
    size_t size() const { return pats.size(); }
    bool empty() const { return pats.empty(); }

    /** Pattern bits by 1-based id (id 0 is "none" and not addressable). */
    uint64_t
    bitsOf(uint16_t id) const
    {
        phi_assert(id >= 1 && id <= pats.size(),
                   "pattern id ", id, " out of range 1..", pats.size());
        return pats[id - 1];
    }

    const std::vector<uint64_t>& patterns() const { return pats; }

  private:
    int kBits;
    std::vector<uint64_t> pats;
};

/** Per-layer table: one PatternSet per K-dimension partition. */
class PatternTable
{
  public:
    PatternTable() : kBits(16) {}

    PatternTable(int k, std::vector<PatternSet> partitionSets)
        : kBits(k), parts(std::move(partitionSets))
    {
        for (const auto& ps : this->parts)
            phi_assert(ps.k() == k, "partition pattern length mismatch");
    }

    int k() const { return kBits; }
    size_t numPartitions() const { return parts.size(); }

    const PatternSet&
    partition(size_t p) const
    {
        phi_assert(p < parts.size(), "partition ", p, " out of ",
                   parts.size());
        return parts[p];
    }

    /** Total number of stored patterns across partitions. */
    size_t
    totalPatterns() const
    {
        size_t n = 0;
        for (const auto& ps : parts)
            n += ps.size();
        return n;
    }

  private:
    int kBits;
    std::vector<PatternSet> parts;
};

} // namespace phi

#endif // PHI_CORE_PATTERN_HH
