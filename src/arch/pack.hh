/**
 * @file
 * The compact Level 2 data structure (Sec. 4.2.2).
 *
 * A pack holds up to 8 units; each unit is either a nonzero element
 * (label = Weight: accumulate a weight row, possibly negated) or a
 * partial sum carried over from a previous partition (label = Psum).
 * Metadata records the per-row segmentation that configures the
 * reconfigurable adder tree.
 */

#ifndef PHI_ARCH_PACK_HH
#define PHI_ARCH_PACK_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace phi
{

/** One unit of a pack. */
struct PackUnit
{
    enum class Label : uint8_t { Weight, Psum };

    Label label = Label::Weight;
    /** Weight: column index within the partition (0..k).
     *  Psum: index of the partial sum among the pack's psum slots. */
    uint16_t index = 0;
    /** +1 or -1 for weights; psums are always accumulated (+1). */
    int8_t value = 1;
};

/** A row segment inside a pack (adder tree configuration metadata). */
struct PackRowSeg
{
    uint32_t rowId = 0;    // global activation row
    uint32_t partition = 0; // K partition the weight indices refer to
    uint8_t unitCount = 0; // units owned by this row
    bool hasPsum = false;  // one of the units is a carried partial sum
};

/** A fixed-capacity pack of Level 2 work. A pack may mix rows from
 *  different partitions; each segment records its own partition. */
struct Pack
{
    static constexpr int capacity = 8;

    std::vector<PackUnit> units;
    std::vector<PackRowSeg> rows;

    int used() const { return static_cast<int>(units.size()); }
    int freeSpace() const { return capacity - used(); }
    bool empty() const { return units.empty(); }

    /** Adder tree segment configuration: unit count per row. */
    std::vector<int>
    segments() const
    {
        std::vector<int> segs;
        segs.reserve(rows.size());
        for (const auto& r : rows)
            segs.push_back(r.unitCount);
        return segs;
    }
};

/** One row-tile's Level 2 correction entries, as the packer takes
 *  them: the decomposition's L2 entries for that row and partition. */
struct CompressedRow
{
    uint32_t rowId = 0;
    uint32_t partition = 0;
    /** Column/sign pairs, ascending column. */
    std::vector<std::pair<uint16_t, int8_t>> entries;
    /** True when the row already holds a partial sum from an earlier
     *  partition of the current K traversal. */
    bool needsPsum = false;

    int unitsNeeded() const
    {
        return static_cast<int>(entries.size()) + (needsPsum ? 1 : 0);
    }
};

} // namespace phi

#endif // PHI_ARCH_PACK_HH
