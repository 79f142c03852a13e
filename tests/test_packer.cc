/**
 * @file
 * Tests for the L2 multi-window packer's invariants (capacity,
 * bank-conflict freedom, exactly-once packing, split handling).
 */

#include <gtest/gtest.h>

#include <map>

#include "arch/packer.hh"
#include "common/rng.hh"

namespace phi
{
namespace
{

CompressedRow
makeRow(uint32_t row_id, int nnz, bool psum = false,
        uint32_t partition = 0)
{
    CompressedRow r;
    r.rowId = row_id;
    r.partition = partition;
    r.needsPsum = psum;
    for (int i = 0; i < nnz; ++i)
        r.entries.emplace_back(static_cast<uint16_t>(i),
                               static_cast<int8_t>(i % 2 ? -1 : 1));
    return r;
}

struct PackCollector
{
    std::vector<Pack> packs;
    Packer::Sink
    sink()
    {
        return [this](Pack&& p) { packs.push_back(std::move(p)); };
    }
};

TEST(Packer, FillsPackToCapacityThenEmits)
{
    PackCollector col;
    Packer packer({1, 8}, col.sink());
    packer.push(makeRow(0, 4));
    packer.push(makeRow(1, 4));
    ASSERT_EQ(col.packs.size(), 1u);
    EXPECT_EQ(col.packs[0].used(), 8);
    EXPECT_EQ(col.packs[0].rows.size(), 2u);
}

TEST(Packer, FlushEmitsPartialPacks)
{
    PackCollector col;
    Packer packer({2, 8}, col.sink());
    packer.push(makeRow(0, 2));
    EXPECT_TRUE(col.packs.empty());
    packer.flush();
    ASSERT_EQ(col.packs.size(), 1u);
    EXPECT_EQ(col.packs[0].used(), 2);
}

TEST(Packer, PsumUnitsOccupySlots)
{
    PackCollector col;
    Packer packer({1, 8}, col.sink());
    packer.push(makeRow(0, 3, true));
    packer.flush();
    ASSERT_EQ(col.packs.size(), 1u);
    EXPECT_EQ(col.packs[0].used(), 4);
    int psums = 0;
    for (const auto& u : col.packs[0].units)
        if (u.label == PackUnit::Label::Psum)
            ++psums;
    EXPECT_EQ(psums, 1);
    EXPECT_TRUE(col.packs[0].rows[0].hasPsum);
}

TEST(Packer, BankConflictSeparatesRows)
{
    // Rows 0 and 8 share psum bank (8 banks): they must not share a
    // pack even though space allows it.
    PackCollector col;
    Packer packer({4, 8}, col.sink());
    packer.push(makeRow(0, 2));
    packer.push(makeRow(8, 2));
    packer.flush();
    ASSERT_EQ(col.packs.size(), 2u);
    for (const auto& p : col.packs) {
        std::map<uint32_t, int> banks;
        for (const auto& seg : p.rows)
            ++banks[seg.rowId % 8];
        for (const auto& [bank, cnt] : banks)
            EXPECT_EQ(cnt, 1) << "bank conflict within a pack";
    }
    EXPECT_GT(packer.stats().conflictRejects, 0u);
}

TEST(Packer, DifferentBanksShareAPack)
{
    PackCollector col;
    Packer packer({4, 8}, col.sink());
    packer.push(makeRow(0, 2));
    packer.push(makeRow(1, 2));
    packer.push(makeRow(2, 2));
    packer.push(makeRow(3, 2));
    packer.flush();
    ASSERT_EQ(col.packs.size(), 1u);
    EXPECT_EQ(col.packs[0].rows.size(), 4u);
}

TEST(Packer, EvictsFullestWindowWhenStuck)
{
    // One window; incoming row doesn't fit -> fullest evicted.
    PackCollector col;
    Packer packer({1, 8}, col.sink());
    packer.push(makeRow(0, 5));
    packer.push(makeRow(1, 5));
    EXPECT_EQ(col.packs.size(), 1u);
    EXPECT_EQ(packer.stats().evictions, 1u);
    packer.flush();
    EXPECT_EQ(col.packs.size(), 2u);
}

TEST(Packer, SplitsOversizedRows)
{
    PackCollector col;
    Packer packer({2, 8}, col.sink());
    packer.push(makeRow(0, 13)); // > capacity
    packer.flush();
    EXPECT_EQ(packer.stats().splitRows, 1u);
    // All 13 weight units present; chained chunks carry psum units.
    int weight_units = 0;
    for (const auto& p : col.packs)
        for (const auto& u : p.units)
            if (u.label == PackUnit::Label::Weight)
                ++weight_units;
    EXPECT_EQ(weight_units, 13);
}

TEST(Packer, ExactlyOnceAndCapacityInvariants)
{
    // Fuzz: random rows; verify every entry lands in exactly one pack
    // unit, capacity never exceeded, and per-pack banks are distinct.
    Rng rng(9);
    PackCollector col;
    Packer packer({4, 8}, col.sink());
    std::map<std::pair<uint32_t, uint32_t>, int> expected;
    for (int i = 0; i < 500; ++i) {
        uint32_t row_id = static_cast<uint32_t>(rng.nextBounded(256));
        int nnz = 1 + static_cast<int>(rng.nextBounded(4));
        uint32_t part = static_cast<uint32_t>(rng.nextBounded(16));
        CompressedRow r = makeRow(row_id, nnz,
                                  rng.bernoulli(0.3), part);
        expected[{row_id, part}] +=
            static_cast<int>(r.entries.size());
        packer.push(r);
    }
    packer.flush();

    std::map<std::pair<uint32_t, uint32_t>, int> got;
    for (const auto& p : col.packs) {
        EXPECT_LE(p.used(), Pack::capacity);
        size_t unit_sum = 0;
        std::map<int, int> banks;
        for (const auto& seg : p.rows) {
            unit_sum += seg.unitCount;
            ++banks[static_cast<int>(seg.rowId % 8)];
        }
        EXPECT_EQ(unit_sum, p.units.size());
        for (const auto& [bank, cnt] : banks)
            EXPECT_LE(cnt, 1);

        size_t idx = 0;
        for (const auto& seg : p.rows)
            for (uint8_t u = 0; u < seg.unitCount; ++u, ++idx)
                if (p.units[idx].label == PackUnit::Label::Weight)
                    got[{seg.rowId, seg.partition}] += 1;
    }
    EXPECT_EQ(got, expected);
}

TEST(Packer, OccupancyStatIsBounded)
{
    Rng rng(10);
    PackCollector col;
    Packer packer({4, 8}, col.sink());
    for (int i = 0; i < 200; ++i)
        packer.push(makeRow(static_cast<uint32_t>(i), 1 + (i % 3)));
    packer.flush();
    const double occ = packer.stats().avgOccupancy();
    EXPECT_GT(occ, 0.3);
    EXPECT_LE(occ, 1.0);
}

} // namespace
} // namespace phi
