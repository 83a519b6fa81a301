/**
 * @file
 * Unit tests for DirectTable, the direct-indexed table behind the
 * simulator's dense key maps: leaves allocate only on the first write
 * into their span, read as the empty value, and reads of missing or
 * out-of-range keys never allocate.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/alloc_hook.hh"
#include "sim/direct_table.hh"
#include "sim/logging.hh"

namespace hams {
namespace {

constexpr std::uint64_t unmapped = ~std::uint64_t(0);

TEST(DirectTable, LeafSpansFourKiB)
{
    EXPECT_EQ(DirectTable<std::uint64_t>::leafEntries, 512u);
    EXPECT_EQ(DirectTable<std::int32_t>::leafEntries, 1024u);
    struct Pair
    {
        std::uint32_t a, b;
    };
    EXPECT_EQ(DirectTable<Pair>::leafEntries, 512u);
}

TEST(DirectTable, LeafAllocatesOnlyOnWrite)
{
    DirectTable<std::uint64_t> t(1 << 20, unmapped);
    alloc_hook::AllocCounter allocs;
    EXPECT_EQ(t.get(5), unmapped);
    EXPECT_EQ(t.find(5), nullptr);
    EXPECT_EQ(allocs.delta(), 0u) << "reads allocate nothing";

    t.at(5) = 7;
    EXPECT_EQ(allocs.delta(), 1u) << "the first write allocates its leaf";
    t.at(6) = 8;
    t.at(511) = 9;
    t.at(5) = 10;
    EXPECT_EQ(allocs.delta(), 1u) << "writes into that leaf reuse it";
    t.at(512) = 11;
    EXPECT_EQ(allocs.delta(), 2u) << "the next span has its own leaf";

    EXPECT_EQ(t.get(5), 10u);
    EXPECT_EQ(t.get(6), 8u);
    EXPECT_EQ(t.get(511), 9u);
    EXPECT_EQ(t.get(512), 11u);
}

TEST(DirectTable, IndexReachesEveryEntryOfAnAllocatedLeaf)
{
    DirectTable<std::uint64_t> t(1 << 20, unmapped);
    t.at(1024 + 3) = 4;
    alloc_hook::AllocCounter allocs;
    EXPECT_EQ(t[1024 + 3], 4u);
    EXPECT_EQ(t[1024 + 4], unmapped) << "the leaf's other keys read empty";
    t[1024 + 511] = 5;
    EXPECT_EQ(t.get(1024 + 511), 5u);
    EXPECT_EQ(&t[1024 + 3], t.find(1024 + 3));
    EXPECT_EQ(allocs.delta(), 0u);
}

TEST(DirectTable, NewLeafReadsAsEmpty)
{
    DirectTable<std::int32_t> t(1 << 16, -1);
    t.at(2048 + 17) = 3;
    const auto& ct = t;
    for (std::uint64_t k = 2048; k < 2048 + t.leafEntries; ++k) {
        ASSERT_NE(ct.find(k), nullptr) << "key " << k;
        ASSERT_EQ(t.get(k), k == 2048 + 17 ? 3 : -1) << "key " << k;
    }
    EXPECT_EQ(t.find(2047), nullptr);
    EXPECT_EQ(t.find(2048 + t.leafEntries), nullptr);
}

TEST(DirectTable, MissingAndOutOfRangeKeysReadEmptyWithoutAllocating)
{
    // 1000 keys: the last leaf also spans keys beyond the key space.
    DirectTable<std::uint64_t> t(1000, unmapped);
    t.at(999) = 1;
    const auto& ct = t;
    alloc_hook::AllocCounter allocs;
    for (std::uint64_t key : {std::uint64_t(0), std::uint64_t(511),
                              std::uint64_t(1000), std::uint64_t(1023),
                              std::uint64_t(1024), std::uint64_t(1) << 40,
                              ~std::uint64_t(0)}) {
        EXPECT_EQ(t.get(key), unmapped) << "key " << key;
        EXPECT_EQ(t.find(key), nullptr) << "key " << key;
        EXPECT_EQ(ct.find(key), nullptr) << "key " << key;
    }
    EXPECT_EQ(allocs.delta(), 0u);
    EXPECT_EQ(t.get(999), 1u);
}

TEST(DirectTable, AtBeyondKeySpaceIsFatal)
{
    DirectTable<std::uint64_t> t(1000, unmapped);
    for (std::uint64_t key : {std::uint64_t(1000), std::uint64_t(1023),
                              std::uint64_t(1) << 40}) {
        try {
            t.at(key) = 1;
            FAIL() << "key " << key << " was accepted";
        } catch (const FatalError& e) {
            std::string what = e.what();
            EXPECT_NE(what.find(std::to_string(key)), std::string::npos)
                << what;
            EXPECT_NE(what.find("1000-key space"), std::string::npos)
                << what;
        }
    }
    EXPECT_EQ(t.find(1000), nullptr);
    EXPECT_THROW(DirectTable<std::uint64_t>().at(0), FatalError);
}

TEST(DirectTable, ClearEmptiesEveryEntryAndKeepsLeaves)
{
    DirectTable<std::uint32_t> t(4096, 0);
    for (std::uint64_t k = 0; k < 4096; k += 3)
        t.at(k) = std::uint32_t(k + 1);
    t.clear();
    alloc_hook::AllocCounter allocs;
    for (std::uint64_t k = 0; k < 4096; ++k)
        ASSERT_EQ(t.get(k), 0u) << "key " << k;
    for (std::uint64_t k = 0; k < 4096; k += 3)
        t.at(k) = 1;
    EXPECT_EQ(allocs.delta(), 0u) << "cleared leaves are reused";
}

} // namespace
} // namespace hams
