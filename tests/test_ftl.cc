/**
 * @file
 * FTL tests: mapping lifecycle, striping, garbage collection under
 * pressure, over-provisioning, TRIM, wear leveling and the geometry
 * the GC watermarks need.
 */

#include <gtest/gtest.h>

#include <set>

#include "flash/fil.hh"
#include "ftl/page_ftl.hh"
#include "sim/logging.hh"

#include "ftl_shadow_model.hh"

namespace hams {
namespace {

using testing_support::tinyGeom;

struct FtlFixture : public ::testing::Test
{
    FtlFixture()
        : fil(tinyGeom(), NandTiming::zNand()), ftl(tinyGeom(), fil)
    {
    }
    Fil fil;
    PageFtl ftl;
};

TEST_F(FtlFixture, ExportsCapacityMinusOverProvision)
{
    FlashGeometry g = tinyGeom();
    EXPECT_LT(ftl.logicalPages(), g.totalPages());
    EXPECT_GT(ftl.logicalPages(), g.totalPages() * 0.9);
}

TEST_F(FtlFixture, UnmappedReadReturnsImmediately)
{
    Tick t = ftl.readPage(3, 2048, 1000);
    EXPECT_EQ(t, 1000u);
    EXPECT_FALSE(ftl.isMapped(3));
}

TEST_F(FtlFixture, WriteCreatesMapping)
{
    ftl.writePage(5, 2048, 0);
    EXPECT_TRUE(ftl.isMapped(5));
}

TEST_F(FtlFixture, MappedReadCostsFlashTime)
{
    Tick w = ftl.writePage(5, 2048, 0);
    Tick r = ftl.readPage(5, 2048, w);
    EXPECT_GE(r - w, NandTiming::zNand().tR);
}

TEST_F(FtlFixture, OverwriteRemapsToFreshPage)
{
    ftl.writePage(7, 2048, 0);
    std::uint64_t first = ftl.physicalOf(7);
    ftl.writePage(7, 2048, 0);
    EXPECT_NE(ftl.physicalOf(7), first);
}

TEST_F(FtlFixture, ConsecutiveWritesStripeAcrossUnits)
{
    FlashGeometry g = tinyGeom();
    std::set<std::uint64_t> units;
    Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < g.parallelUnits(); ++lpn) {
        t = ftl.writePage(lpn, 2048, t);
        FlashAddress a = FlashAddress::decompose(ftl.physicalOf(lpn), g);
        units.insert(a.parallelUnit(g));
    }
    EXPECT_EQ(units.size(), g.parallelUnits());
}

TEST_F(FtlFixture, TrimDropsMapping)
{
    ftl.writePage(9, 2048, 0);
    ftl.trim(9);
    EXPECT_FALSE(ftl.isMapped(9));
    EXPECT_EQ(ftl.readPage(9, 2048, 500), 500u);
}

TEST_F(FtlFixture, TrimOfUnmappedIsNoop)
{
    ftl.trim(1234);
    EXPECT_FALSE(ftl.isMapped(1234));
}

TEST_F(FtlFixture, WriteBeyondCapacityFails)
{
    EXPECT_THROW(ftl.writePage(ftl.logicalPages(), 2048, 0), FatalError);
}

TEST_F(FtlFixture, GcReclaimsSpaceUnderChurn)
{
    // Overwrite a small working set far more times than the raw
    // capacity could hold without GC.
    std::uint64_t hot_pages = ftl.logicalPages() / 4;
    Tick t = 0;
    for (int round = 0; round < 12; ++round)
        for (std::uint64_t lpn = 0; lpn < hot_pages; ++lpn)
            t = ftl.writePage(lpn, 2048, t);

    EXPECT_GT(ftl.stats().gcRuns, 0u);
    EXPECT_GT(ftl.stats().erases, 0u);
    // Every hot page must still resolve.
    for (std::uint64_t lpn = 0; lpn < hot_pages; ++lpn)
        EXPECT_TRUE(ftl.isMapped(lpn));
}

TEST_F(FtlFixture, GcPreservesMappingsExactly)
{
    std::uint64_t pages = ftl.logicalPages() / 2;
    Tick t = 0;
    for (int round = 0; round < 8; ++round)
        for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
            t = ftl.writePage(lpn, 2048, t);

    // All PPNs must be distinct (no two LPNs share a physical page).
    std::set<std::uint64_t> ppns;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
        auto [it, fresh] = ppns.insert(ftl.physicalOf(lpn));
        EXPECT_TRUE(fresh) << "duplicate PPN for lpn " << lpn;
    }
}

TEST_F(FtlFixture, WearStaysBalancedWithLeveling)
{
    std::uint64_t pages = ftl.logicalPages() / 2;
    Tick t = 0;
    for (int round = 0; round < 20; ++round)
        for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
            t = ftl.writePage(lpn, 2048, t);
    // Greedy GC + least-worn allocation keeps the spread modest.
    EXPECT_LE(ftl.wearSpread(), 16u);
}

TEST_F(FtlFixture, StatsCountHostOps)
{
    ftl.writePage(0, 2048, 0);
    ftl.readPage(0, 2048, 0);
    ftl.readPage(99, 2048, 0); // unmapped still counts as a host read
    EXPECT_EQ(ftl.stats().hostWrites, 1u);
    EXPECT_EQ(ftl.stats().hostReads, 2u);
}

TEST_F(FtlFixture, FreshFreeListPopsInBlockOrder)
{
    // The min-wear free list must reproduce the legacy scan's order on
    // fresh blocks: equal wear ties break to the lowest block index,
    // so sequential fills walk block 0, then 1, ...
    FlashGeometry g = tinyGeom();
    Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < g.parallelUnits() * g.pagesPerBlock;
         ++lpn) {
        t = ftl.writePage(lpn, 2048, t);
        FlashAddress a = FlashAddress::decompose(ftl.physicalOf(lpn), g);
        EXPECT_EQ(a.block, 0u) << "lpn " << lpn;
    }
    for (std::uint64_t lpn = 0; lpn < g.parallelUnits(); ++lpn) {
        std::uint64_t next = g.parallelUnits() * g.pagesPerBlock + lpn;
        t = ftl.writePage(next, 2048, t);
        FlashAddress a = FlashAddress::decompose(ftl.physicalOf(next), g);
        EXPECT_EQ(a.block, 1u) << "lpn " << next;
    }
}

TEST_F(FtlFixture, GcRunsCountOnlyProductiveInvocations)
{
    // Every counted GC run collected (and therefore erased) at least
    // one victim; no-op invocations must not inflate the counter.
    std::uint64_t hot_pages = ftl.logicalPages() / 4;
    Tick t = 0;
    for (int round = 0; round < 12; ++round)
        for (std::uint64_t lpn = 0; lpn < hot_pages; ++lpn)
            t = ftl.writePage(lpn, 2048, t);
    EXPECT_GT(ftl.stats().gcRuns, 0u);
    EXPECT_LE(ftl.stats().gcRuns, ftl.stats().erases);
}

TEST(FtlConfigTest, GeometryTooSmallForWatermarksRejected)
{
    // A unit needs gcHighWater free blocks, the open block and a closed
    // one for GC to collect: gcHighWater + 1 blocks per plane is one
    // too few.
    FlashGeometry g = tinyGeom();
    g.blocksPerPlane = FtlConfig::gcHighWater + 1;
    Fil small(g, NandTiming::zNand());
    EXPECT_THROW(PageFtl(g, small, FtlConfig{}), FatalError);

    g.blocksPerPlane = FtlConfig::gcHighWater + 2;
    Fil fits(g, NandTiming::zNand());
    EXPECT_NO_THROW(PageFtl(g, fits, FtlConfig{}));
}

} // namespace
} // namespace hams
