/**
 * @file
 * FTL shadow-model differential suite.
 *
 * The reference model and checker live in ftl_shadow_model.hh (shared
 * with the crash fuzzer, test_crash_fuzz.cc). This suite runs it
 * through seeded fuzz runs of mixed write/trim/read/drain operations
 * (tiny geometry, so garbage collection runs constantly) and checks
 * the full observable FTL state after *every* operation, in
 * synchronous and background GC modes, with and without the adaptive
 * pacer + dedicated relocation streams — every GC personality added
 * on top of the FTL is held to the same model.
 */

#include <gtest/gtest.h>

#include "flash/fil.hh"
#include "ftl/page_ftl.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

#include "ftl_shadow_model.hh"

namespace hams {
namespace {

using testing_support::ShadowFtl;
using testing_support::tinyGeom;

/**
 * Seeded fuzz run: ~@p ops mixed operations over a hot range of half
 * the exported space (sustainable on the tiny geometry, hot enough to
 * force constant collection). Background mode pumps the queue to the
 * issue tick before every op — GC events interleave with host ops at
 * their simulated times — and fully drains it on the occasional
 * "drain" op and at the end.
 */
void
fuzz(const FtlConfig& cfg, bool background, std::uint64_t ops,
     std::uint64_t seed)
{
    FlashGeometry geom = tinyGeom();
    Fil fil(geom, NandTiming::zNand());
    PageFtl ftl(geom, fil, cfg);
    EventQueue eq;
    if (background)
        ftl.attachEventQueue(&eq);
    ShadowFtl shadow(ftl, geom);

    std::uint64_t hot = ftl.logicalPages() / 2;

    Rng rng(seed);
    Tick t = 0;

    for (std::uint64_t i = 0; i < ops; ++i) {
        if (background)
            eq.runUntil(t);
        std::uint64_t dice = rng.below(100);
        std::uint64_t lpn = rng.below(hot);
        const char* what;
        if (dice < 60) {
            what = "write";
            t = ftl.writePage(lpn, geom.pageSize, t);
            shadow.noteWrite(lpn);
        } else if (dice < 75) {
            what = "trim";
            ftl.trim(lpn);
            shadow.noteTrim(lpn);
        } else if (dice < 90) {
            what = "read";
            Tick done = ftl.readPage(lpn, geom.pageSize, t);
            ASSERT_GE(done, t);
            t = done;
        } else {
            what = "drain";
            if (background)
                t = std::max(t, eq.run());
        }
        shadow.check(hot, what);
    }
    if (background) {
        eq.run();
        shadow.check(hot, "final drain");
        EXPECT_FALSE(ftl.gcActive());
        EXPECT_EQ(fil.trackedOps(), 0u)
            << "drained FTL leaked tracked op handles";
    }
    EXPECT_GT(ftl.stats().erases, 0u)
        << "fuzz run never forced garbage collection";
    EXPECT_GT(shadow.mapped(), 0u);
}

FtlConfig
bgConfig()
{
    FtlConfig cfg;
    cfg.backgroundGc = true;
    cfg.gcReserveBlocks = 1;
    cfg.gcLowWater = 2;
    cfg.gcHighWater = 4;
    cfg.gcBatchPages = 4;
    cfg.gcIdleThreshold = microseconds(500);
    return cfg;
}

TEST(FtlShadow, SynchronousGc)
{
    fuzz(FtlConfig{}, /*background=*/false, 10000, 1);
}

TEST(FtlShadow, SynchronousGcWithRelocationStreams)
{
    FtlConfig cfg;
    cfg.gcStreamBlocks = 1;
    fuzz(cfg, /*background=*/false, 10000, 2);
}

TEST(FtlShadow, BackgroundGc)
{
    fuzz(bgConfig(), /*background=*/true, 10000, 3);
}

TEST(FtlShadow, BackgroundGcPacedWithStreams)
{
    FtlConfig cfg = bgConfig();
    cfg.gcAdaptivePacing = true;
    cfg.gcStreamBlocks = 1;
    fuzz(cfg, /*background=*/true, 10000, 4);
}

TEST(FtlShadow, BackgroundGcPacedWithVictimQuality)
{
    // The quality gate defers near-full victims while the pool has
    // runway; the shadow holds it to the same invariants as every
    // other GC personality.
    FtlConfig cfg = bgConfig();
    cfg.gcAdaptivePacing = true;
    cfg.gcStreamBlocks = 1;
    cfg.gcVictimQuality = true;
    fuzz(cfg, /*background=*/true, 10000, 5);
}

TEST(FtlShadow, BackgroundGcSecondSeedDiverges)
{
    // A different seed explores a different interleaving of GC events
    // and host ops; cheap insurance against a schedule-dependent hole
    // in the primary runs.
    fuzz(bgConfig(), /*background=*/true, 6000, 99);
}

} // namespace
} // namespace hams
