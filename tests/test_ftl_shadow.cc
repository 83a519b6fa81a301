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
 * pacer and its victim-quality gate, over hot ranges of half and of
 * 90% of the exported space — every GC personality added on top of
 * the FTL is held to the same model.
 */

#include <gtest/gtest.h>

#include "flash/fil.hh"
#include "ftl/page_ftl.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

#include "ftl_shadow_model.hh"

namespace hams {
namespace {

using testing_support::bgConfig;
using testing_support::ShadowFtl;
using testing_support::tinyGeom;

/**
 * Seeded fuzz run: ~@p ops mixed operations over a hot range of
 * @p hot_percent of the exported space (half is sustainable on the
 * tiny geometry and hot enough to force constant collection; 90%
 * runs GC under pressure: fuller victims, the pool down at the
 * reserve). Background mode pumps the queue to the issue tick before
 * every op — GC events interleave with host ops at their simulated
 * times — and fully drains it on the occasional "drain" op and at
 * the end. The final FTL stats land in @p stats.
 */
void
fuzz(const FtlConfig& cfg, bool background, std::uint64_t ops,
     std::uint64_t seed, std::uint64_t hot_percent = 50,
     FtlStats* stats = nullptr)
{
    FlashGeometry geom = tinyGeom();
    Fil fil(geom, NandTiming::zNand());
    PageFtl ftl(geom, fil, cfg);
    EventQueue eq;
    if (background)
        ftl.attachEventQueue(&eq);
    ShadowFtl shadow(ftl, geom);

    std::uint64_t hot = ftl.logicalPages() * hot_percent / 100;

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
    if (stats)
        *stats = ftl.stats();
}

TEST(FtlShadow, SynchronousGc)
{
    fuzz(FtlConfig{}, /*background=*/false, 10000, 1);
}

TEST(FtlShadow, SynchronousGcUnderPressure)
{
    FtlStats s;
    fuzz(FtlConfig{}, /*background=*/false, 10000, 2, /*hot_percent=*/90,
         &s);
    // Victims average more valid pages than dead ones.
    EXPECT_GT(s.gcRelocations, s.hostWrites);
}

TEST(FtlShadow, BackgroundGc)
{
    fuzz(bgConfig(), /*background=*/true, 10000, 3);
}

TEST(FtlShadow, BackgroundGcPacedUnderPressure)
{
    FtlConfig cfg = bgConfig();
    cfg.gcAdaptivePacing = true;
    FtlStats s;
    fuzz(cfg, /*background=*/true, 10000, 4, /*hot_percent=*/90, &s);
    // The pacer reached its deepest level: the pool fell to the reserve.
    EXPECT_EQ(s.paceLevelMax, cfg.gcHighWater - cfg.gcReserveBlocks);
}

TEST(FtlShadow, BackgroundGcPacedWithVictimQuality)
{
    // The quality gate defers near-full victims while the pool has
    // runway; the shadow holds it to the same invariants as every
    // other GC personality.
    FtlConfig cfg = bgConfig();
    cfg.gcAdaptivePacing = true;
    cfg.gcVictimQuality = true;
    FtlStats s;
    fuzz(cfg, /*background=*/true, 10000, 5, /*hot_percent=*/90, &s);
    EXPECT_GT(s.gcQualityDeferrals, 0u);
    EXPECT_GT(s.gcWriteStalls, 0u) << "no foreground write hit the reserve";
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
