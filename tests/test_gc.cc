/**
 * @file
 * Background garbage collection invariants (ftl/page_ftl.hh):
 * no L2P mapping lost or duplicated across GC bursts, trim during
 * relocation, wear-spread bounds, backpressure (stall, never panic)
 * at the reserve, sustained-write determinism, no collection without
 * pressure, exact synchronous-mode equivalence, and zero-allocation
 * steady-state operation.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "flash/fil.hh"
#include "ftl/page_ftl.hh"
#include "sim/alloc_hook.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

#include "expect_fields.hh"
#include "ftl_shadow_model.hh"

namespace hams {
namespace {

using testing_support::bgConfig;
using testing_support::tinyGeom;

/** An FTL wired to its own queue, driven like an SSD would drive it. */
struct GcRig
{
    explicit GcRig(const FtlConfig& cfg = bgConfig(),
                   const FlashGeometry& geom = tinyGeom())
        : fil(geom, NandTiming::zNand()), ftl(geom, fil, cfg)
    {
        ftl.attachEventQueue(&eq);
    }

    /** Write one page and let every due GC event fire first. */
    Tick
    write(std::uint64_t lpn, Tick t)
    {
        eq.runUntil(t);
        return ftl.writePage(lpn, 2048, t);
    }

    /** Overwrite [0, pages) @p rounds times, pumping the queue. */
    Tick
    churn(std::uint64_t pages, int rounds, Tick t = 0)
    {
        for (int r = 0; r < rounds; ++r)
            for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
                t = write(lpn, t);
        return t;
    }

    /**
     * Random overwrites of [0, pages): unlike sequential churn —
     * where the oldest block is always fully dead by the time GC
     * needs it — random invalidation leaves live pages in every
     * victim, forcing relocation.
     */
    Tick
    churnRandom(std::uint64_t pages, std::uint64_t writes, Tick t = 0,
                std::uint64_t seed = 7)
    {
        Rng rng(seed);
        for (std::uint64_t i = 0; i < writes; ++i)
            t = write(rng.below(pages), t);
        return t;
    }

    EventQueue eq;
    Fil fil;
    PageFtl ftl;
};

/** Assert [0, pages) are all mapped, to pairwise-distinct PPNs. */
void
expectMappingsExact(PageFtl& ftl, std::uint64_t pages)
{
    std::set<std::uint64_t> ppns;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
        ASSERT_TRUE(ftl.isMapped(lpn)) << "lost mapping for lpn " << lpn;
        auto [it, fresh] = ppns.insert(ftl.physicalOf(lpn));
        EXPECT_TRUE(fresh) << "duplicate PPN for lpn " << lpn;
    }
}

TEST(BackgroundGc, ReclaimsSpaceAndPreservesMappings)
{
    GcRig rig;
    std::uint64_t hot = rig.ftl.logicalPages() / 4;
    rig.churn(hot, 12);
    rig.eq.run(); // drain in-flight GC

    const FtlStats& s = rig.ftl.stats();
    EXPECT_GT(s.gcRuns, 0u);
    EXPECT_GT(s.erases, 0u);
    EXPECT_GT(s.gcBatches, 0u) << "GC never ran as background events";
    expectMappingsExact(rig.ftl, hot);
    EXPECT_FALSE(rig.ftl.gcActive());
}

TEST(BackgroundGc, OverlapsWithForegroundTraffic)
{
    // Keep two thirds of the raw capacity live and overwrite it
    // *randomly*: random invalidation leaves valid pages in every
    // victim, so GC has to relocate — as background ops — while
    // writes keep coming. (Much past this, a 16-block unit lacks the
    // consolidation headroom to absorb the write amplification.)
    GcRig rig;
    std::uint64_t pages = rig.ftl.logicalPages() * 2 / 3;
    Tick t = rig.churn(pages, 1); // map the working set
    rig.churnRandom(pages, pages * 5, t);
    rig.eq.run();

    EXPECT_GT(rig.ftl.stats().gcForegroundOverlap, 0u);
    EXPECT_GT(rig.ftl.stats().gcRelocations, 0u);
    const FlashActivity& fa = rig.fil.activity();
    EXPECT_GT(fa.gcReads + fa.gcPrograms, 0u);
    EXPECT_GT(fa.gcErases, 0u);
}

TEST(BackgroundGc, NoMappingLostOrDuplicatedUnderHeavyChurn)
{
    GcRig rig;
    std::uint64_t pages = rig.ftl.logicalPages() / 2;
    rig.churn(pages, 8);
    rig.eq.run();
    expectMappingsExact(rig.ftl, pages);
}

TEST(BackgroundGc, TrimDuringRelocationNeverResurrects)
{
    GcRig rig;
    std::uint64_t hot = rig.ftl.logicalPages() / 4;

    // Churn until a GC machine is mid-victim (events pending).
    Tick t = 0;
    int round = 0;
    while (!rig.ftl.gcActive() && round < 64) {
        t = rig.churn(hot, 1, t);
        ++round;
    }
    ASSERT_TRUE(rig.ftl.gcActive()) << "churn never started background GC";

    // Trim every odd LPN while relocation is in flight, then let the
    // collector finish.
    for (std::uint64_t lpn = 1; lpn < hot; lpn += 2)
        rig.ftl.trim(lpn);
    rig.eq.run();

    std::set<std::uint64_t> ppns;
    for (std::uint64_t lpn = 0; lpn < hot; ++lpn) {
        if (lpn % 2) {
            EXPECT_FALSE(rig.ftl.isMapped(lpn))
                << "trimmed lpn " << lpn << " resurrected by GC";
        } else {
            ASSERT_TRUE(rig.ftl.isMapped(lpn));
            EXPECT_TRUE(ppns.insert(rig.ftl.physicalOf(lpn)).second);
        }
    }
}

TEST(BackgroundGc, WearSpreadStaysBoundedWithLeveling)
{
    GcRig rig;
    std::uint64_t pages = rig.ftl.logicalPages() / 2;
    rig.churn(pages, 20);
    rig.eq.run();
    EXPECT_LE(rig.ftl.wearSpread(), 16u);
}

TEST(BackgroundGc, BackpressureStallsInsteadOfPanicking)
{
    // Never pump the queue: the scheduled GC steps cannot fire, so
    // every reclamation must come from the foreground catch-up path.
    GcRig rig;
    std::uint64_t hot = rig.ftl.logicalPages() / 4;
    Tick t = 0;
    for (int r = 0; r < 12; ++r)
        for (std::uint64_t lpn = 0; lpn < hot; ++lpn)
            t = rig.ftl.writePage(lpn, 2048, t);

    const FtlStats& s = rig.ftl.stats();
    EXPECT_GT(s.gcWriteStalls, 0u);
    EXPECT_GT(s.gcStallTicks, 0u);
    EXPECT_GT(s.erases, 0u);
    for (std::uint64_t pu = 0; pu < rig.ftl.parallelUnits(); ++pu)
        EXPECT_GT(rig.ftl.freeBlocksOf(pu), 0u);
    rig.eq.run();
    expectMappingsExact(rig.ftl, hot);
}

TEST(BackgroundGc, SustainedWriteRerunsAreBitIdentical)
{
    auto run = [](std::vector<std::uint64_t>& ppns, FtlStats& stats,
                  std::uint64_t& fired, Tick& final_tick) {
        GcRig rig;
        std::uint64_t pages = rig.ftl.logicalPages() / 3;
        Tick t = rig.churn(pages, 10);
        rig.eq.run();
        final_tick = t;
        fired = rig.eq.fired();
        stats = rig.ftl.stats();
        for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
            ppns.push_back(rig.ftl.physicalOf(lpn));
    };

    std::vector<std::uint64_t> ppns_a, ppns_b;
    FtlStats sa, sb;
    std::uint64_t fired_a, fired_b;
    Tick ta, tb;
    run(ppns_a, sa, fired_a, ta);
    run(ppns_b, sb, fired_b, tb);

    EXPECT_EQ(ta, tb);
    EXPECT_EQ(fired_a, fired_b);
    EXPECT_EQ(ppns_a, ppns_b);
    expectSameFields(sa, sb, "FtlStats rerun");
}

TEST(BackgroundGc, NoCollectionBetweenTheWatermarks)
{
    GcRig rig;
    // Churn a small hot set just until some unit sits *between* the
    // watermarks (free == 3, low == 2, high == 4): no pressure kick
    // has fired, and a machine starts only from one.
    std::uint64_t hot = rig.ftl.logicalPages() / 8;
    Tick t = 0;
    std::uint64_t i = 0;
    while (rig.ftl.minFreeBlocks() > 3)
        t = rig.write(i++ % hot, t);
    ASSERT_EQ(rig.ftl.stats().gcRuns, 0u)
        << "setup overshot into pressure-triggered GC";

    // Drain the queue: nothing is pending, and nothing collects.
    rig.eq.run();
    EXPECT_EQ(rig.ftl.stats().erases, 0u);
    EXPECT_EQ(rig.ftl.stats().gcRuns, 0u);
    EXPECT_FALSE(rig.ftl.gcActive());
    EXPECT_TRUE(rig.eq.empty())
        << "a drained queue still holds " << rig.eq.pending() << " events";
    expectMappingsExact(rig.ftl, hot);
}

TEST(BackgroundGc, DisabledModeMatchesDetachedFtlExactly)
{
    // backgroundGc=false with a queue attached must be bit-identical
    // to the plain synchronous FTL: same completion ticks, same stats,
    // and it must never schedule an event.
    FtlConfig sync_cfg; // defaults: backgroundGc off
    GcRig rig(sync_cfg);

    Fil ref_fil(tinyGeom(), NandTiming::zNand());
    PageFtl ref(tinyGeom(), ref_fil, sync_cfg);

    std::uint64_t pages = rig.ftl.logicalPages() / 3;
    Tick ta = 0, tb = 0;
    for (int r = 0; r < 10; ++r)
        for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
            ta = rig.ftl.writePage(lpn, 2048, ta);
            tb = ref.writePage(lpn, 2048, tb);
            ASSERT_EQ(ta, tb) << "divergence at round " << r << " lpn "
                              << lpn;
        }
    EXPECT_EQ(rig.eq.pending(), 0u);
    EXPECT_EQ(rig.eq.fired(), 0u);
    expectSameFields(rig.ftl.stats(), ref.stats(), "FtlStats vs detached");
    EXPECT_EQ(rig.ftl.stats().gcBatches, 0u);
    EXPECT_EQ(rig.ftl.stats().gcWriteStalls, 0u);
}

TEST(BackgroundGc, GcRunsNeverExceedErases)
{
    // Satellite fix: a GC invocation that collects nothing must not
    // count as a run, so every counted run erased at least one block.
    GcRig bg;
    bg.churn(bg.ftl.logicalPages() / 4, 12);
    bg.eq.run();
    EXPECT_LE(bg.ftl.stats().gcRuns, bg.ftl.stats().erases);

    FtlConfig sync_cfg;
    Fil fil(tinyGeom(), NandTiming::zNand());
    PageFtl sync(tinyGeom(), fil, sync_cfg);
    Tick t = 0;
    for (int r = 0; r < 12; ++r)
        for (std::uint64_t lpn = 0; lpn < sync.logicalPages() / 4; ++lpn)
            t = sync.writePage(lpn, 2048, t);
    EXPECT_GT(sync.stats().gcRuns, 0u);
    EXPECT_LE(sync.stats().gcRuns, sync.stats().erases);
}

TEST(BackgroundGc, ExhaustionReportsWatermarkState)
{
    // In 32-page blocks the fixed 7% over-provisioning is 18 spare
    // pages per unit, under one block: a full unique fill followed by
    // overwrites leaves GC only near-full victims and no room to
    // relocate them. The FTL must fail with an actionable watermark
    // report instead of a bare "GC failed".
    FlashGeometry geom = tinyGeom();
    geom.blocksPerPlane = 8;
    geom.pagesPerBlock = 32;
    GcRig rig(bgConfig(), geom);
    bool threw = false;
    Tick t = 0;
    try {
        for (std::uint64_t lpn = 0; lpn < rig.ftl.logicalPages(); ++lpn)
            t = rig.write(lpn, t);
        for (int round = 0; round < 8; ++round)
            for (std::uint64_t lpn = 0; lpn < 16; ++lpn)
                t = rig.write(lpn, t);
    } catch (const FatalError& e) {
        threw = true;
        std::string what = e.what();
        EXPECT_NE(what.find("no free blocks"), std::string::npos) << what;
        EXPECT_NE(what.find("low="), std::string::npos) << what;
        EXPECT_NE(what.find("high="), std::string::npos) << what;
    }
    EXPECT_TRUE(threw) << "overfilling the device should fail loudly";
}

TEST(BackgroundGc, SteadyStateIsAllocationFree)
{
    GcRig rig;
    std::uint64_t hot = rig.ftl.logicalPages() / 4;
    // Warmup: touch every LPN (L2P leaves), grow the event arena and
    // per-unit lists to their high-water marks, run several GC cycles.
    Tick t = rig.churn(hot, 8);

    alloc_hook::AllocCounter allocs;
    t = rig.churn(hot, 4, t);
    EXPECT_EQ(allocs.delta(), 0u)
        << "background GC allocated on the steady-state write path";
    rig.eq.run();
}

TEST(BackgroundGc, ConfigRejectsConflicts)
{
    Fil fil(tinyGeom(), NandTiming::zNand());
    FtlConfig cfg = bgConfig();
    cfg.gcBatchPages = 0;
    EXPECT_THROW(PageFtl(tinyGeom(), fil, cfg), FatalError);
    cfg = FtlConfig{};
    cfg.gcAdaptivePacing = true; // pacer needs the background engine
    EXPECT_THROW(PageFtl(tinyGeom(), fil, cfg), FatalError);
    cfg = bgConfig();
    cfg.gcVictimQuality = true; // the allowance ramps with the pacer
    EXPECT_THROW(PageFtl(tinyGeom(), fil, cfg), FatalError);
}

// ---------------------------------------------------------------------
// Op-handle contract: block credit lands at the *true* erase
// completion, even when a foreground op suspends the erase after its
// completion tick was latched at submit time.
// ---------------------------------------------------------------------

TEST(GcOpHandles, CreditWaitsForSuspensionExtendedErase)
{
    GcRig rig;
    std::uint64_t hot = rig.ftl.logicalPages() / 4;

    // Drive churn one event at a time until some unit has issued its
    // victim's erase (pendingFree set) and the erase is still in
    // flight on the simulation queue.
    std::int64_t pu = -1;
    Tick t = 0;
    std::uint64_t lpn = 0;
    for (std::uint64_t i = 0; i < hot * 64 && pu < 0; ++i) {
        t = rig.ftl.writePage(lpn++ % hot, 2048, t);
        while (rig.eq.nextTick() <= t && pu < 0) {
            rig.eq.step();
            for (std::uint64_t u = 0; u < rig.ftl.parallelUnits(); ++u)
                if (rig.ftl.unitView(u).pendingFree >= 0) {
                    pu = static_cast<std::int64_t>(u);
                    break;
                }
        }
    }
    ASSERT_GE(pu, 0) << "churn never left an erase in flight";
    auto upu = static_cast<std::uint64_t>(pu);

    std::uint32_t free0 = rig.ftl.freeBlocksOf(upu);
    Tick latched = rig.ftl.pendingFreeTrueAt(upu);
    ASSERT_GT(latched, rig.eq.now()) << "erase already complete";

    // Force a suspension: a foreground read of an LPN mapped to this
    // unit arrives while the only blocker is the background erase.
    std::uint64_t victim_lpn = hot;
    for (std::uint64_t l = 0; l < hot; ++l) {
        if (!rig.ftl.isMapped(l))
            continue;
        std::uint64_t blk =
            rig.ftl.physicalOf(l) / tinyGeom().pagesPerBlock;
        if (blk / tinyGeom().blocksPerPlane == upu) {
            victim_lpn = l;
            break;
        }
    }
    ASSERT_LT(victim_lpn, hot) << "no LPN mapped to the erasing unit";

    std::uint64_t susp0 = rig.fil.activity().suspensions;
    rig.ftl.readPage(victim_lpn, 2048, rig.eq.now());
    ASSERT_GT(rig.fil.activity().suspensions, susp0)
        << "foreground read did not suspend the background erase";

    // The handle now answers a later tick than the latch...
    Tick extended = rig.ftl.pendingFreeTrueAt(upu);
    EXPECT_GT(extended, latched)
        << "suspension did not extend the tracked erase completion";

    // ...and the block credit waits for exactly that tick: the free
    // pool must not grow while simulated time is before it.
    while (rig.ftl.freeBlocksOf(upu) == free0) {
        ASSERT_TRUE(rig.eq.step()) << "queue drained without crediting";
        if (rig.ftl.freeBlocksOf(upu) == free0) {
            ASSERT_LT(rig.eq.now(), extended)
                << "credit tick passed without crediting the block";
        }
    }
    EXPECT_GE(rig.eq.now(), extended)
        << "block credited before the true erase completion";
    rig.eq.run();
    expectMappingsExact(rig.ftl, hot);
}

TEST(GcOpHandles, DrainedEngineLeaksNoTrackedOps)
{
    GcRig rig;
    rig.churn(rig.ftl.logicalPages() / 3, 10);
    rig.eq.run();
    EXPECT_EQ(rig.fil.trackedOps(), 0u);
    EXPECT_FALSE(rig.ftl.gcActive());
}

// ---------------------------------------------------------------------
// Inline-rule soundness: an active GC machine always has work pending
// on the queue, so SmpModel's solo inline delivery (next event strictly
// past the completion tick) can never advance time over a due step.
// ---------------------------------------------------------------------

TEST(GcOpHandles, ActiveMachineAlwaysHasPendingEvents)
{
    GcRig rig;
    std::uint64_t hot = rig.ftl.logicalPages() / 4;
    Tick t = 0;
    std::uint64_t lpn = 0;
    std::uint64_t active_samples = 0;
    for (std::uint64_t i = 0; i < hot * 24; ++i) {
        t = rig.write(lpn++ % hot, t);
        if (rig.ftl.gcActive()) {
            ++active_samples;
            EXPECT_GT(rig.eq.pending(), 0u)
                << "active GC machine with an empty queue: an inline "
                   "completion could skip its next step";
        }
    }
    EXPECT_GT(active_samples, 0u) << "churn never overlapped active GC";
    rig.eq.run();
}

// ---------------------------------------------------------------------
// Adaptive pacer.
// ---------------------------------------------------------------------

TEST(GcPacer, BatchAndCadenceMonotoneInDepletion)
{
    Fil fil(tinyGeom(), NandTiming::zNand());
    FtlConfig cfg = bgConfig();
    cfg.gcAdaptivePacing = true;
    PageFtl ftl(tinyGeom(), fil, cfg);

    // Lower free level => no smaller batch, no longer cadence slack.
    for (std::uint32_t f = 1; f <= tinyGeom().blocksPerPlane; ++f) {
        EXPECT_GE(ftl.paceBatch(f - 1), ftl.paceBatch(f))
            << "batch shrank as the pool depleted (free " << f << ")";
        EXPECT_LE(ftl.paceDelay(f - 1), ftl.paceDelay(f))
            << "cadence eased as the pool depleted (free " << f << ")";
    }
    // Flat out at the reserve, base-rate near the high watermark.
    EXPECT_EQ(ftl.paceDelay(cfg.gcReserveBlocks), 0u);
    EXPECT_GT(ftl.paceDelay(cfg.gcHighWater - 1), 0u);
    EXPECT_GT(ftl.paceBatch(cfg.gcReserveBlocks),
              ftl.paceBatch(cfg.gcHighWater - 1));
    EXPECT_EQ(ftl.paceBatch(cfg.gcHighWater - 1), cfg.gcBatchPages);
}

TEST(GcPacer, KnobsAreInertWhenPacingOff)
{
    // With gcAdaptivePacing=false the pacer must not influence the
    // run: the transfer functions collapse to the static batch and
    // zero slack at every free level.
    Fil fil(tinyGeom(), NandTiming::zNand());
    FtlConfig cfg = bgConfig();
    PageFtl ftl(tinyGeom(), fil, cfg);
    for (std::uint32_t f = 0; f <= tinyGeom().blocksPerPlane; ++f) {
        EXPECT_EQ(ftl.paceBatch(f), cfg.gcBatchPages);
        EXPECT_EQ(ftl.paceDelay(f), 0u);
    }
}

TEST(GcPacer, HoldsHigherFreeLevelsUnderSteadyChurn)
{
    // The pacer starts collecting as soon as a unit leaves the high
    // watermark; the fixed-rate engine waits for the low watermark.
    // Under random overwrite traffic the device can absorb (300 us
    // between writes, slow enough that collection keeps up), the
    // paced pool must therefore ride measurably higher in the
    // watermark band. (At full saturation both engines are
    // erase-bandwidth-bound and converge — that regime is covered by
    // the fig_gc sweep's QD-8 cells.)
    auto run = [](bool paced, double& avg_free) {
        FtlConfig cfg = bgConfig();
        cfg.gcAdaptivePacing = paced;
        GcRig rig(cfg);
        std::uint64_t pages = rig.ftl.logicalPages() / 2;
        Tick t = rig.churn(pages, 1);
        Rng rng(7);
        double sum = 0;
        std::uint64_t n = 0;
        for (std::uint64_t i = 0; i < 8000; ++i) {
            t = rig.write(rng.below(pages), t) ;
            t += microseconds(300); // host busy elsewhere
            double s = 0;
            for (std::uint64_t pu = 0; pu < rig.ftl.parallelUnits();
                 ++pu)
                s += rig.ftl.freeBlocksOf(pu);
            sum += s / static_cast<double>(rig.ftl.parallelUnits());
            ++n;
        }
        rig.eq.run();
        avg_free = sum / static_cast<double>(n);
        return rig.ftl.stats();
    };
    double free_fixed = 0, free_paced = 0;
    run(false, free_fixed);
    FtlStats paced = run(true, free_paced);
    EXPECT_GT(free_paced, free_fixed + 0.3)
        << "adaptive pacing did not hold the pool above the fixed-rate "
           "engine's level";
    EXPECT_GE(paced.paceLevelMax, 1u)
        << "pacer never engaged";
}

// ---------------------------------------------------------------------
// Victim-quality gating (ROADMAP open item 5).
// ---------------------------------------------------------------------

TEST(GcQuality, AllowanceMonotoneInDepletion)
{
    Fil fil(tinyGeom(), NandTiming::zNand());
    FtlConfig cfg = bgConfig();
    cfg.gcAdaptivePacing = true;
    cfg.gcVictimQuality = true;
    PageFtl ftl(tinyGeom(), fil, cfg);

    // Less runway => GC may accept costlier (more-valid) victims;
    // the allowance never shrinks as the pool depletes.
    for (std::uint32_t f = 1; f <= tinyGeom().blocksPerPlane; ++f)
        EXPECT_GE(ftl.victimAllowance(f - 1), ftl.victimAllowance(f))
            << "allowance shrank as the pool depleted (free " << f
            << ")";
    // Crisis takes any victim; comfort takes only fully-dead ones.
    EXPECT_EQ(ftl.victimAllowance(cfg.gcReserveBlocks),
              tinyGeom().pagesPerBlock);
    EXPECT_EQ(ftl.victimAllowance(cfg.gcHighWater), 0u);
}

TEST(GcQuality, SkippingNearFullVictimsCutsWriteAmplification)
{
    // With runway in the pool, deferring near-full victims lets
    // ongoing invalidation do GC's work: by the time the pool
    // actually needs the block, more of its pages are dead and fewer
    // survivors move. Uniform random churn keeps every block
    // decaying, which is exactly the regime where the eager paced
    // collector wastes relocations on pages about to die anyway.
    auto waOf = [](bool quality, FtlStats* out) {
        FtlConfig cfg = bgConfig();
        cfg.gcAdaptivePacing = true;
        cfg.gcVictimQuality = quality;
        GcRig rig(cfg);
        std::uint64_t pages = rig.ftl.logicalPages() * 70 / 100;
        Tick t = 0;
        for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
            t = rig.write(lpn, t);
        std::uint64_t w0 = rig.ftl.stats().hostWrites;
        std::uint64_t r0 = rig.ftl.stats().gcRelocations;
        rig.churnRandom(pages, pages * 30, t);
        rig.eq.run();
        if (out)
            *out = rig.ftl.stats();
        return 1.0 +
               static_cast<double>(rig.ftl.stats().gcRelocations - r0) /
                   static_cast<double>(rig.ftl.stats().hostWrites - w0);
    };

    FtlStats stats_gated;
    double wa_paced = waOf(false, nullptr);
    double wa_gated = waOf(true, &stats_gated);
    EXPECT_GT(stats_gated.gcQualityDeferrals, 0u)
        << "the gate never deferred a victim";
    EXPECT_LT(wa_gated, wa_paced)
        << "victim-quality gating did not reduce write amplification";
}

} // namespace
} // namespace hams
