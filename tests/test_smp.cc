/**
 * @file
 * SmpModel tests: core 0 of a 1-core SmpModel run reproduces the
 * single-core stream (makeCoreWorkload(w, ds, 0, 1) drives the same
 * ops as makeWorkload(w, ds), so the full RunResult, HamsStats, engine
 * stats and event-queue time match CoreModel::run on the same seed);
 * N-core runs are bit-identical across reruns and with the inline fast
 * path on vs off; contention counters
 * (wait lists, persist gate) grow with core count on a shared HAMS
 * platform; the inline fast path is tried only with no event pending;
 * and the per-core hit path through the SMP conductor stays
 * allocation-free.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "cpu/smp_model.hh"
#include "ftl/page_ftl.hh"
#include "sim/alloc_hook.hh"
#include "ssd/ssd.hh"
#include "workload/workload.hh"

#include "expect_fields.hh"

namespace hams {
namespace {

std::unique_ptr<HamsSystem>
smallHams(HamsMode mode)
{
    HamsSystemConfig c = mode == HamsMode::Persist
                             ? HamsSystemConfig::tightPersist()
                             : HamsSystemConfig::tightExtend();
    c.nvdimm.capacity = 96ull << 20;
    c.ssdRawBytes = 1ull << 30;
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false;
    return std::make_unique<HamsSystem>(c);
}

std::unique_ptr<MmapPlatform>
smallMmap()
{
    MmapConfig c;
    c.dramBytes = 64ull << 20;
    c.pageCacheBytes = 48ull << 20;
    c.ssdRawBytes = 1ull << 30;
    return std::make_unique<MmapPlatform>(c);
}

/** Warmup-then-measure an N-core SMP run on a fresh platform. */
SmpResult
runSmp(MemoryPlatform& platform, const std::string& workload,
       std::uint32_t cores, std::uint64_t budget,
       std::uint64_t dataset = 32ull << 20)
{
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < cores; ++c) {
        gens.push_back(makeCoreWorkload(workload, dataset, c, cores));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(platform);
    smp.run(raw, budget / 2);
    return smp.run(raw, budget);
}

// ---------------------------------------------------------------------
// Core 0 of 1 replays the single-core workload stream, bit for bit.
// ---------------------------------------------------------------------

template <typename MakePlatform>
void
oneCoreDifferential(MakePlatform make, const std::string& workload,
                    std::uint64_t budget)
{
    auto p_core = make();
    auto p_smp = make();

    auto gen_core = makeWorkload(workload, 32ull << 20);
    CoreModel core(*p_core);
    RunResult warm_core = core.run(*gen_core, budget / 2);
    RunResult meas_core = core.run(*gen_core, budget);

    // Core 0 of 1 must reproduce the single-core stream exactly.
    auto gen_smp = makeCoreWorkload(workload, 32ull << 20, 0, 1);
    std::vector<WorkloadGenerator*> gens{gen_smp.get()};
    SmpModel smp(*p_smp);
    SmpResult warm_smp = smp.run(gens, budget / 2);
    SmpResult meas_smp = smp.run(gens, budget);

    ASSERT_EQ(warm_smp.cores(), 1u);
    std::string tag = workload + " on " + p_core->name();
    expectSameFields(warm_core, warm_smp.perCore[0],
                     tag + " (warmup)");
    expectSameFields(meas_core, meas_smp.perCore[0],
                     tag + " (measure)");
    // The combined view of one core is that core.
    expectSameFields(meas_smp.perCore[0], meas_smp.combined,
                     tag + " (combined)");
    EXPECT_EQ(p_core->eventQueue().now(), p_smp->eventQueue().now()) << tag;
    EXPECT_EQ(p_core->eventQueue().fired(), p_smp->eventQueue().fired())
        << tag;
}

TEST(SmpOneCore, BitIdenticalToCoreModelOnMmap)
{
    oneCoreDifferential(smallMmap, "rndWr", 200000);
}

TEST(SmpOneCore, BitIdenticalToCoreModelOnHamsExtend)
{
    auto p_core = smallHams(HamsMode::Extend);
    auto p_smp = smallHams(HamsMode::Extend);

    auto gen_core = makeWorkload("update", 32ull << 20);
    CoreModel core(*p_core);
    RunResult warm_core = core.run(*gen_core, 200000);
    RunResult meas_core = core.run(*gen_core, 400000);

    auto gen_smp = makeCoreWorkload("update", 32ull << 20, 0, 1);
    std::vector<WorkloadGenerator*> gens{gen_smp.get()};
    SmpModel smp(*p_smp);
    SmpResult warm_smp = smp.run(gens, 200000);
    SmpResult meas_smp = smp.run(gens, 400000);

    expectSameFields(warm_core, warm_smp.perCore[0], "update TE (warmup)");
    expectSameFields(meas_core, meas_smp.perCore[0], "update TE (measure)");
    expectSameFields(p_core->stats(), p_smp->stats(), "update HamsStats");
    expectSameFields(p_core->engineStats(), p_smp->engineStats(),
                     "update NvmeEngineStats");
    EXPECT_EQ(p_core->eventQueue().now(), p_smp->eventQueue().now());
}

TEST(SmpOneCore, BitIdenticalToCoreModelOnHamsPersist)
{
    auto p_core = smallHams(HamsMode::Persist);
    auto p_smp = smallHams(HamsMode::Persist);

    auto gen_core = makeWorkload("rndRd", 32ull << 20);
    CoreModel core(*p_core);
    RunResult meas_core = core.run(*gen_core, 150000);

    auto gen_smp = makeCoreWorkload("rndRd", 32ull << 20, 0, 1);
    std::vector<WorkloadGenerator*> gens{gen_smp.get()};
    SmpModel smp(*p_smp);
    SmpResult meas_smp = smp.run(gens, 150000);

    expectSameFields(meas_core, meas_smp.perCore[0], "rndRd TP");
    expectSameFields(p_core->stats(), p_smp->stats(), "rndRd HamsStats");
}

// ---------------------------------------------------------------------
// N-core determinism: reruns are bit-identical with the fast path on
// or off, and on vs off.
// ---------------------------------------------------------------------

/**
 * Run the same N-core warmup + measure twice on fresh platforms, the
 * fast path @p inline_first on the first run and @p inline_second on
 * the second, and demand bit-identical results. @p first_stats, if
 * given, receives the first run's controller stats.
 */
void
rerunIdentical(const std::string& workload, HamsMode mode,
               std::uint32_t cores, bool inline_first, bool inline_second,
               HamsStats* first_stats = nullptr)
{
    auto run_once = [&](HamsSystem& sys, bool inline_on, SmpResult& out) {
        std::vector<std::unique_ptr<WorkloadGenerator>> gens;
        std::vector<WorkloadGenerator*> raw;
        for (std::uint32_t c = 0; c < cores; ++c) {
            gens.push_back(
                makeCoreWorkload(workload, 32ull << 20, c, cores));
            raw.push_back(gens.back().get());
        }
        SmpConfig cfg;
        cfg.core.inlineFastPath = inline_on;
        SmpModel smp(sys, cfg);
        smp.run(raw, 100000);
        out = smp.run(raw, 200000);
    };

    auto p1 = smallHams(mode);
    auto p2 = smallHams(mode);
    SmpResult r1, r2;
    run_once(*p1, inline_first, r1);
    run_once(*p2, inline_second, r2);
    if (first_stats)
        *first_stats = p1->stats();

    ASSERT_EQ(r1.cores(), cores);
    ASSERT_EQ(r2.cores(), cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::string tag = workload + " core " + std::to_string(c);
        expectSameFields(r1.perCore[c], r2.perCore[c], tag);
    }
    expectSameFields(r1.combined, r2.combined, "combined");
    expectSameFields(p1->stats(), p2->stats(), "HamsStats");
    expectSameFields(p1->engineStats(), p2->engineStats(),
                     "NvmeEngineStats");
    EXPECT_EQ(p1->eventQueue().now(), p2->eventQueue().now());
    if (inline_first == inline_second)
        EXPECT_EQ(p1->eventQueue().fired(), p2->eventQueue().fired());
    else // the fast path engaged on the inline-on side
        EXPECT_NE(p1->eventQueue().fired(), p2->eventQueue().fired());
}

TEST(SmpDeterminism, FourCoreExtendRerunIdentical)
{
    rerunIdentical("update", HamsMode::Extend, 4, true, true);
}

TEST(SmpDeterminism, FourCorePersistRerunIdentical)
{
    rerunIdentical("rndWr", HamsMode::Persist, 4, true, true);
}

TEST(SmpDeterminism, EightCoreEventPathRerunIdentical)
{
    rerunIdentical("rndRd", HamsMode::Extend, 8, false, false);
}

TEST(SmpDeterminism, FourCorePersistInlineOnMatchesOff)
{
    // Persist-mode hits complete inline while four cores' misses queue
    // on the persist gate. A hit never touches the gate, and inline
    // completions only happen with no event pending, so every result
    // must match the all-events run.
    for (const char* workload : {"rndRd", "update"}) {
        SCOPED_TRACE(workload);
        HamsStats s;
        rerunIdentical(workload, HamsMode::Persist, 4, true, false, &s);
        EXPECT_GT(s.persistGateWaits, 0u) << "the gate never serialised";
    }
}

// ---------------------------------------------------------------------
// The inline gate itself: SmpModel offers an access (or a dirty-victim
// writeback) to tryAccess() only while the conductor has no pending
// event. The on-vs-off differentials cannot pin this — HAMS hits on
// idle frames do not depend on pending events — so a spy checks the
// gate directly.
// ---------------------------------------------------------------------

/**
 * Forwards everything to a real platform and counts tryAccess() offers,
 * separately those made while the conductor had a pending event.
 */
class GateSpyPlatform : public MemoryPlatform
{
  public:
    explicit GateSpyPlatform(MemoryPlatform& inner) : inner(inner) {}

    const std::string& name() const override { return inner.name(); }
    std::uint64_t capacity() const override { return inner.capacity(); }
    EventQueue& eventQueue() override { return inner.eventQueue(); }
    DomainConductor& conductor() override { return inner.conductor(); }
    bool persistent() const override { return inner.persistent(); }

    void
    access(const MemAccess& acc, Tick at, AccessCb cb) override
    {
        ++eventPath;
        inner.access(acc, at, std::move(cb));
    }

    bool
    tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out) override
    {
        ++offers;
        if (!inner.conductor().empty())
            ++offersWhilePending;
        return inner.tryAccess(acc, at, out);
    }

    void
    flush(Tick at, AccessCb cb) override
    {
        inner.flush(at, std::move(cb));
    }

    EnergyBreakdownJ
    memoryEnergy(Tick elapsed) const override
    {
        return inner.memoryEnergy(elapsed);
    }

    std::uint64_t offers = 0;
    std::uint64_t offersWhilePending = 0;
    std::uint64_t eventPath = 0;

  private:
    MemoryPlatform& inner;
};

TEST(SmpInlineGate, NeverOffersTryAccessWithAnEventPending)
{
    // Random writes over a working set larger than the NVDIMM cache:
    // misses keep completion events pending while other cores issue,
    // and dirty L2 victims go out as writebacks, so both issue cases
    // (Access and Wb) reach the gate with the queue busy.
    for (std::uint32_t cores : {2u, 4u}) {
        SCOPED_TRACE(cores);
        auto sys = smallHams(HamsMode::Extend);
        GateSpyPlatform spy(*sys);
        runSmp(spy, "rndWr", cores, 150000, 256ull << 20);
        EXPECT_GT(spy.offers, 0u) << "the fast path was never tried";
        EXPECT_GT(spy.eventPath, 0u) << "nothing ever left an event pending";
        EXPECT_EQ(spy.offersWhilePending, 0u)
            << "tryAccess offered while an event was pending";
    }
}

// ---------------------------------------------------------------------
// Contention: shared-frame wait lists and the persist gate engage and
// deepen as cores are added.
// ---------------------------------------------------------------------

TEST(SmpContention, WaitListsDeepenWithCores)
{
    std::uint64_t prev_wait = 0;
    std::uint64_t prev_peak = 0;
    for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
        auto sys = smallHams(HamsMode::Extend);
        runSmp(*sys, "update", n, 200000);
        const HamsStats& s = sys->stats();
        EXPECT_GE(s.waitQueued, prev_wait) << n << " cores";
        EXPECT_GE(s.waiterPeakDepth, prev_peak) << n << " cores";
        prev_wait = s.waitQueued;
        prev_peak = s.waiterPeakDepth;
    }
    // With 8 cores on one tag array, contention must actually exist.
    EXPECT_GT(prev_wait, 0u);
    EXPECT_GT(prev_peak, 1u);
}

TEST(SmpContention, PersistGateSerialisesAcrossCores)
{
    auto solo = smallHams(HamsMode::Persist);
    runSmp(*solo, "rndRd", 1, 150000);
    // One in-order core has at most one miss in flight: the gate never
    // queues.
    EXPECT_EQ(solo->stats().persistGateWaits, 0u);
    EXPECT_EQ(solo->stats().gateQueuePeakDepth, 0u);

    auto quad = smallHams(HamsMode::Persist);
    runSmp(*quad, "rndRd", 4, 150000);
    EXPECT_GT(quad->stats().persistGateWaits, 0u);
    EXPECT_GT(quad->stats().gateQueuePeakDepth, 0u);
}

// ---------------------------------------------------------------------
// Hot-path discipline: the per-core hit path through the SMP conductor
// allocates nothing in steady state.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Background GC under SMP: device-internal collection events share the
// queue with four cores' accesses. Runs must stay rerun-deterministic,
// the inline fast-path gate must keep declining while GC events are
// pending (pinned end-to-end by inline-on == inline-off bit-identity),
// and the hit path stays allocation-free with the engine enabled.
// ---------------------------------------------------------------------

/**
 * A small HAMS machine whose ULL-Flash runs background GC, prefilled
 * to 65% so the dirty evictions of a cache-overflowing write workload
 * overwrite live LBAs and drive real collection during the run.
 */
std::unique_ptr<HamsSystem>
smallHamsBgGc()
{
    HamsSystemConfig c = HamsSystemConfig::tightExtend();
    c.nvdimm.capacity = 96ull << 20;
    c.ssdRawBytes = 512ull << 20; // 8 blocks/plane: GC within reach
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false;
    c.ftl.backgroundGc = true;
    auto sys = std::make_unique<HamsSystem>(c);

    Ssd& ssd = sys->ullFlash();
    PageFtl& ftl = ssd.pageFtl();
    std::uint64_t pages = ftl.logicalPages() * 65 / 100;
    Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
        t = ftl.writePage(lpn, ssd.config().geom.pageSize, t);
    sys->eventQueue().run(); // settle pre-run idle collection
    ssd.flashLayer().reset(); // prefilled but idle device
    ftl.onFlashReset();       // handles died with the FIL's registry
    return sys;
}

SmpResult
runBgGcSmp(HamsSystem& sys, bool inline_on)
{
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndWr", 128ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    SmpConfig cfg;
    cfg.core.inlineFastPath = inline_on;
    SmpModel smp(sys, cfg);
    smp.run(raw, 100000);
    return smp.run(raw, 200000);
}

TEST(SmpBackgroundGc, FourCoreRerunIdenticalAndGateSound)
{
    auto p1 = smallHamsBgGc();
    auto p2 = smallHamsBgGc();
    SmpResult r1 = runBgGcSmp(*p1, /*inline_on=*/true);
    SmpResult r2 = runBgGcSmp(*p2, /*inline_on=*/true);

    // Collection genuinely ran as background events and overlapped
    // with host traffic (it may still be mid-victim when the budget
    // runs out — an active machine then holds a pending step event,
    // which is exactly what keeps the inline gate declining).
    const FtlStats& fs = p1->ullFlash().ftlStats();
    EXPECT_GT(fs.gcBatches, 0u) << "background GC never stepped";
    EXPECT_GT(fs.gcForegroundOverlap, 0u)
        << "no host op overlapped active collection";
    if (p1->ullFlash().pageFtl().gcActive())
        EXPECT_GT(p1->eventQueue().pending(), 0u)
            << "active machine with an empty queue";

    // Rerun-deterministic, including the device-internal engine.
    for (std::uint32_t c = 0; c < 4; ++c)
        expectSameFields(r1.perCore[c], r2.perCore[c], "bg-GC rerun");
    expectSameFields(r1.combined, r2.combined, "bg-GC combined");
    expectSameFields(p1->stats(), p2->stats(), "bg-GC HamsStats");
    EXPECT_EQ(p1->eventQueue().now(), p2->eventQueue().now());
    EXPECT_EQ(p1->eventQueue().fired(), p2->eventQueue().fired());
    expectSameFields(fs, p2->ullFlash().ftlStats(), "bg-GC FtlStats");

    // Gate soundness, end to end: pending GC events force the event
    // path, so enabling the inline fast path must not change a single
    // simulated result. A gate that wrongly accepted while collection
    // events were pending would complete inline at a tick that ignores
    // them and diverge here.
    auto p3 = smallHamsBgGc();
    SmpResult r3 = runBgGcSmp(*p3, /*inline_on=*/false);
    for (std::uint32_t c = 0; c < 4; ++c)
        expectSameFields(r1.perCore[c], r3.perCore[c],
                         "bg-GC inline on vs off");
    expectSameFields(p1->stats(), p3->stats(),
                     "bg-GC HamsStats inline on vs off");
    EXPECT_EQ(p1->eventQueue().now(), p3->eventQueue().now());
}

TEST(SmpBackgroundGc, HitPathStaysAllocationFree)
{
    // Same discipline as SmpZeroAlloc.HitPathThroughConductor, with
    // the background collector enabled and engaged: equal allocation
    // deltas between a short and a long measured run mean the per-op
    // cost — host path and GC machinery included — is zero.
    auto sys = smallHamsBgGc();
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndWr", 128ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(*sys);
    // Warm pools, arenas, GC machines and every block's lazily
    // allocated page arrays: collection keeps opening fresh blocks,
    // so the first-touch tail is longer than the host-only paths'.
    smp.run(raw, 600000);

    alloc_hook::AllocCounter allocs;
    smp.run(raw, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    smp.run(raw, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-op allocations on the SMP path with background GC";
    EXPECT_GT(sys->ullFlash().ftlStats().gcBatches, 0u);
}

TEST(SmpZeroAlloc, HitPathThroughConductor)
{
    // Working set fits the NVDIMM cache: after warmup every platform
    // access is an extend-mode hit. Equal allocation deltas between a
    // short and a long measured run mean the per-access (and per-op)
    // cost is literally zero.
    auto sys = smallHams(HamsMode::Extend);
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndRd", 16ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(*sys);
    smp.run(raw, 150000); // warm caches, pools, arenas

    alloc_hook::AllocCounter allocs;
    smp.run(raw, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    smp.run(raw, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations in the SMP conductor hit path";
    EXPECT_GT(sys->stats().hits, 0u);
}

} // namespace
} // namespace hams
