/**
 * @file
 * Immediate-completion fast-path tests: the core retire loop with
 * tryAccess inline completions must be observationally identical to the
 * all-events path — every simulated-time field of RunResult, the HAMS
 * controller stats and the NVMe engine stats bit-for-bit — and the hit
 * path must stay allocation-free through the *full* core loop, not just
 * the controller.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/mmap_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "sim/alloc_hook.hh"
#include "workload/workload.hh"

namespace hams {
namespace {

std::unique_ptr<MmapPlatform>
smallMmap()
{
    MmapConfig c;
    c.dramBytes = 64ull << 20;
    c.pageCacheBytes = 48ull << 20;
    c.ssdRawBytes = 1ull << 30;
    return std::make_unique<MmapPlatform>(c);
}

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

void
expectIdentical(const RunResult& a, const RunResult& b, const char* what)
{
    EXPECT_EQ(a.simTime, b.simTime) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.memInstructions, b.memInstructions) << what;
    EXPECT_EQ(a.platformAccesses, b.platformAccesses) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << what;
    EXPECT_EQ(a.opsCompleted, b.opsCompleted) << what;
    EXPECT_EQ(a.pagesTouched, b.pagesTouched) << what;
    EXPECT_EQ(a.activeTime, b.activeTime) << what;
    EXPECT_EQ(a.stallTime, b.stallTime) << what;
    EXPECT_EQ(a.flushTime, b.flushTime) << what;
    EXPECT_EQ(a.stallBreakdown.os, b.stallBreakdown.os) << what;
    EXPECT_EQ(a.stallBreakdown.nvdimm, b.stallBreakdown.nvdimm) << what;
    EXPECT_EQ(a.stallBreakdown.dma, b.stallBreakdown.dma) << what;
    EXPECT_EQ(a.stallBreakdown.ssd, b.stallBreakdown.ssd) << what;
    EXPECT_EQ(a.stallBreakdown.cpu, b.stallBreakdown.cpu) << what;
}

void
expectIdentical(const HamsStats& a, const HamsStats& b, const char* what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.fills, b.fills) << what;
    EXPECT_EQ(a.cleanVictims, b.cleanVictims) << what;
    EXPECT_EQ(a.dirtyEvictions, b.dirtyEvictions) << what;
    EXPECT_EQ(a.prpClones, b.prpClones) << what;
    EXPECT_EQ(a.waitQueued, b.waitQueued) << what;
    EXPECT_EQ(a.redundantEvictionsAvoided, b.redundantEvictionsAvoided)
        << what;
    EXPECT_EQ(a.persistGateWaits, b.persistGateWaits) << what;
    EXPECT_EQ(a.replayedCommands, b.replayedCommands) << what;
    EXPECT_EQ(a.memoryDelay.os, b.memoryDelay.os) << what;
    EXPECT_EQ(a.memoryDelay.nvdimm, b.memoryDelay.nvdimm) << what;
    EXPECT_EQ(a.memoryDelay.dma, b.memoryDelay.dma) << what;
    EXPECT_EQ(a.memoryDelay.ssd, b.memoryDelay.ssd) << what;
    EXPECT_EQ(a.memoryDelay.cpu, b.memoryDelay.cpu) << what;
}

void
expectIdentical(const NvmeEngineStats& a, const NvmeEngineStats& b,
                const char* what)
{
    EXPECT_EQ(a.submitted, b.submitted) << what;
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.journalSets, b.journalSets) << what;
    EXPECT_EQ(a.journalClears, b.journalClears) << what;
    EXPECT_EQ(a.replayed, b.replayed) << what;
}

/**
 * Run @p workload twice (warmup + measure, the runOn() pattern — the
 * chained second run also checks event-queue time at run boundaries)
 * on two fresh, identical platforms, fast path forced on vs off, and
 * demand bit-identical simulated-time outputs.
 */
template <typename MakePlatform>
void
differential(MakePlatform make, const std::string& workload,
             std::uint64_t budget)
{
    auto run_pair = [&](bool inline_on, RunResult& warm, RunResult& meas,
                        auto& platform) {
        auto gen = makeWorkload(workload, 32ull << 20);
        CoreConfig cc;
        cc.inlineFastPath = inline_on;
        CoreModel core(*platform, cc);
        warm = core.run(*gen, budget / 2);
        meas = core.run(*gen, budget);
    };

    auto p_on = make();
    auto p_off = make();
    RunResult warm_on, meas_on, warm_off, meas_off;
    run_pair(true, warm_on, meas_on, p_on);
    run_pair(false, warm_off, meas_off, p_off);

    std::string tag = workload + " on " + p_on->name();
    expectIdentical(warm_on, warm_off, (tag + " (warmup)").c_str());
    expectIdentical(meas_on, meas_off, (tag + " (measure)").c_str());
    EXPECT_EQ(p_on->eventQueue().now(), p_off->eventQueue().now()) << tag;
}

TEST(FastPathDifferential, MmfRndWrOnMmap)
{
    differential(smallMmap, "rndWr", 200000);
}

TEST(FastPathDifferential, MmfRndWrOnHamsExtend)
{
    auto make = [] { return smallHams(HamsMode::Extend); };
    auto p_on = make();
    auto p_off = make();

    auto run_both = [&](HamsSystem& sys, bool inline_on, RunResult& warm,
                        RunResult& meas) {
        auto gen = makeWorkload("rndWr", 32ull << 20);
        CoreConfig cc;
        cc.inlineFastPath = inline_on;
        CoreModel core(sys, cc);
        warm = core.run(*gen, 100000);
        meas = core.run(*gen, 200000);
    };
    RunResult warm_on, meas_on, warm_off, meas_off;
    run_both(*p_on, true, warm_on, meas_on);
    run_both(*p_off, false, warm_off, meas_off);

    expectIdentical(warm_on, warm_off, "rndWr hams-TE (warmup)");
    expectIdentical(meas_on, meas_off, "rndWr hams-TE (measure)");
    expectIdentical(p_on->stats(), p_off->stats(), "rndWr HamsStats");
    expectIdentical(p_on->engineStats(), p_off->engineStats(),
                    "rndWr NvmeEngineStats");
    EXPECT_EQ(p_on->eventQueue().now(), p_off->eventQueue().now());
    // The fast path actually engaged: hits dominate and each inline
    // completion skips the event round trip, so the fired-event count
    // must drop well below the all-events run.
    EXPECT_LT(p_on->eventQueue().fired(), p_off->eventQueue().fired() / 2);
}

TEST(FastPathDifferential, SqliteUpdateOnMmap)
{
    differential(smallMmap, "update", 800000);
}

TEST(FastPathDifferential, SqliteUpdateOnHamsExtend)
{
    auto make = [] { return smallHams(HamsMode::Extend); };
    auto p_on = make();
    auto p_off = make();
    auto run_both = [&](HamsSystem& sys, bool inline_on, RunResult& warm,
                        RunResult& meas) {
        auto gen = makeWorkload("update", 32ull << 20);
        CoreConfig cc;
        cc.inlineFastPath = inline_on;
        CoreModel core(sys, cc);
        warm = core.run(*gen, 400000);
        meas = core.run(*gen, 800000);
    };
    RunResult warm_on, meas_on, warm_off, meas_off;
    run_both(*p_on, true, warm_on, meas_on);
    run_both(*p_off, false, warm_off, meas_off);

    expectIdentical(warm_on, warm_off, "update hams-TE (warmup)");
    expectIdentical(meas_on, meas_off, "update hams-TE (measure)");
    expectIdentical(p_on->stats(), p_off->stats(), "update HamsStats");
    expectIdentical(p_on->engineStats(), p_off->engineStats(),
                    "update NvmeEngineStats");
    EXPECT_EQ(p_on->eventQueue().now(), p_off->eventQueue().now());
}

TEST(FastPathDifferential, PersistModeFallsBackIdentically)
{
    // Persist mode never completes inline (tryAccess declines); the
    // event-path fallback must still match the all-events run.
    auto make = [] { return smallHams(HamsMode::Persist); };
    auto p_on = make();
    auto p_off = make();
    auto run_one = [&](HamsSystem& sys, bool inline_on) {
        auto gen = makeWorkload("rndRd", 32ull << 20);
        CoreConfig cc;
        cc.inlineFastPath = inline_on;
        CoreModel core(sys, cc);
        return core.run(*gen, 100000);
    };
    RunResult on = run_one(*p_on, true);
    RunResult off = run_one(*p_off, false);
    expectIdentical(on, off, "rndRd hams-TP");
    expectIdentical(p_on->stats(), p_off->stats(), "rndRd HamsStats");
}

TEST(FastPathZeroAlloc, HitPathThroughFullCoreLoop)
{
    // A working set that fits the NVDIMM cache: after the warmup run
    // every platform access is an extend-mode hit, completed inline.
    // The measured runs differ only in op count, so equal allocation
    // deltas mean the per-access cost is literally zero — any per-op
    // allocation anywhere in the core loop (workload gen, caches,
    // callbacks, controller) would separate them.
    auto sys = smallHams(HamsMode::Extend);
    auto gen = makeWorkload("rndRd", 16ull << 20);
    CoreModel core(*sys);
    core.run(*gen, 300000); // warm caches, pools, arenas

    alloc_hook::AllocCounter allocs;
    core.run(*gen, 100000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    core.run(*gen, 400000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations on the inline hit path";
    EXPECT_GT(sys->stats().hits, 0u);
}

} // namespace
} // namespace hams
