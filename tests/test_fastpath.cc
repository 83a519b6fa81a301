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
#include <tuple>
#include <utility>

#include "baselines/flatflash_platform.hh"
#include "baselines/mmap_platform.hh"
#include "baselines/nvdimm_c_platform.hh"
#include "baselines/optane_platform.hh"
#include "baselines/oracle_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "sim/alloc_hook.hh"
#include "workload/workload.hh"

#include "expect_fields.hh"

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

/**
 * Run @p workload twice (warmup + measure, the split bench::runOn
 * makes on every figure cell — the chained second run also checks
 * event-queue time at run boundaries)
 * on two fresh, identical platforms, fast path forced on vs off, and
 * demand bit-identical simulated-time outputs. Returns the {on, off}
 * platforms for platform-specific checks.
 */
template <typename MakePlatform>
auto
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
    expectSameFields(warm_on, warm_off, tag + " (warmup)");
    expectSameFields(meas_on, meas_off, tag + " (measure)");
    EXPECT_EQ(p_on->eventQueue().now(), p_off->eventQueue().now()) << tag;
    return std::make_pair(std::move(p_on), std::move(p_off));
}

TEST(FastPathDifferential, MmfRndWrOnMmap)
{
    differential(smallMmap, "rndWr", 200000);
}

TEST(FastPathDifferential, SqliteUpdateOnMmap)
{
    differential(smallMmap, "update", 800000);
}

/**
 * The other always-inline baselines: their event path is the default
 * MemoryPlatform::access() over tryAccess(), so inline off runs it on
 * every access, and inline on must fire fewer events. Caches smaller
 * than the 32 MiB dataset keep the miss arithmetic (refresh windows,
 * migrations, promotions) in play; update's long compute phases need
 * the larger budget to reach a few thousand accesses.
 */
template <typename MakePlatform>
void
baselineDifferential(MakePlatform make, const std::string& workload)
{
    std::uint64_t budget = workload == "update" ? 8000000 : 200000;
    auto [p_on, p_off] = differential(make, workload, budget);
    EXPECT_LT(p_on->eventQueue().fired(), p_off->eventQueue().fired());
}

TEST(FastPathDifferential, RndWrOnNvdimmC)
{
    baselineDifferential(
        [] {
            NvdimmCConfig c;
            c.dramBytes = 16ull << 20;
            c.flashRawBytes = 1ull << 30;
            return std::make_unique<NvdimmCPlatform>(c);
        },
        "rndWr");
}

TEST(FastPathDifferential, UpdateOnOptaneP)
{
    baselineDifferential(
        [] {
            OptaneConfig c;
            c.pmmBytes = 1ull << 30;
            return std::make_unique<OptanePlatform>(c);
        },
        "update");
}

TEST(FastPathDifferential, RndWrOnOptaneM)
{
    baselineDifferential(
        [] {
            OptaneConfig c;
            c.memoryMode = true;
            c.pmmBytes = 1ull << 30;
            c.dramCacheBytes = 16ull << 20;
            return std::make_unique<OptanePlatform>(c);
        },
        "rndWr");
}

TEST(FastPathDifferential, RndRdOnFlatFlashP)
{
    baselineDifferential(
        [] {
            FlatFlashConfig c;
            c.ssdRawBytes = 1ull << 30;
            return std::make_unique<FlatFlashPlatform>(c);
        },
        "rndRd");
}

TEST(FastPathDifferential, UpdateOnFlatFlashM)
{
    baselineDifferential(
        [] {
            FlatFlashConfig c;
            c.hostCaching = true;
            c.hostDramBytes = 16ull << 20;
            c.ssdRawBytes = 1ull << 30;
            return std::make_unique<FlatFlashPlatform>(c);
        },
        "update");
}

TEST(FastPathDifferential, RndWrOnOracle)
{
    baselineDifferential(
        [] {
            return std::make_unique<OraclePlatform>(OracleConfig{1ull << 30});
        },
        "rndWr");
}

const char*
modeName(HamsMode mode)
{
    return mode == HamsMode::Persist ? "Persist" : "Extend";
}

/** {workload} x {Extend, Persist}, inline on vs off. */
class HamsFastPathDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, HamsMode>>
{
};

TEST_P(HamsFastPathDifferential, InlineOnMatchesOff)
{
    const auto& [workload, mode] = GetParam();
    std::uint64_t budget = workload == "update" ? 800000 : 200000;
    auto [p_on, p_off] =
        differential([mode = mode] { return smallHams(mode); }, workload,
                     budget);
    expectSameFields(p_on->stats(), p_off->stats(), "HamsStats");
    expectSameFields(p_on->engineStats(), p_off->engineStats(),
                     "NvmeEngineStats");
    // The fast path actually engaged: hits dominate the micro workloads
    // and each inline completion skips the event round trip, so the
    // fired-event count must drop well below the all-events run.
    if (workload != "update") {
        EXPECT_LT(p_on->eventQueue().fired(),
                  p_off->eventQueue().fired() / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, HamsFastPathDifferential,
    ::testing::Combine(::testing::Values("rndRd", "rndWr", "update"),
                       ::testing::Values(HamsMode::Extend,
                                         HamsMode::Persist)),
    [](const auto& info) {
        return std::get<0>(info.param) + modeName(std::get<1>(info.param));
    });

/** Both HAMS modes: idle-frame hits complete inline in either. */
class FastPathZeroAlloc : public ::testing::TestWithParam<HamsMode>
{
};

TEST_P(FastPathZeroAlloc, HitPathThroughFullCoreLoop)
{
    // A working set that fits the NVDIMM cache: after the warmup run
    // every platform access is a hit, completed inline in either mode.
    // The measured runs differ only in op count, so equal allocation
    // deltas mean the per-access cost is literally zero — any per-op
    // allocation anywhere in the core loop (workload gen, caches,
    // callbacks, controller) would separate them.
    auto sys = smallHams(GetParam());
    auto gen = makeWorkload("rndRd", 16ull << 20);
    CoreModel core(*sys);
    core.run(*gen, 300000); // warm caches, pools, arenas

    alloc_hook::AllocCounter allocs;
    core.run(*gen, 100000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    std::uint64_t fired = sys->eventQueue().fired();
    RunResult r = core.run(*gen, 400000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations on the inline hit path";
    EXPECT_GT(sys->stats().hits, 0u);
    // ...and the hits really completed inline, not as events.
    EXPECT_LT(sys->eventQueue().fired() - fired, r.platformAccesses / 100);
}

INSTANTIATE_TEST_SUITE_P(BothModes, FastPathZeroAlloc,
                         ::testing::Values(HamsMode::Extend,
                                           HamsMode::Persist),
                         [](const auto& info) {
                             return std::string(modeName(info.param));
                         });

} // namespace
} // namespace hams
