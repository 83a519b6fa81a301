/**
 * @file
 * Core-model tests: cache hierarchy filtering, IPC accounting, stall
 * attribution and the platform-sensitivity property that drives the
 * paper's Fig. 7b.
 */

#include <gtest/gtest.h>

#include "baselines/mmap_platform.hh"
#include "baselines/nvdimm_c_platform.hh"
#include "baselines/oracle_platform.hh"
#include "core/hams_system.hh"
#include "cpu/cache_model.hh"
#include "cpu/core_model.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

#include "cache_reference.hh"

namespace hams {
namespace {

TEST(CacheModelTest, HitAfterMiss)
{
    CacheModel c(CacheConfig{1024, 64, 2, nanoseconds(1)});
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheModelTest, LruReplacementWithinSet)
{
    // 2-way, 8 sets of 64 B lines: lines 0, 512, 1024 alias set 0.
    CacheModel c(CacheConfig{1024, 64, 2, nanoseconds(1)});
    c.access(0, false);
    c.access(512, false);
    c.access(0, false);      // refresh line 0
    c.access(1024, false);   // evicts 512 (LRU)
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_FALSE(c.access(512, false).hit);
}

TEST(CacheModelTest, DirtyVictimReported)
{
    // 128 B direct-mapped cache, 64 B lines: addresses 0 and 128 alias
    // set 0, so the second access evicts the dirty line 0.
    CacheModel d(CacheConfig{128, 64, 1, nanoseconds(1)});
    d.access(0, true); // dirty
    CacheResult r = d.access(128, false);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedLine, 0u);
}

TEST(CacheModelTest, FlushInvalidates)
{
    CacheModel c(CacheConfig{1024, 64, 2, nanoseconds(1)});
    c.access(0, true);
    c.flush();
    EXPECT_FALSE(c.access(0, false).hit);
}

TEST(CacheModelTest, MatchesStampLruReference)
{
    // 16 sets per geometry; per set, 2x ways distinct tags give both
    // reuse and conflict misses, and 1 access in 8 is a cold line far
    // away. flush() lands mid-stream.
    for (std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
        CacheConfig cfg{16ull * ways * 64, 64, ways, nanoseconds(1)};
        CacheModel model(cfg);
        ReferenceCache ref(cfg);
        Rng rng(ways);
        for (int i = 0; i < 200000; ++i) {
            if (i == 120000) {
                model.flush();
                ref.flush();
            }
            std::uint64_t line =
                rng.chance(0.125) ? rng.below(1ull << 40)
                                  : rng.below(16) + 16 * rng.below(2 * ways);
            Addr addr = line * 64 + rng.below(64);
            bool is_write = rng.chance(0.3);
            CacheResult got = model.access(addr, is_write);
            CacheResult want = ref.access(addr, is_write);
            ASSERT_EQ(got.hit, want.hit) << ways << "-way, access " << i;
            ASSERT_EQ(got.evictedDirty, want.evictedDirty)
                << ways << "-way, access " << i;
            ASSERT_EQ(got.evictedLine, want.evictedLine)
                << ways << "-way, access " << i;
        }
        EXPECT_EQ(model.hits(), ref.hits) << ways << "-way";
        EXPECT_EQ(model.misses(), ref.misses) << ways << "-way";
        EXPECT_GT(ref.hits, 0u) << ways << "-way";
    }
}

TEST(CacheModelTest, RejectsUnsupportedGeometry)
{
    // Line size not a power of two.
    EXPECT_THROW(CacheModel(CacheConfig{96 * 64, 96, 1, nanoseconds(1)}),
                 FatalError);
    // 192 KiB / 64 B lines / 1 way = 3072 sets.
    EXPECT_THROW(CacheModel(CacheConfig{192 * 1024, 64, 1, nanoseconds(1)}),
                 FatalError);
    EXPECT_THROW(CacheModel(CacheConfig{64 * 1024, 64, 0, nanoseconds(1)}),
                 FatalError);
    EXPECT_THROW(CacheModel(CacheConfig{17 * 64 * 64, 64, 17, nanoseconds(1)}),
                 FatalError);
    EXPECT_NO_THROW(CacheModel(CacheConfig{16 * 64 * 64, 64, 16,
                                           nanoseconds(1)}));
}

TEST(CoreModel, RunsBudgetedInstructions)
{
    OraclePlatform oracle(OracleConfig{1ull << 30});
    CoreModel core(oracle);
    auto gen = makeWorkload("seqRd", 16ull << 20);
    RunResult r = core.run(*gen, 100000);
    EXPECT_GE(r.instructions, 100000u);
    EXPECT_GT(r.simTime, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.opsCompleted, 0u);
}

TEST(CoreModel, CachesFilterPlatformTraffic)
{
    OraclePlatform oracle(OracleConfig{1ull << 30});
    CoreModel core(oracle);
    // A 1 MiB random working set fits in the 2 MB L2: after warmup the
    // caches absorb most of the traffic.
    WorkloadSpec spec;
    spec.name = "hotset";
    spec.family = "micro";
    spec.datasetBytes = 1ull << 20;
    spec.pattern = AccessPattern::Random;
    spec.readFraction = 1.0;
    spec.accessesPerOp = 16;
    spec.computePerAccess = 1;
    SyntheticWorkload gen(spec);
    RunResult r = core.run(gen, 200000);
    EXPECT_LT(r.platformAccesses, r.memInstructions);
    EXPECT_GT(r.l1Hits + r.l2Hits, 0u);
}

TEST(CoreModel, IpcCollapsesOnSlowPlatform)
{
    // The paper's Fig. 7b: the same workload's IPC collapses by orders
    // of magnitude when raw flash backs the MMU instead of DRAM.
    auto gen1 = makeWorkload("rndRd", 32ull << 20);
    auto gen2 = makeWorkload("rndRd", 32ull << 20);

    OraclePlatform oracle(OracleConfig{1ull << 30});
    CoreModel fast_core(oracle);
    RunResult fast = fast_core.run(*gen1, 300000);

    MmapConfig mcfg;
    mcfg.dramBytes = 64ull << 20;
    mcfg.pageCacheBytes = 8ull << 20; // thrashes
    mcfg.ssdRawBytes = 1ull << 30;
    MmapPlatform slow(mcfg);
    CoreModel slow_core(slow);
    RunResult slow_r = slow_core.run(*gen2, 300000);

    EXPECT_GT(fast.ipc, 5 * slow_r.ipc);
    EXPECT_GT(slow_r.stallTime, slow_r.activeTime);
}

TEST(CoreModel, StallBreakdownPopulated)
{
    MmapConfig mcfg;
    mcfg.dramBytes = 64ull << 20;
    mcfg.pageCacheBytes = 8ull << 20;
    mcfg.ssdRawBytes = 1ull << 30;
    MmapPlatform p(mcfg);
    CoreModel core(p);
    auto gen = makeWorkload("rndWr", 32ull << 20);
    RunResult r = core.run(*gen, 200000);
    EXPECT_GT(r.stallBreakdown.os, 0u);
    EXPECT_GT(r.stallBreakdown.ssd, 0u);
}

TEST(CoreModel, HamsBeatsMmapOnRandomPages)
{
    // The headline claim, in miniature: HAMS-backed random page access
    // must outrun the MMF stack.
    auto gen1 = makeWorkload("rndRd", 32ull << 20);
    auto gen2 = makeWorkload("rndRd", 32ull << 20);

    HamsSystemConfig hcfg = HamsSystemConfig::tightExtend();
    hcfg.nvdimm.capacity = 64ull << 20;
    hcfg.ssdRawBytes = 1ull << 30;
    hcfg.pinnedBytes = 32ull << 20;
    hcfg.functionalData = false;
    HamsSystem hams(hcfg);
    CoreModel hams_core(hams);
    RunResult hr = hams_core.run(*gen1, 200000);

    MmapConfig mcfg;
    mcfg.dramBytes = 64ull << 20;
    mcfg.pageCacheBytes = 24ull << 20;
    mcfg.ssdRawBytes = 1ull << 30;
    MmapPlatform mmap(mcfg);
    CoreModel mmap_core(mmap);
    RunResult mr = mmap_core.run(*gen2, 200000);

    EXPECT_GT(hr.pagesPerSec, mr.pagesPerSec);
}

TEST(CoreModel, CpuEnergyScalesWithTime)
{
    OraclePlatform oracle(OracleConfig{1ull << 30});
    CoreModel core(oracle);
    auto gen = makeWorkload("KMN", 16ull << 20);
    RunResult r = core.run(*gen, 150000);
    EXPECT_GT(r.cpuEnergyJ, 0.0);
}

TEST(CoreModel, FlushBarriersStallOnMmap)
{
    MmapConfig mcfg;
    mcfg.dramBytes = 64ull << 20;
    mcfg.pageCacheBytes = 32ull << 20;
    mcfg.ssdRawBytes = 1ull << 30;
    MmapPlatform p(mcfg);
    CoreModel core(p);
    // rndIns flushes every 32 ops at ~20 K instructions per op, so the
    // budget must span a whole commit group.
    auto gen = makeWorkload("rndIns", 32ull << 20);
    RunResult r = core.run(*gen, 2000000);
    EXPECT_GT(r.flushTime, 0u);
}

TEST(CoreModel, SoloRunSkipsEndOfRunResync)
{
    // CoreModel runs the SMP conductor with one core, which must not
    // apply the multi-core end-of-run resync (cpu/smp_model.hh, solo
    // rules): on nvdimm-C it moves the measured run's start tick and
    // with it the SQLite cells of fig16. The figures below were
    // recorded from the dedicated single-core driver the figure tables
    // were produced with.
    NvdimmCConfig cfg;
    cfg.dramBytes = 16ull << 20;
    cfg.flashRawBytes = 1ull << 30;
    NvdimmCPlatform p(cfg);
    auto gen = makeWorkload("seqSel", 22ull << 20);
    CoreModel core(p);
    RunResult warm = core.run(*gen, 1000000);
    RunResult r = core.run(*gen, 2000000);

    EXPECT_EQ(warm.simTime, 1412379788u);
    EXPECT_EQ(r.simTime, 2086343072u);
    EXPECT_EQ(r.instructions, 2000208u);
    EXPECT_EQ(r.memInstructions, 208u);
    EXPECT_EQ(r.platformAccesses, 204u);
    EXPECT_EQ(r.l1Hits, 4u);
    EXPECT_EQ(r.l2Hits, 0u);
    EXPECT_EQ(r.opsCompleted, 42u);
    EXPECT_EQ(r.pagesTouched, 164u);
    EXPECT_EQ(r.activeTime, 1000004000u);
    EXPECT_EQ(r.stallTime, 1086339072u);
    EXPECT_EQ(r.flushTime, 0u);
    EXPECT_EQ(r.stallBreakdown.ssd, 102410000u);
    EXPECT_EQ(p.eventQueue().now(), 3494721860u);
}

} // namespace
} // namespace hams
