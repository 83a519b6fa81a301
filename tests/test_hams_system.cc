/**
 * @file
 * End-to-end HamsSystem tests across all four variants: data-plane
 * integrity, hit/miss behaviour, persist-vs-extend ordering, topology
 * effects and the MMU-invisible pinned region.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/hams_system.hh"
#include "sim/logging.hh"

namespace hams {
namespace {

HamsSystemConfig
smallConfig(HamsMode mode, HamsTopology topo)
{
    HamsSystemConfig c;
    c.mode = mode;
    c.topology = topo;
    c.nvdimm.capacity = 256ull << 20;
    c.ssdRawBytes = 2ull << 30;
    c.pinnedBytes = 64ull << 20;
    c.queueEntries = 256;
    return c;
}

/** All four paper variants, exercised identically. */
class HamsVariants
    : public ::testing::TestWithParam<std::pair<HamsMode, HamsTopology>>
{
};

TEST_P(HamsVariants, DataRoundTripWithinCache)
{
    auto [mode, topo] = GetParam();
    HamsSystem sys(smallConfig(mode, topo));
    std::uint64_t v = 0x1122334455667788ull;
    sys.write(4096, &v, sizeof(v));
    std::uint64_t out = 0;
    sys.read(4096, &out, sizeof(out));
    EXPECT_EQ(out, v);
}

TEST_P(HamsVariants, DataSurvivesEvictionAndRefill)
{
    auto [mode, topo] = GetParam();
    HamsSystemConfig cfg = smallConfig(mode, topo);
    HamsSystem sys(cfg);

    // Two addresses that alias to the same direct-mapped set force an
    // eviction of the first when the second arrives.
    std::uint64_t cache_bytes = sys.pinnedRegion().cacheBytes();
    cache_bytes -= cache_bytes % cfg.mosPageBytes;
    Addr a = 0;
    Addr b = cache_bytes; // same index 0, different tag

    std::uint32_t va = 0xAAAA5555, vb = 0x5555AAAA;
    sys.write(a, &va, sizeof(va));
    sys.write(b, &vb, sizeof(vb)); // evicts page of `a` to ULL-Flash

    std::uint32_t out = 0;
    sys.read(a, &out, sizeof(out)); // must refill from ULL-Flash
    EXPECT_EQ(out, va);
    sys.read(b, &out, sizeof(out));
    EXPECT_EQ(out, vb);
    EXPECT_GE(sys.stats().dirtyEvictions, 1u);
    EXPECT_GE(sys.stats().fills, 2u);
}

TEST_P(HamsVariants, HitIsMuchFasterThanMiss)
{
    auto [mode, topo] = GetParam();
    HamsSystem sys(smallConfig(mode, topo));
    EventQueue& eq = sys.eventQueue();

    MemAccess acc{0, 64, MemOp::Read};
    Tick miss_done = 0, t0 = eq.now();
    sys.access(acc, t0, [&](Tick t, const LatencyBreakdown&) {
        miss_done = t;
    });
    eq.run();
    Tick miss_latency = miss_done - t0;

    Tick hit_done = 0, t1 = eq.now();
    sys.access(acc, t1, [&](Tick t, const LatencyBreakdown&) {
        hit_done = t;
    });
    eq.run();
    Tick hit_latency = hit_done - t1;

    EXPECT_LT(hit_latency, microseconds(1));
    EXPECT_GT(miss_latency, 5 * hit_latency);
    EXPECT_EQ(sys.stats().hits, 1u);
    EXPECT_EQ(sys.stats().misses, 1u);
}

TEST_P(HamsVariants, BreakdownAttributesMissComponents)
{
    auto [mode, topo] = GetParam();
    HamsSystem sys(smallConfig(mode, topo));
    EventQueue& eq = sys.eventQueue();

    LatencyBreakdown bd;
    sys.access(MemAccess{0, 64, MemOp::Read}, 0,
               [&](Tick, const LatencyBreakdown& b) { bd = b; });
    eq.run();
    EXPECT_GT(bd.nvdimm, 0u); // final service from the NVDIMM frame
    EXPECT_GT(bd.ssd + bd.dma, 0u); // the fill itself
}

TEST_P(HamsVariants, CapacityIsUllFlashNotNvdimm)
{
    auto [mode, topo] = GetParam();
    HamsSystemConfig cfg = smallConfig(mode, topo);
    HamsSystem sys(cfg);
    EXPECT_GT(sys.capacity(), cfg.nvdimm.capacity);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, HamsVariants,
    ::testing::Values(
        std::make_pair(HamsMode::Persist, HamsTopology::Loose),
        std::make_pair(HamsMode::Extend, HamsTopology::Loose),
        std::make_pair(HamsMode::Persist, HamsTopology::Tight),
        std::make_pair(HamsMode::Extend, HamsTopology::Tight)),
    [](const auto& info) {
        std::string n;
        n += info.param.second == HamsTopology::Loose ? "Loose" : "Tight";
        n += info.param.first == HamsMode::Persist ? "Persist" : "Extend";
        return n;
    });

TEST(HamsSystem, NamesFollowPaperConvention)
{
    EXPECT_EQ(HamsSystem(smallConfig(HamsMode::Persist,
                                     HamsTopology::Loose)).name(),
              "hams-LP");
    EXPECT_EQ(HamsSystem(smallConfig(HamsMode::Extend,
                                     HamsTopology::Loose)).name(),
              "hams-LE");
    EXPECT_EQ(HamsSystem(smallConfig(HamsMode::Persist,
                                     HamsTopology::Tight)).name(),
              "hams-TP");
    EXPECT_EQ(HamsSystem(smallConfig(HamsMode::Extend,
                                     HamsTopology::Tight)).name(),
              "hams-TE");
}

TEST(HamsSystem, PersistModeUsesFuaAndSerialises)
{
    HamsSystem p(smallConfig(HamsMode::Persist, HamsTopology::Loose));
    HamsSystemConfig ecfg = smallConfig(HamsMode::Extend,
                                        HamsTopology::Loose);
    HamsSystem e(ecfg);

    // Generate enough conflict misses to require evictions.
    std::uint64_t page = 128 * 1024;
    std::uint64_t cache = p.pinnedRegion().cacheBytes();
    for (int i = 0; i < 6; ++i) {
        std::uint32_t v = i;
        p.write((i % 2) * cache + page * std::uint64_t(i % 3), &v,
                sizeof(v));
        e.write((i % 2) * cache + page * std::uint64_t(i % 3), &v,
                sizeof(v));
    }
    EXPECT_GT(p.ullFlash().stats().fuaWrites, 0u);
    EXPECT_EQ(e.ullFlash().stats().fuaWrites, 0u);
}

TEST(HamsSystem, PersistModeIsSlowerOnMisses)
{
    HamsSystem p(smallConfig(HamsMode::Persist, HamsTopology::Loose));
    HamsSystem e(smallConfig(HamsMode::Extend, HamsTopology::Loose));

    auto miss_storm = [](HamsSystem& sys) {
        std::uint64_t cache = sys.pinnedRegion().cacheBytes();
        Tick last = 0;
        for (int i = 0; i < 8; ++i) {
            std::uint32_t v = i;
            // Alternate tags on the same set: every access misses and
            // every miss evicts a dirty victim.
            last = sys.write((i % 2) ? cache : 0, &v, sizeof(v));
        }
        return last;
    };
    Tick tp = miss_storm(p);
    Tick te = miss_storm(e);
    EXPECT_GT(tp, te);
}

TEST(HamsSystem, TightTopologyBeatsLooseOnMisses)
{
    HamsSystem loose(smallConfig(HamsMode::Extend, HamsTopology::Loose));
    HamsSystem tight(smallConfig(HamsMode::Extend, HamsTopology::Tight));

    auto fill_storm = [](HamsSystem& sys) {
        // Sequential read misses across many MoS pages.
        Tick last = 0;
        std::vector<std::uint8_t> buf(64);
        for (int i = 0; i < 32; ++i)
            last = sys.read(Addr(i) * 128 * 1024, buf.data(), 64);
        return last;
    };
    Tick tl = fill_storm(loose);
    Tick tt = fill_storm(tight);
    EXPECT_LT(tt, tl);
}

TEST(HamsSystem, TightTopologyHasNoSsdBuffer)
{
    HamsSystem tight(smallConfig(HamsMode::Extend, HamsTopology::Tight));
    HamsSystem loose(smallConfig(HamsMode::Extend, HamsTopology::Loose));
    EXPECT_EQ(tight.ullFlash().buffer(), nullptr);
    EXPECT_NE(loose.ullFlash().buffer(), nullptr);
    EXPECT_NE(tight.registerInterface(), nullptr);
    EXPECT_EQ(loose.registerInterface(), nullptr);
}

TEST(HamsSystem, RegisterInterfaceCarriesCommands)
{
    HamsSystem tight(smallConfig(HamsMode::Extend, HamsTopology::Tight));
    std::uint32_t v = 7;
    tight.write(0, &v, sizeof(v)); // one miss -> at least one command
    EXPECT_GT(tight.registerInterface()->stats().commandsSent, 0u);
    EXPECT_GT(tight.registerInterface()->stats().lockAcquisitions, 0u);
    EXPECT_FALSE(tight.registerInterface()->locked());
}

TEST(HamsSystem, WaitQueueParksConflictingAccesses)
{
    HamsSystemConfig cfg = smallConfig(HamsMode::Extend,
                                       HamsTopology::Loose);
    HamsSystem sys(cfg);
    EventQueue& eq = sys.eventQueue();

    // First access misses (frame becomes busy); a second access to the
    // same page while the fill is in flight must park and then finish.
    int completed = 0;
    sys.access(MemAccess{0, 64, MemOp::Read}, 0,
               [&](Tick, const LatencyBreakdown&) { ++completed; });
    sys.access(MemAccess{64, 64, MemOp::Read}, 10,
               [&](Tick, const LatencyBreakdown&) { ++completed; });
    EXPECT_EQ(sys.stats().waitQueued, 1u);
    eq.run();
    EXPECT_EQ(completed, 2);
}

TEST(HamsSystem, AccessBeyondCapacityFails)
{
    HamsSystem sys(smallConfig(HamsMode::Extend, HamsTopology::Loose));
    MemAccess bad{sys.capacity(), 64, MemOp::Read};
    EXPECT_THROW(sys.access(bad, 0, nullptr), FatalError);
}

TEST(HamsSystem, RejectsAnNvdimmWithoutItsDataPlane)
{
    HamsSystemConfig c = smallConfig(HamsMode::Extend, HamsTopology::Loose);
    c.nvdimm.functionalData = false;
    EXPECT_THROW(HamsSystem sys(c), FatalError);
}

TEST(HamsSystem, JournalTagsClearAfterQuiesce)
{
    HamsSystem sys(smallConfig(HamsMode::Extend, HamsTopology::Loose));
    std::uint32_t v = 1;
    sys.write(0, &v, sizeof(v));
    sys.write(sys.pinnedRegion().cacheBytes(), &v, sizeof(v));
    // All I/O completed synchronously: no journalled commands remain.
    EXPECT_TRUE(sys.nvmeEngine().scanJournal().empty());
    EXPECT_EQ(sys.nvmeEngine().outstanding(), 0u);
}

TEST(HamsSystem, MemoryEnergyIsPositiveAfterWork)
{
    HamsSystem sys(smallConfig(HamsMode::Extend, HamsTopology::Loose));
    std::uint32_t v = 3;
    sys.write(0, &v, sizeof(v));
    EnergyBreakdownJ e = sys.memoryEnergy(sys.eventQueue().now());
    EXPECT_GT(e.nvdimm, 0.0);
    EXPECT_GT(e.znand + e.internalDram, 0.0);
}

} // namespace
} // namespace hams
