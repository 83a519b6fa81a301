/**
 * @file
 * Direct HamsController unit tests: tag-state transitions, stat
 * accounting, write-allocate semantics, wait-queue fairness, boundary
 * validation — below the HamsSystem facade.
 */

#include <gtest/gtest.h>

#include "core/hams_system.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace hams {
namespace {

HamsSystemConfig
ctrlConfig()
{
    HamsSystemConfig c = HamsSystemConfig::looseExtend();
    c.nvdimm.capacity = 256ull << 20;
    c.ssdRawBytes = 2ull << 30;
    c.pinnedBytes = 64ull << 20;
    return c;
}

TEST(HamsControllerUnit, ColdTagArrayIsInvalid)
{
    HamsSystem sys(ctrlConfig());
    const MosTagArray& tags = sys.controller().tagArray();
    EXPECT_EQ(tags.residentCount(), 0u);
    EXPECT_EQ(tags.dirtyCount(), 0u);
}

TEST(HamsControllerUnit, ReadMissInstallsCleanLine)
{
    HamsSystem sys(ctrlConfig());
    sys.controller().access(MemAccess{0, 64, MemOp::Read},
                            sys.eventQueue().now(), nullptr);
    sys.eventQueue().run();
    const MosTagArray& tags = sys.controller().tagArray();
    EXPECT_TRUE(tags.entry(0).valid);
    EXPECT_FALSE(tags.entry(0).dirty);
    EXPECT_FALSE(tags.entry(0).busy);
}

TEST(HamsControllerUnit, WriteMissInstallsDirtyLine)
{
    HamsSystem sys(ctrlConfig());
    sys.controller().access(MemAccess{0, 64, MemOp::Write},
                            sys.eventQueue().now(), nullptr);
    sys.eventQueue().run();
    EXPECT_TRUE(sys.controller().tagArray().entry(0).dirty);
}

TEST(HamsControllerUnit, WriteHitDirtiesCleanLine)
{
    HamsSystem sys(ctrlConfig());
    sys.controller().access(MemAccess{0, 64, MemOp::Read},
                            sys.eventQueue().now(), nullptr);
    sys.eventQueue().run();
    EXPECT_FALSE(sys.controller().tagArray().entry(0).dirty);
    sys.controller().access(MemAccess{64, 64, MemOp::Write},
                            sys.eventQueue().now(), nullptr);
    sys.eventQueue().run();
    EXPECT_TRUE(sys.controller().tagArray().entry(0).dirty);
    EXPECT_EQ(sys.stats().hits, 1u);
}

TEST(HamsControllerUnit, CleanVictimNeedsNoEviction)
{
    HamsSystem sys(ctrlConfig());
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();
    // Fill set 0 with a clean line, then alias-read it out.
    sys.controller().access(MemAccess{0, 64, MemOp::Read},
                            sys.eventQueue().now(), nullptr);
    sys.eventQueue().run();
    sys.controller().access(MemAccess{cache, 64, MemOp::Read},
                            sys.eventQueue().now(), nullptr);
    sys.eventQueue().run();
    EXPECT_EQ(sys.stats().dirtyEvictions, 0u);
    EXPECT_EQ(sys.stats().cleanVictims, 1u);
    EXPECT_EQ(sys.stats().fills, 2u);
}

TEST(HamsControllerUnit, BusyBitSetDuringMissClearedAfter)
{
    HamsSystem sys(ctrlConfig());
    sys.controller().access(MemAccess{0, 64, MemOp::Read},
                            sys.eventQueue().now(), nullptr);
    EXPECT_TRUE(sys.controller().tagArray().entry(0).busy);
    sys.eventQueue().run();
    EXPECT_FALSE(sys.controller().tagArray().entry(0).busy);
}

TEST(HamsControllerUnit, WaitersServedInOrder)
{
    HamsSystem sys(ctrlConfig());
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        sys.controller().access(
            MemAccess{Addr(i) * 64, 64, MemOp::Read},
            sys.eventQueue().now(),
            [&order, i](Tick, const LatencyBreakdown&) {
                order.push_back(i);
            });
    }
    sys.eventQueue().run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sys.stats().waitQueued, 2u);
}

TEST(HamsControllerUnit, PageCrossingAccessRejected)
{
    HamsSystem sys(ctrlConfig());
    Addr page = sys.controller().pageBytes();
    MemAccess bad{page - 32, 64, MemOp::Read};
    EXPECT_THROW(sys.controller().access(bad, 0, nullptr), FatalError);
    // Crossing out of a later page, by a single byte, is caught too.
    MemAccess one_over{3 * page - 63, 64, MemOp::Read};
    EXPECT_THROW(sys.controller().access(one_over, 0, nullptr),
                 FatalError);
}

TEST(HamsControllerUnit, AccessEndingOnPageBoundaryAccepted)
{
    HamsSystem sys(ctrlConfig());
    Addr page = sys.controller().pageBytes();
    // The last line of page 2 ends exactly where page 3 begins.
    sys.controller().access(MemAccess{3 * page - 64, 64, MemOp::Write},
                            sys.eventQueue().now(), nullptr);
    sys.eventQueue().run();
    EXPECT_TRUE(sys.controller().tagArray().entry(2).dirty);
}

TEST(HamsControllerUnit, MemoryDelayAccumulates)
{
    HamsSystem sys(ctrlConfig());
    sys.controller().access(MemAccess{0, 64, MemOp::Read}, 0, nullptr);
    sys.eventQueue().run();
    EXPECT_GT(sys.stats().memoryDelay.total(), 0u);
}

TEST(HamsControllerUnit, FullPageWriteRoundTrip)
{
    HamsSystem sys(ctrlConfig());
    std::uint32_t page = sys.controller().pageBytes();
    std::vector<std::uint8_t> in(page), out(page, 0);
    for (std::uint32_t i = 0; i < page; ++i)
        in[i] = static_cast<std::uint8_t>(i * 131);
    sys.write(0, in.data(), page);
    sys.read(0, out.data(), page);
    EXPECT_EQ(in, out);
}

TEST(HamsControllerUnit, StatsConsistency)
{
    HamsSystem sys(ctrlConfig());
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();
    for (int i = 0; i < 10; ++i) {
        std::uint32_t v = i;
        sys.write((i % 2) ? cache : 0, &v, sizeof(v));
    }
    const HamsStats& st = sys.stats();
    // Every access is classified exactly once.
    EXPECT_EQ(st.hits + st.misses + st.waitQueued, st.accesses);
    // Every miss produced exactly one fill.
    EXPECT_EQ(st.fills, st.misses);
    // Dirty evictions cannot exceed misses.
    EXPECT_LE(st.dirtyEvictions, st.misses);
    // With PrpClone every dirty eviction cloned once.
    EXPECT_EQ(st.prpClones, st.dirtyEvictions);
}

/** Recovery property sweep across page sizes and modes. */
struct RecoverySweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, HamsMode>>
{
};

TEST_P(RecoverySweep, AckedWritesAreDurable)
{
    auto [page_bytes, mode] = GetParam();
    HamsSystemConfig c = ctrlConfig();
    c.mosPageBytes = page_bytes;
    c.mode = mode;
    HamsSystem sys(c);

    Rng rng(page_bytes ^ static_cast<std::uint32_t>(mode));
    std::unordered_map<std::uint64_t, std::uint64_t> expected;
    for (int i = 0; i < 24; ++i) {
        Addr addr = rng.below(sys.capacity() / 64) * 64;
        std::uint64_t v = rng.next();
        sys.write(addr, &v, sizeof(v));
        expected[addr] = v;
        if (i % 9 == 4) {
            sys.powerFail();
            sys.recover();
        }
    }
    sys.powerFail();
    sys.recover();
    for (const auto& [addr, v] : expected) {
        std::uint64_t out = 0;
        sys.read(addr, &out, sizeof(out));
        ASSERT_EQ(out, v) << "page=" << page_bytes << " addr=" << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndModes, RecoverySweep,
    ::testing::Combine(::testing::Values(4096u, 65536u, 131072u,
                                         262144u),
                       ::testing::Values(HamsMode::Persist,
                                         HamsMode::Extend)),
    [](const auto& info) {
        std::uint32_t page = std::get<0>(info.param);
        HamsMode mode = std::get<1>(info.param);
        return std::to_string(page / 1024) + "K" +
               (mode == HamsMode::Persist ? "Persist" : "Extend");
    });

} // namespace
} // namespace hams
