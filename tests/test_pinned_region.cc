/**
 * @file
 * Pinned-region tests: layout, MMU invisibility boundary, PRP pool
 * allocation and persistence of ring contents.
 */

#include <gtest/gtest.h>

#include "core/pinned_region.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace hams {
namespace {

NvdimmConfig
smallNvdimm()
{
    NvdimmConfig c;
    c.capacity = 256ull << 20;
    return c;
}

PinnedRegionConfig
smallPinned()
{
    PinnedRegionConfig c;
    c.size = 64ull << 20;
    c.queueEntries = 64;
    c.prpFrameBytes = 128 * 1024;
    return c;
}

TEST(PinnedRegion, CarvesTopOfNvdimm)
{
    Nvdimm n(smallNvdimm());
    PinnedRegion p(n, smallPinned());
    EXPECT_EQ(p.base(), (256ull << 20) - (64ull << 20));
    EXPECT_EQ(p.cacheBytes(), p.base());
    EXPECT_TRUE(p.contains(p.base()));
    EXPECT_TRUE(p.contains(n.capacity() - 1));
    EXPECT_FALSE(p.contains(p.base() - 1));
}

TEST(PinnedRegion, PrpPoolAllocatesDistinctFrames)
{
    Nvdimm n(smallNvdimm());
    PinnedRegion p(n, smallPinned());
    Addr a = p.allocPrpFrame();
    Addr b = p.allocPrpFrame();
    EXPECT_NE(a, b);
    EXPECT_TRUE(p.isPrpFrame(a));
    EXPECT_TRUE(p.isPrpFrame(b));
    EXPECT_EQ(a % (128 * 1024), 0u);
}

TEST(PinnedRegion, FreeReturnsFramesToPool)
{
    Nvdimm n(smallNvdimm());
    PinnedRegion p(n, smallPinned());
    std::uint32_t before = p.prpFramesFree();
    Addr a = p.allocPrpFrame();
    EXPECT_EQ(p.prpFramesFree(), before - 1);
    p.freePrpFrame(a);
    EXPECT_EQ(p.prpFramesFree(), before);
}

TEST(PinnedRegion, FramesLiveInsidePinnedRegion)
{
    Nvdimm n(smallNvdimm());
    PinnedRegion p(n, smallPinned());
    for (int i = 0; i < 16; ++i) {
        Addr f = p.allocPrpFrame();
        EXPECT_TRUE(p.contains(f));
        EXPECT_TRUE(p.contains(f + 128 * 1024 - 1));
    }
}

TEST(PinnedRegion, QueuePairBackedByNvdimmStore)
{
    Nvdimm n(smallNvdimm());
    PinnedRegion p(n, smallPinned());
    NvmeCommand cmd = makeReadCommand(5, 10, 1, 0);
    cmd.journalTag = 1;
    p.queuePair().push(cmd);
    // The SQ bytes must live in the NVDIMM's functional store, inside
    // the pinned region.
    NvmeCommand raw;
    n.data()->read(p.queuePair().sqBase(), &raw, sizeof(raw));
    EXPECT_EQ(raw.cid, 5);
    EXPECT_EQ(raw.journalTag, 1u);
    EXPECT_TRUE(p.contains(p.queuePair().sqBase()));
}

TEST(PinnedRegion, RingContentsSurviveNvdimmPowerCycle)
{
    Nvdimm n(smallNvdimm());
    PinnedRegion p(n, smallPinned());
    p.queuePair().push(makeWriteCommand(9, 3, 1, 0x100, true));
    n.powerFail();
    EventQueue eq;
    n.beginRestore(eq, 0, nullptr, nullptr);
    eq.run();
    EXPECT_EQ(n.state(), Nvdimm::State::Operational);
    EXPECT_EQ(p.queuePair().readSlot(0).cid, 9);
}

TEST(PinnedRegion, RejectsOversizedCarveOut)
{
    Nvdimm n(smallNvdimm());
    PinnedRegionConfig c = smallPinned();
    c.size = 512ull << 20; // bigger than the module
    EXPECT_THROW(PinnedRegion(n, c), FatalError);
}

TEST(PinnedRegion, ExhaustionPanics)
{
    Nvdimm n(smallNvdimm());
    PinnedRegionConfig c = smallPinned();
    PinnedRegion p(n, c);
    for (std::uint32_t i = 0; i < p.prpFramesTotal(); ++i)
        p.allocPrpFrame();
    EXPECT_DEATH(p.allocPrpFrame(), "PRP pool exhausted");
}

} // namespace
} // namespace hams
