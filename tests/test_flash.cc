/**
 * @file
 * Flash substrate tests: address codec, Z-NAND timing, FIL scheduling,
 * the parallelism properties the ULL-Flash design relies on, and the
 * tracked-op registry checked against a linear-scan reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flash/fil.hh"
#include "flash/nand_package.hh"
#include "flash/nand_timing.hh"
#include "sim/rng.hh"

namespace hams {
namespace {

FlashGeometry
smallGeom()
{
    FlashGeometry g;
    g.channels = 4;
    g.packagesPerChannel = 1;
    g.diesPerPackage = 2;
    g.planesPerDie = 2;
    g.blocksPerPlane = 16;
    g.pagesPerBlock = 32;
    g.pageSize = 2048;
    return g;
}

TEST(FlashAddress, RoundTripsAllFields)
{
    FlashGeometry g = smallGeom();
    for (std::uint64_t ppn = 0; ppn < g.totalPages(); ppn += 97) {
        FlashAddress a = FlashAddress::decompose(ppn, g);
        EXPECT_EQ(a.flatten(g), ppn);
        EXPECT_LT(a.channel, g.channels);
        EXPECT_LT(a.die, g.diesPerPackage);
        EXPECT_LT(a.plane, g.planesPerDie);
        EXPECT_LT(a.block, g.blocksPerPlane);
        EXPECT_LT(a.page, g.pagesPerBlock);
    }
}

TEST(FlashAddress, ParallelUnitIndexIsDense)
{
    FlashGeometry g = smallGeom();
    std::vector<bool> seen(g.parallelUnits(), false);
    for (std::uint32_t ch = 0; ch < g.channels; ++ch)
        for (std::uint32_t d = 0; d < g.diesPerPackage; ++d)
            for (std::uint32_t pl = 0; pl < g.planesPerDie; ++pl) {
                FlashAddress a{ch, 0, d, pl, 0, 0};
                ASSERT_LT(a.parallelUnit(g), g.parallelUnits());
                seen[a.parallelUnit(g)] = true;
            }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(FlashAddress, ConsecutiveUnitsRotateChannels)
{
    // Channel must be the innermost PU dimension so the FTL's
    // round-robin write allocation stripes across buses (the property
    // the ULL-Flash dual-channel split relies on).
    FlashGeometry g = smallGeom();
    std::uint64_t unit_pages = g.pagesPerPlane();
    FlashAddress u0 = FlashAddress::decompose(0, g);
    FlashAddress u1 = FlashAddress::decompose(unit_pages, g);
    EXPECT_NE(u0.channel, u1.channel);
}

/**
 * unitOf() against the FlashAddress codec over every PPN of @p g: same
 * channel, and its die and plane indices are dense bijections onto the
 * decoded (channel, package, die) and (channel, package, die, plane).
 */
void
expectUnitMatchesDecompose(const FlashGeometry& g)
{
    NandPackagePool pool(g);
    constexpr std::uint64_t unset = ~0ull;
    // index -> decoded resource it was first seen with, and back.
    std::vector<std::uint64_t> dieOwner(g.dies(), unset);
    std::vector<std::uint64_t> dieOf(g.dies(), unset);
    std::vector<std::uint64_t> planeOwner(g.parallelUnits(), unset);
    std::vector<std::uint64_t> planeOf(g.parallelUnits(), unset);
    auto same = [](std::vector<std::uint64_t>& v, std::uint64_t i,
                   std::uint64_t want) {
        if (v[i] == unset)
            v[i] = want;
        return v[i] == want;
    };
    for (std::uint64_t ppn = 0; ppn < g.totalPages(); ++ppn) {
        FlashAddress a = FlashAddress::decompose(ppn, g);
        FlashUnit u = pool.unitOf(ppn);
        std::uint64_t die =
            (std::uint64_t(a.channel) * g.packagesPerChannel + a.package) *
                g.diesPerPackage + a.die;
        std::uint64_t plane = die * g.planesPerDie + a.plane;
        ASSERT_EQ(u.channel, a.channel) << "ppn " << ppn;
        ASSERT_LT(u.die, g.dies()) << "ppn " << ppn;
        ASSERT_LT(u.plane, g.parallelUnits()) << "ppn " << ppn;
        ASSERT_TRUE(same(dieOwner, u.die, die)) << "ppn " << ppn;
        ASSERT_TRUE(same(dieOf, die, u.die)) << "ppn " << ppn;
        ASSERT_TRUE(same(planeOwner, u.plane, plane)) << "ppn " << ppn;
        ASSERT_TRUE(same(planeOf, plane, u.plane)) << "ppn " << ppn;
    }
    EXPECT_DEATH(pool.unitOf(g.totalPages()), "out of range");
}

TEST(FlashUnit, PowerOfTwoDecodeIsTheAddressDecode)
{
    expectUnitMatchesDecompose(smallGeom());
    FlashGeometry g = smallGeom();
    g.packagesPerChannel = 2;
    expectUnitMatchesDecompose(g);
}

TEST(FlashUnit, DivisionDecodeIsTheAddressDecode)
{
    FlashGeometry g;
    g.channels = 3;
    g.packagesPerChannel = 2;
    g.diesPerPackage = 3;
    g.planesPerDie = 2;
    g.blocksPerPlane = 5;
    g.pagesPerBlock = 6;
    expectUnitMatchesDecompose(g);
    // One non-power-of-two dimension is enough to leave the shift path.
    g = smallGeom();
    g.blocksPerPlane = 48;
    expectUnitMatchesDecompose(g);
}

TEST(FlashGeometry, CapacityArithmetic)
{
    FlashGeometry g = smallGeom();
    EXPECT_EQ(g.parallelUnits(), 16u);
    EXPECT_EQ(g.totalPages(), 16u * 16 * 32);
    EXPECT_EQ(g.rawCapacity(), g.totalPages() * 2048);
}

TEST(NandTiming, ZNandMatchesPaper)
{
    NandTiming z = NandTiming::zNand();
    EXPECT_EQ(z.tR, microseconds(3));
    EXPECT_EQ(z.tPROG, microseconds(100));
}

TEST(NandTiming, VNandRatiosMatchPaper)
{
    // V-NAND read/write are 15x/7x slower than Z-NAND (SSII-C).
    NandTiming z = NandTiming::zNand();
    NandTiming v = NandTiming::vNand();
    EXPECT_EQ(v.tR, z.tR * 15);
    EXPECT_EQ(v.tPROG, z.tPROG * 7);
}

TEST(NandTiming, TransferTimeScalesWithSize)
{
    NandTiming z = NandTiming::zNand();
    Tick t2k = z.transferTime(2048);
    Tick t4k = z.transferTime(4096);
    EXPECT_GT(t4k, t2k);
    EXPECT_NEAR(static_cast<double>(t4k - z.cmdOverhead),
                2.0 * static_cast<double>(t2k - z.cmdOverhead),
                static_cast<double>(t2k) * 0.01);
}

TEST(Fil, ReadLatencyIsCellPlusTransfer)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    Tick done = fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    NandTiming z = NandTiming::zNand();
    Tick expected = z.cmdOverhead + z.tR + z.transferTime(2048);
    EXPECT_EQ(done, expected);
}

TEST(Fil, ProgramLatencyIsTransferPlusCell)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    Tick done = fil.submit({FlashOp::Type::Program, 0, 2048}, 0);
    NandTiming z = NandTiming::zNand();
    EXPECT_GE(done, z.tPROG);
    EXPECT_LT(done, z.tPROG + microseconds(3));
}

TEST(Fil, DifferentChannelsRunConcurrently)
{
    FlashGeometry g = smallGeom();
    Fil fil(g, NandTiming::zNand());
    std::uint64_t other_ch = FlashAddress{1, 0, 0, 0, 0, 0}.flatten(g);
    Tick a = fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    Tick b = fil.submit({FlashOp::Type::Read, other_ch, 2048}, 0);
    // Full overlap: both finish at (almost) the same time.
    EXPECT_LT(b, a + microseconds(1));
}

TEST(Fil, SameDieSerialises)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    Tick a = fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    Tick b = fil.submit({FlashOp::Type::Read, 1, 2048}, 0);
    EXPECT_GT(b, a); // same die register: the second waits
}

TEST(Fil, SameChannelTransfersSerialise)
{
    FlashGeometry g = smallGeom();
    Fil fil(g, NandTiming::zNand());
    // Same channel, different die: cell reads overlap but the channel
    // drains serially.
    std::uint64_t other_die = FlashAddress{0, 0, 1, 0, 0, 0}.flatten(g);
    Tick a = fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    Tick b = fil.submit({FlashOp::Type::Read, other_die, 2048}, 0);
    EXPECT_GT(b, a);
    EXPECT_LT(b, a + NandTiming::zNand().transferTime(2048) +
                     microseconds(1));
}

TEST(Fil, ProgramDoesNotHoldChannelDuringCellPhase)
{
    FlashGeometry g = smallGeom();
    Fil fil(g, NandTiming::zNand());
    std::uint64_t other_die = FlashAddress{0, 0, 1, 0, 0, 0}.flatten(g);
    Tick p = fil.submit({FlashOp::Type::Program, 0, 2048}, 0);
    // A read on a different die of the same channel should not wait for
    // the 100 us program, only for the data transfer.
    Tick r = fil.submit({FlashOp::Type::Read, other_die, 2048}, 0);
    EXPECT_LT(r, p);
}

TEST(Fil, EraseTakesMilliseconds)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    Tick done = fil.submit({FlashOp::Type::Erase, 0, 0}, 0);
    EXPECT_GE(done, milliseconds(3));
}

TEST(Fil, ActivityCountersTrack)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    fil.submit({FlashOp::Type::Program, 64, 2048}, 0);
    fil.submit({FlashOp::Type::Erase, 0, 0}, 0);
    EXPECT_EQ(fil.activity().reads, 1u);
    EXPECT_EQ(fil.activity().programs, 1u);
    EXPECT_EQ(fil.activity().erases, 1u);
    EXPECT_EQ(fil.activity().bytesTransferred, 4096u);
}

TEST(Fil, ResetClearsBusyState)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    fil.submit({FlashOp::Type::Program, 0, 2048}, 0);
    fil.reset();
    Tick done = fil.submit({FlashOp::Type::Read, 1, 2048}, 0);
    NandTiming z = NandTiming::zNand();
    EXPECT_EQ(done, z.cmdOverhead + z.tR + z.transferTime(2048));
}

TEST(Fil, OversizedOpPanics)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    EXPECT_DEATH(fil.submit({FlashOp::Type::Read, 0, 999999}, 0),
                 "exceed page size");
}

/**
 * Busy state of every die, plane and channel of @p fil: only @p u's
 * die and plane (and channel) are busy, until @p die_until /
 * @p plane_until overall and @p die_fg / @p plane_fg on the
 * foreground timeline.
 */
void
expectOnlyUnitBusy(const Fil& fil, const FlashUnit& u, Tick die_until,
                   Tick die_fg, Tick plane_until, Tick plane_fg)
{
    const FlashGeometry& g = fil.geometry();
    const NandPackagePool& pool = fil.packages();
    for (std::uint32_t d = 0; d < g.dies(); ++d) {
        FlashUnit v{0, d, 0};
        bool mine = d == u.die;
        EXPECT_EQ(pool.dieFreeAt(v), mine ? die_until : 0) << "die " << d;
        EXPECT_EQ(pool.dieFgFreeAt(v), mine ? die_fg : 0) << "die " << d;
    }
    for (std::uint32_t p = 0; p < g.parallelUnits(); ++p) {
        FlashUnit v{0, 0, p};
        bool mine = p == u.plane;
        EXPECT_EQ(pool.planeFreeAt(v), mine ? plane_until : 0)
            << "plane " << p;
        EXPECT_EQ(pool.planeFgFreeAt(v), mine ? plane_fg : 0)
            << "plane " << p;
    }
    for (std::uint32_t c = 0; c < g.channels; ++c)
        EXPECT_EQ(fil.channelFreeAt(c) > 0, c == u.channel)
            << "channel " << c;
}

/**
 * The FTL-to-FIL hand-off: Fil::submit on every (channel, die, plane)
 * of @p g occupies exactly the unit NandPackagePool::unitOf decodes
 * from the PPN — foreground, background, and a foreground read that
 * suspends a background program, which pushes out that unit's
 * background timelines and no other.
 */
void
expectSubmitOccupiesDecodedUnit(const FlashGeometry& g)
{
    const NandTiming z = NandTiming::zNand();
    for (std::uint32_t ch = 0; ch < g.channels; ++ch)
    for (std::uint32_t die = 0; die < g.diesPerPackage; ++die)
    for (std::uint32_t plane = 0; plane < g.planesPerDie; ++plane) {
        SCOPED_TRACE(testing::Message() << "channel " << ch << " die "
                                        << die << " plane " << plane);
        std::uint64_t ppn = FlashAddress{ch, 0, die, plane, 1, 3}.flatten(g);
        FlashUnit u = NandPackagePool(g).unitOf(ppn);
        ASSERT_EQ(u.channel, ch);

        Fil fg(g, z);
        Tick done = fg.submit({FlashOp::Type::Program, ppn, 2048}, 0);
        expectOnlyUnitBusy(fg, u, done, done, done, done);

        Fil bg(g, z);
        Tick bg_done =
            bg.submit({FlashOp::Type::Program, ppn, 2048, true}, 0);
        expectOnlyUnitBusy(bg, u, bg_done, 0, bg_done, 0);

        // A foreground read lands on the background program mid-cell.
        const Tick at = microseconds(20);
        Tick read_done = bg.submit({FlashOp::Type::Read, ppn, 2048}, at);
        EXPECT_EQ(bg.activity().suspensions, 1u);
        Tick cell_done = at + z.tSuspend + z.cmdOverhead + z.tR;
        EXPECT_EQ(read_done, cell_done + z.transferTime(2048));
        Tick pushed = bg_done + (read_done - at);
        expectOnlyUnitBusy(bg, u, pushed, read_done, pushed, cell_done);
    }
}

TEST(Fil, SubmitOccupiesTheDecodedUnit)
{
    expectSubmitOccupiesDecodedUnit(smallGeom());
    FlashGeometry g = smallGeom();
    g.channels = 3;
    g.blocksPerPlane = 24; // division decode
    expectSubmitOccupiesDecodedUnit(g);
}

// ---------------------------------------------------------------------
// Tracked-op registry (NandPackagePool) against a reference model that
// scans every live op on each extension: the per-die and per-channel
// lists must extend exactly the ops the full scan would.
// ---------------------------------------------------------------------

/** One live tracked op as the reference model sees it. */
struct ModelOp
{
    FlashOpHandle h;
    std::uint32_t die; //!< flat die index
    std::uint32_t channel;
    bool transferTailed;
    Tick completion;
};

std::uint32_t
flatDie(const FlashGeometry& g, const FlashAddress& a)
{
    return (a.channel * g.packagesPerChannel + a.package) *
               g.diesPerPackage + a.die;
}

FlashAddress
randomAddress(const FlashGeometry& g, Rng& rng)
{
    return FlashAddress{static_cast<std::uint32_t>(rng.below(g.channels)),
                        0,
                        static_cast<std::uint32_t>(
                            rng.below(g.diesPerPackage)),
                        static_cast<std::uint32_t>(rng.below(g.planesPerDie)),
                        0, 0};
}

/** The pool's resource indices for address @p a. */
FlashUnit
unitAt(const NandPackagePool& pool, const FlashAddress& a)
{
    return pool.unitOf(a.flatten(pool.geometry()));
}

void
expectMatchesModel(const NandPackagePool& pool,
                   const std::vector<ModelOp>& model, int step)
{
    ASSERT_EQ(pool.liveTrackedOps(), model.size()) << "step " << step;
    for (const ModelOp& m : model)
        ASSERT_EQ(pool.completionOf(m.h), m.completion)
            << "step " << step << " slot " << m.h.slot;
}

TEST(TrackedOps, MatchesLinearScanModel)
{
    FlashGeometry g = smallGeom(); // 4 channels x 2 dies
    NandPackagePool pool(g);
    std::vector<ModelOp> model;
    Rng rng(14);
    std::uint64_t resets = 0, pushes = 0, bumps = 0, extended = 0;
    std::size_t peak = 0;
    for (int step = 0; step < 20000; ++step) {
        std::uint64_t pick = rng.below(1000);
        if (pick < 3) {
            pool.reset();
            model.clear();
            ++resets;
        } else if (pick < 350) {
            FlashAddress a = randomAddress(g, rng);
            Tick completion = rng.below(100000);
            bool xfer = rng.chance(0.5);
            FlashOpHandle h = pool.trackOp(unitAt(pool, a), completion, xfer);
            model.push_back({h, flatDie(g, a), a.channel, xfer, completion});
        } else if (pick < 600) {
            if (model.empty())
                continue;
            std::size_t i = rng.below(model.size());
            pool.releaseOp(model[i].h);
            model[i] = model.back();
            model.pop_back();
        } else {
            FlashAddress a = randomAddress(g, rng);
            Tick from = rng.below(100000);
            Tick delta = 1 + rng.below(1000);
            bool push = pick < 800;
            if (push) {
                pool.pushBackgroundOut(unitAt(pool, a), from, delta);
                ++pushes;
            } else {
                pool.bumpChannelOps(a.channel, from, delta);
                ++bumps;
            }
            for (ModelOp& m : model) {
                bool hit = push ? !m.transferTailed && m.die == flatDie(g, a)
                                : m.transferTailed && m.channel == a.channel;
                if (hit && m.completion > from) {
                    m.completion += delta;
                    ++extended;
                }
            }
        }
        peak = std::max(peak, model.size());
        expectMatchesModel(pool, model, step);
        if (HasFatalFailure())
            return;
    }
    // The sequence really exercised every operation.
    EXPECT_GT(resets, 10u);
    EXPECT_GT(pushes, 1000u);
    EXPECT_GT(bumps, 1000u);
    EXPECT_GT(extended, 1000u);
    EXPECT_GT(peak, 4 * g.channels) << "lists never got long";
}

TEST(TrackedOps, DiePushExtendsOnlyCellTailedOpsOnThatDieInFlight)
{
    FlashGeometry g = smallGeom();
    NandPackagePool pool(g);
    FlashUnit die0 = unitAt(pool, {0, 0, 0, 0, 0, 0});
    FlashUnit die0_plane1 = unitAt(pool, {0, 0, 0, 1, 0, 0});
    FlashUnit die1 = unitAt(pool, {0, 0, 1, 0, 0, 0});
    FlashUnit other_ch = unitAt(pool, {1, 0, 0, 0, 0, 0});
    FlashOpHandle hit = pool.trackOp(die0, 500, false);
    FlashOpHandle hit_plane1 = pool.trackOp(die0_plane1, 600, false);
    FlashOpHandle done = pool.trackOp(die0, 100, false); // == from
    FlashOpHandle xfer = pool.trackOp(die0, 500, true);
    FlashOpHandle other_die = pool.trackOp(die1, 500, false);
    FlashOpHandle other_chan = pool.trackOp(other_ch, 500, false);

    pool.pushBackgroundOut(die0, 100, 40);
    EXPECT_EQ(pool.completionOf(hit), 540u);
    EXPECT_EQ(pool.completionOf(hit_plane1), 640u);
    EXPECT_EQ(pool.completionOf(done), 100u);
    EXPECT_EQ(pool.completionOf(xfer), 500u);
    EXPECT_EQ(pool.completionOf(other_die), 500u);
    EXPECT_EQ(pool.completionOf(other_chan), 500u);
}

TEST(TrackedOps, ChannelBumpExtendsOnlyTransferTailedOpsOnThatChannel)
{
    FlashGeometry g = smallGeom();
    NandPackagePool pool(g);
    FlashUnit ch0_die0 = unitAt(pool, {0, 0, 0, 0, 0, 0});
    FlashUnit ch0_die1 = unitAt(pool, {0, 0, 1, 0, 0, 0});
    FlashUnit ch2 = unitAt(pool, {2, 0, 1, 0, 0, 0});
    FlashOpHandle x0 = pool.trackOp(ch0_die0, 500, true);
    FlashOpHandle x1 = pool.trackOp(ch0_die1, 700, true);
    FlashOpHandle done = pool.trackOp(ch0_die1, 90, true); // < from
    FlashOpHandle cell = pool.trackOp(ch0_die0, 500, false);
    FlashOpHandle other = pool.trackOp(ch2, 500, true);

    pool.bumpChannelOps(0, 100, 25);
    EXPECT_EQ(pool.completionOf(x0), 525u);
    EXPECT_EQ(pool.completionOf(x1), 725u);
    EXPECT_EQ(pool.completionOf(done), 90u);
    EXPECT_EQ(pool.completionOf(cell), 500u);
    EXPECT_EQ(pool.completionOf(other), 500u);

    // Releasing from the middle of a list keeps the rest linked.
    pool.releaseOp(x1);
    pool.bumpChannelOps(0, 100, 5);
    EXPECT_EQ(pool.completionOf(x0), 530u);
    EXPECT_EQ(pool.liveTrackedOps(), 4u);
}

TEST(TrackedOps, ReleasedHandlePanics)
{
    NandPackagePool pool(smallGeom());
    FlashOpHandle h = pool.trackOp(unitAt(pool, {}), 10, false);
    pool.releaseOp(h);
    // The slot is recycled under a new generation: the old handle
    // stays stale.
    FlashOpHandle again = pool.trackOp(unitAt(pool, {}), 20, true);
    EXPECT_EQ(again.slot, h.slot);
    EXPECT_DEATH(pool.completionOf(h), "stale");
    EXPECT_DEATH(pool.releaseOp(h), "stale");
    EXPECT_EQ(pool.completionOf(again), 20u);
}

TEST(TrackedOps, PreResetHandlePanics)
{
    NandPackagePool pool(smallGeom());
    FlashUnit u = unitAt(pool, {1, 0, 1, 0, 0, 0});
    FlashOpHandle h = pool.trackOp(u, 10, false);
    pool.reset();
    EXPECT_EQ(pool.liveTrackedOps(), 0u);
    EXPECT_DEATH(pool.completionOf(h), "stale");
    EXPECT_DEATH(pool.releaseOp(h), "stale");
    // The reset cleared the lists: an extension finds nothing stale.
    FlashOpHandle fresh = pool.trackOp(u, 50, false);
    pool.pushBackgroundOut(u, 0, 7);
    EXPECT_EQ(pool.completionOf(fresh), 57u);
}

} // namespace
} // namespace hams
