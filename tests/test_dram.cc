/**
 * @file
 * DDR4 timing, device, controller and NVDIMM tests.
 */

#include <gtest/gtest.h>

#include <string>

#include "dram/ddr4_timing.hh"
#include "dram/dram_device.hh"
#include "dram/memory_controller.hh"
#include "dram/nvdimm.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace hams {
namespace {

TEST(Ddr4Timing, SpeedGradeDerivesClock)
{
    Ddr4Timing t = Ddr4Timing::speedGrade(paperDdr4Mts);
    // tCK = 2 / 2133 MT/s ~ 937 ps.
    EXPECT_NEAR(static_cast<double>(t.tCK), 937.0, 2.0);
    EXPECT_GT(t.tCL, nanoseconds(13));
    EXPECT_LT(t.tCL, nanoseconds(16));
}

TEST(Ddr4Timing, PeakBandwidthScales)
{
    Ddr4Timing slow = Ddr4Timing::speedGrade(paperDdr4Mts);
    Ddr4Timing fast = Ddr4Timing::speedGrade(3200);
    EXPECT_GT(fast.peakBandwidth(), slow.peakBandwidth());
    EXPECT_NEAR(slow.peakBandwidth(), 2133e6 * 8, 1e6);
}

TEST(Ddr4Timing, InvalidGradeRejected)
{
    EXPECT_THROW(Ddr4Timing::speedGrade(100), FatalError);
}

TEST(DramDevice, RowMissThenRowHit)
{
    Ddr4Timing t = Ddr4Timing::speedGrade(paperDdr4Mts);
    DramDevice d(t, 1ull << 30);
    DramAccessResult first = d.access(0, 64, MemOp::Read, 0);
    EXPECT_FALSE(first.rowHit);
    // Same row again: must be faster and flagged a hit.
    DramAccessResult second = d.access(64, 64, MemOp::Read, first.ready);
    EXPECT_TRUE(second.rowHit);
    EXPECT_LT(second.ready - first.ready, first.ready);
}

TEST(DramDevice, RowHitLatencyIsCasPlusBurst)
{
    Ddr4Timing t = Ddr4Timing::speedGrade(paperDdr4Mts);
    DramDevice d(t, 1ull << 30);
    Tick warm = d.access(0, 64, MemOp::Read, 0).ready;
    Tick hit = d.access(64, 64, MemOp::Read, warm).ready;
    EXPECT_EQ(hit - warm, t.tCL + t.tBURST);
}

TEST(DramDevice, DifferentBanksOverlap)
{
    Ddr4Timing t = Ddr4Timing::speedGrade(paperDdr4Mts);
    DramDevice d(t, 1ull << 30);
    // Two accesses to different banks issued at the same tick should
    // finish sooner than twice a serialized row miss (bank parallelism;
    // only the data bursts serialise).
    Tick a = d.access(0, 64, MemOp::Read, 0).ready;
    Tick b = d.access(t.rowBufferBytes, 64, MemOp::Read, 0).ready;
    EXPECT_LT(b, 2 * a);
}

TEST(DramDevice, BulkTransferApproachesPeakBandwidth)
{
    Ddr4Timing t = Ddr4Timing::speedGrade(paperDdr4Mts);
    DramDevice d(t, 1ull << 30);
    std::uint32_t size = 1 << 20; // 1 MiB
    Tick done = d.access(0, size, MemOp::Read, 0).ready;
    double bw = size / ticksToSeconds(done);
    EXPECT_GT(bw, 0.7 * t.peakBandwidth());
    EXPECT_LE(bw, 1.01 * t.peakBandwidth());
}

TEST(DramDevice, FourKilobyteAccessInMicrosecondRange)
{
    // The paper quotes ~2.4 us for a user-level 4 KiB DDR4 read; the
    // raw device access must be well under that but non-trivial.
    Ddr4Timing t = Ddr4Timing::speedGrade(paperDdr4Mts);
    DramDevice d(t, 1ull << 30);
    Tick done = d.access(0, 4096, MemOp::Read, 0).ready;
    EXPECT_GT(done, nanoseconds(100));
    EXPECT_LT(done, microseconds(2));
}

TEST(DramDevice, ActivityCountersTrack)
{
    Ddr4Timing t = Ddr4Timing::speedGrade(paperDdr4Mts);
    DramDevice d(t, 1ull << 30);
    d.access(0, 64, MemOp::Read, 0);
    d.access(0, 64, MemOp::Write, 0);
    EXPECT_EQ(d.activity().reads, 1u);
    EXPECT_EQ(d.activity().writes, 1u);
    EXPECT_GE(d.activity().activates, 1u);
    EXPECT_GT(d.activity().busyTime, 0u);
}

TEST(DramDevice, OutOfRangeAccessFails)
{
    DramDevice d(Ddr4Timing::speedGrade(paperDdr4Mts), 1 << 20);
    EXPECT_THROW(d.access((1 << 20) - 32, 64, MemOp::Read, 0), FatalError);
}

TEST(DramDevice, OccupyBusSerialisesTraffic)
{
    Ddr4Timing t = Ddr4Timing::speedGrade(paperDdr4Mts);
    DramDevice d(t, 1ull << 30);
    Tick end = d.occupyBus(0, microseconds(1));
    EXPECT_EQ(end, microseconds(1));
    // A subsequent access cannot use the bus before the reservation.
    Tick done = d.access(0, 64, MemOp::Read, 0).ready;
    EXPECT_GT(done, microseconds(1));
}

TEST(MemoryController, AddsFrontendLatency)
{
    MemoryController mc(Ddr4Timing::speedGrade(paperDdr4Mts), 1ull << 30);
    Tick done = mc.access(0, 64, MemOp::Read, 0);
    DramDevice raw(Ddr4Timing::speedGrade(paperDdr4Mts), 1ull << 30);
    Tick raw_done = raw.access(0, 64, MemOp::Read, 0).ready;
    EXPECT_GT(done, raw_done);
}

TEST(Nvdimm, OperationalAccessWorks)
{
    NvdimmConfig cfg;
    cfg.capacity = 64ull << 20;
    Nvdimm n(cfg);
    EXPECT_EQ(n.state(), Nvdimm::State::Operational);
    Tick done = n.access(0, 64, MemOp::Read, 0);
    EXPECT_GT(done, 0u);
}

TEST(Nvdimm, BackupTakesTensOfSeconds)
{
    NvdimmConfig cfg;
    cfg.capacity = 8ull << 30;
    cfg.backupBandwidth = 400e6;
    cfg.functionalData = false;
    Nvdimm n(cfg);
    Tick backup = n.powerFail();
    // 8 GiB at 400 MB/s ~ 21 s, the "tens of seconds" of paper SSII-A.
    EXPECT_GT(backup, seconds(10));
    EXPECT_LT(backup, seconds(60));
    EXPECT_EQ(n.state(), Nvdimm::State::Protected);
    EXPECT_TRUE(n.contentsPreserved());
}

TEST(Nvdimm, ContentsSurvivePowerCycle)
{
    NvdimmConfig cfg;
    cfg.capacity = 64ull << 20;
    Nvdimm n(cfg);
    n.data()->writeValue<std::uint64_t>(1234, 0xFEED);
    n.powerFail();
    EventQueue eq;
    n.beginRestore(eq, 0, nullptr, nullptr);
    eq.run();
    EXPECT_EQ(n.state(), Nvdimm::State::Operational);
    EXPECT_EQ(n.data()->readValue<std::uint64_t>(1234), 0xFEEDu);
}

TEST(Nvdimm, AccessWhileProtectedFails)
{
    NvdimmConfig cfg;
    cfg.capacity = 64ull << 20;
    cfg.functionalData = false;
    Nvdimm n(cfg);
    n.powerFail();
    EXPECT_THROW(n.access(0, 64, MemOp::Read, 0), FatalError);
}

TEST(Nvdimm, RestoreRequiresProtectedState)
{
    NvdimmConfig cfg;
    cfg.capacity = 64ull << 20;
    cfg.functionalData = false;
    Nvdimm n(cfg);
    EventQueue eq;
    EXPECT_THROW(n.beginRestore(eq, 0, nullptr, nullptr), FatalError);
}

// ---------------------------------------------------------------------
// Incremental restore engine (online recovery).
// ---------------------------------------------------------------------

/** 64 MiB module: 64 restore frames of 1 MiB at the default bandwidth. */
NvdimmConfig
restoreRigConfig()
{
    NvdimmConfig cfg;
    cfg.capacity = 64ull << 20;
    return cfg;
}

TEST(NvdimmRestore, IncrementalRestoreProgressesAndCompletes)
{
    Nvdimm n(restoreRigConfig());
    n.data()->writeValue<std::uint64_t>(4096, 0xBEEF);
    n.powerFail();

    EventQueue eq;
    std::uint64_t notified = 0;
    bool done = false;
    Tick done_at = 0;
    n.beginRestore(
        eq, 0,
        [&](std::uint64_t, std::uint64_t count, Tick) { notified += count; },
        [&](Tick when) {
            done = true;
            done_at = when;
        });
    EXPECT_EQ(n.state(), Nvdimm::State::Restoring);
    EXPECT_EQ(n.framesRestored(), 0u);

    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(n.state(), Nvdimm::State::Operational);
    EXPECT_EQ(n.framesRestored(), n.restoreFrames());
    EXPECT_EQ(notified, n.restoreFrames());
    // The single on-DIMM stream restores frames back to back, so the
    // incremental engine finishes exactly at the full-restore cost.
    EXPECT_EQ(done_at, n.fullRestoreTicks());
    EXPECT_EQ(n.data()->readValue<std::uint64_t>(4096), 0xBEEFu);
}

TEST(NvdimmRestore, PriorityRestoreJumpsCursor)
{
    Nvdimm n(restoreRigConfig());
    n.powerFail();
    EventQueue eq;
    n.beginRestore(eq, 0, nullptr, nullptr);

    // The last frame is 60 frames behind the cursor, but a priority
    // request queues it right behind the in-flight cursor batch.
    Addr last = n.capacity() - 1024;
    Tick ready = n.requestRestoreSpan(last, 1024, 0);
    EXPECT_LT(ready, n.fullRestoreTicks() / 8);
    EXPECT_EQ(n.priorityRestores(), 1u);
    // Re-requesting the same span rides the existing schedule.
    EXPECT_EQ(n.requestRestoreSpan(last, 1024, 0), ready);
    EXPECT_EQ(n.priorityRestores(), 1u);

    while (!n.spanRestored(last, 1024) && eq.step()) {
    }
    ASSERT_TRUE(n.spanRestored(last, 1024));
    EXPECT_EQ(eq.now(), ready);
    EXPECT_LT(n.framesRestored(), n.restoreFrames());
    EXPECT_EQ(n.state(), Nvdimm::State::Restoring);
    // The restored span is immediately serviceable mid-restore.
    EXPECT_GT(n.access(last, 64, MemOp::Read, eq.now()), eq.now());

    eq.run();
    EXPECT_EQ(n.state(), Nvdimm::State::Operational);
    EXPECT_EQ(n.framesRestored(), n.restoreFrames());
}

TEST(NvdimmRestore, AccessToUnrestoredSpanMidRestoreIsFatal)
{
    Nvdimm n(restoreRigConfig());
    n.powerFail();
    EventQueue eq;
    n.beginRestore(eq, 0, nullptr, nullptr);
    ASSERT_TRUE(eq.step()); // first cursor batch commits
    ASSERT_GT(n.framesRestored(), 0u);

    // Restored prefix serves; the unrestored tail is a caller bug (the
    // degraded-mode admission must have stalled it) and faults loudly.
    EXPECT_GT(n.access(0, 64, MemOp::Read, eq.now()), 0u);
    EXPECT_THROW(n.access(n.capacity() - 4096, 64, MemOp::Read, eq.now()),
                 FatalError);
}

TEST(NvdimmRestore, SecondFailureMidRestoreRebacksUpRestoredPrefix)
{
    Nvdimm n(restoreRigConfig());
    n.data()->writeValue<std::uint64_t>(8, 0xA5A5);
    Tick full_backup = n.powerFail();

    EventQueue eq;
    n.beginRestore(eq, 0, nullptr, nullptr);
    ASSERT_TRUE(eq.step());
    std::uint64_t prefix = n.framesRestored();
    ASSERT_GT(prefix, 0u);
    ASSERT_LT(prefix, n.restoreFrames());

    // Second failure mid-restore: only the restored prefix can carry
    // fresh writes, so the re-backup streams just those frames.
    Tick tpf = n.fullRestoreTicks() / n.restoreFrames();
    Tick rebackup = n.powerFail();
    EXPECT_EQ(n.state(), Nvdimm::State::Protected);
    EXPECT_TRUE(n.contentsPreserved());
    EXPECT_EQ(rebackup, Tick(prefix) * tpf);
    EXPECT_LT(rebackup, full_backup);

    // Restart the restore WITHOUT draining the queue: the first
    // restore's stale commit events must be no-ops (generation check),
    // not corrupt the new restore's progress accounting.
    bool done = false;
    n.beginRestore(eq, eq.now(), nullptr, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(n.state(), Nvdimm::State::Operational);
    EXPECT_EQ(n.framesRestored(), n.restoreFrames());
    EXPECT_EQ(n.data()->readValue<std::uint64_t>(8), 0xA5A5u);
}

TEST(NvdimmRestore, DoubleRestoreIsFatalWithContext)
{
    NvdimmConfig cfg = restoreRigConfig();
    cfg.functionalData = false;
    Nvdimm n(cfg);
    n.powerFail();
    EventQueue eq;
    n.beginRestore(eq, 0, nullptr, nullptr);
    eq.run();
    try {
        n.beginRestore(eq, eq.now(), nullptr, nullptr);
        FAIL() << "double restore did not fault";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("double restore"),
                  std::string::npos)
            << "fatal lacks the double-restore context: " << e.what();
    }
}

} // namespace
} // namespace hams
