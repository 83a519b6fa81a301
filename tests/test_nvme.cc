/**
 * @file
 * NVMe protocol tests: command encoding, queue-pair ring mechanics over
 * real backing memory, and the device-side controller datapath.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/sparse_memory.hh"
#include "nvme/nvme_controller.hh"
#include "nvme/nvme_types.hh"
#include "nvme/queue_pair.hh"
#include "pcie/pcie_link.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "ssd/device_configs.hh"

namespace hams {
namespace {

TEST(NvmeTypes, CommandIs64Bytes)
{
    EXPECT_EQ(sizeof(NvmeCommand), 64u);
    EXPECT_EQ(sizeof(NvmeCompletion), 16u);
}

TEST(NvmeTypes, FuaBitRoundTrips)
{
    NvmeCommand c;
    EXPECT_FALSE(c.fua());
    c.setFua(true);
    EXPECT_TRUE(c.fua());
    c.setFua(false);
    EXPECT_FALSE(c.fua());
}

TEST(NvmeTypes, BuildersPopulateFields)
{
    NvmeCommand r = makeReadCommand(7, 100, 32, 0xABC000);
    EXPECT_EQ(r.op(), NvmeOpcode::Read);
    EXPECT_EQ(r.cid, 7);
    EXPECT_EQ(r.slba, 100u);
    EXPECT_EQ(r.blockCount(), 32u);
    EXPECT_EQ(r.prp1, 0xABC000u);

    NvmeCommand w = makeWriteCommand(8, 5, 1, 0x1000, true);
    EXPECT_EQ(w.op(), NvmeOpcode::Write);
    EXPECT_TRUE(w.fua());

    NvmeCommand f = makeFlushCommand(9);
    EXPECT_EQ(f.op(), NvmeOpcode::Flush);
}

TEST(NvmeTypes, CompletionPhaseEncoding)
{
    NvmeCompletion cqe;
    cqe.encode(NvmeStatus::Success, true);
    EXPECT_TRUE(cqe.phase());
    EXPECT_EQ(cqe.statusCode(), NvmeStatus::Success);
    cqe.encode(NvmeStatus::InternalError, false);
    EXPECT_FALSE(cqe.phase());
    EXPECT_EQ(cqe.statusCode(), NvmeStatus::InternalError);
}

struct QueuePairFixture : public ::testing::Test
{
    QueuePairFixture() : mem(1 << 20), qp(mem, 0, 32768, 8) {}
    SparseMemory mem;
    QueuePair qp;
};

TEST_F(QueuePairFixture, PushFetchRoundTrip)
{
    NvmeCommand cmd = makeReadCommand(1, 42, 1, 0x1000);
    cmd.journalTag = 1;
    std::uint16_t slot = qp.push(cmd);
    EXPECT_EQ(slot, 0);
    EXPECT_TRUE(qp.hasWork());
    NvmeCommand fetched = qp.fetch();
    EXPECT_EQ(fetched.cid, 1);
    EXPECT_EQ(fetched.slba, 42u);
    EXPECT_EQ(fetched.journalTag, 1u);
    EXPECT_FALSE(qp.hasWork());
}

TEST_F(QueuePairFixture, RingContentsLiveInBackingMemory)
{
    NvmeCommand cmd = makeWriteCommand(3, 9, 1, 0x2000);
    qp.push(cmd);
    // The raw bytes must be visible in the backing store (that is what
    // makes the journal scan possible after power failure).
    NvmeCommand raw;
    mem.read(0, &raw, sizeof(raw));
    EXPECT_EQ(raw.cid, 3);
    EXPECT_EQ(raw.slba, 9u);
}

TEST_F(QueuePairFixture, FullDetection)
{
    for (int i = 0; i < 7; ++i) {
        EXPECT_FALSE(qp.sqFull());
        qp.push(makeFlushCommand(static_cast<std::uint16_t>(i)));
    }
    EXPECT_TRUE(qp.sqFull()); // 8-entry ring holds 7
}

TEST_F(QueuePairFixture, WrapAroundWorks)
{
    for (int round = 0; round < 5; ++round) {
        qp.push(makeFlushCommand(static_cast<std::uint16_t>(round)));
        NvmeCommand c = qp.fetch();
        EXPECT_EQ(c.cid, round);
    }
    EXPECT_EQ(qp.sqHead(), qp.sqTail());
}

TEST_F(QueuePairFixture, CompletionsFlow)
{
    NvmeCompletion cqe;
    cqe.cid = 11;
    cqe.encode(NvmeStatus::Success, true);
    qp.complete(cqe);
    auto got = qp.popCompletion();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->cid, 11);
    EXPECT_FALSE(qp.popCompletion().has_value());
}

TEST_F(QueuePairFixture, SlotReadWriteForJournal)
{
    NvmeCommand cmd = makeReadCommand(5, 1, 1, 0);
    cmd.journalTag = 1;
    std::uint16_t slot = qp.push(cmd);
    NvmeCommand stored = qp.readSlot(slot);
    stored.journalTag = 0;
    qp.writeSlot(slot, stored);
    EXPECT_EQ(qp.readSlot(slot).journalTag, 0u);
}

TEST_F(QueuePairFixture, ResetPointersKeepsContents)
{
    qp.push(makeReadCommand(2, 0, 1, 0));
    qp.resetPointers();
    EXPECT_FALSE(qp.hasWork());
    EXPECT_EQ(qp.readSlot(0).cid, 2); // bytes persist
}

/** Minimal DMA target backed by a SparseMemory with fixed latency. */
struct TestHostMemory : public DmaTarget
{
    explicit TestHostMemory(std::uint64_t cap) : mem(cap) {}

    Tick
    dmaAccess(Addr, std::uint32_t size, MemOp, Tick at) override
    {
        return at + nanoseconds(50) + size / 64;
    }
    SparseMemory* dmaData() override { return &mem; }

    SparseMemory mem;
};

struct ControllerFixture : public ::testing::Test
{
    ControllerFixture()
        : ssd(ullFlashConfig(1ull << 30, true)), host(16 << 20),
          link(ullFlashLink()), ctrl(eq, ssd, link, host),
          qp(host.mem, 0, 1 << 16, 64)
    {
        qid = ctrl.attachQueue(&qp);
    }

    EventQueue eq;
    Ssd ssd;
    TestHostMemory host;
    PcieLink link;
    NvmeController ctrl;
    QueuePair qp;
    std::uint16_t qid;
};

TEST_F(ControllerFixture, WriteThenReadMovesData)
{
    // Stage data in "host memory" and write it to the device.
    std::vector<std::uint8_t> payload(4096, 0x5C);
    host.mem.write(0x10000, payload.data(), payload.size());

    int completions = 0;
    ctrl.onCompletion([&](std::uint16_t, const NvmeCompletion& cqe,
                          const NvmeCommand&, const NvmeCmdTrace&, Tick) {
        EXPECT_EQ(cqe.statusCode(), NvmeStatus::Success);
        ++completions;
    });

    qp.push(makeWriteCommand(1, 77, 1, 0x10000));
    ctrl.ringDoorbell(qid, 0);
    eq.run();
    EXPECT_EQ(completions, 1);

    // Read it back into a different host buffer.
    qp.push(makeReadCommand(2, 77, 1, 0x20000));
    ctrl.ringDoorbell(qid, eq.now());
    eq.run();
    EXPECT_EQ(completions, 2);

    std::vector<std::uint8_t> out(4096);
    host.mem.read(0x20000, out.data(), out.size());
    EXPECT_EQ(out, payload);
}

TEST_F(ControllerFixture, TraceAttributesLatency)
{
    NvmeCmdTrace got;
    ctrl.onCompletion([&](std::uint16_t, const NvmeCompletion&,
                          const NvmeCommand&, const NvmeCmdTrace& trace,
                          Tick) { got = trace; });
    qp.push(makeReadCommand(1, 5, 1, 0x30000));
    ctrl.ringDoorbell(qid, 0);
    eq.run();
    EXPECT_GT(got.media + got.dma + got.protocol, 0u);
    EXPECT_GT(got.dma, 0u); // 4 KiB crossed PCIe
}

TEST_F(ControllerFixture, MultipleCommandsCompleteIndependently)
{
    int completions = 0;
    ctrl.onCompletion([&](std::uint16_t, const NvmeCompletion&,
                          const NvmeCommand&, const NvmeCmdTrace&,
                          Tick) { ++completions; });
    for (int i = 0; i < 8; ++i)
        qp.push(makeReadCommand(static_cast<std::uint16_t>(i + 1),
                                std::uint64_t(i) * 16, 1,
                                0x40000 + Addr(i) * 4096));
    ctrl.ringDoorbell(qid, 0);
    eq.run();
    EXPECT_EQ(completions, 8);
    EXPECT_EQ(ctrl.outstanding(), 0u);
}

TEST_F(ControllerFixture, FlushCompletes)
{
    int completions = 0;
    ctrl.onCompletion([&](std::uint16_t, const NvmeCompletion&,
                          const NvmeCommand&, const NvmeCmdTrace&,
                          Tick) { ++completions; });
    qp.push(makeFlushCommand(1));
    ctrl.ringDoorbell(qid, 0);
    eq.run();
    EXPECT_EQ(completions, 1);
}

TEST_F(ControllerFixture, PowerFailOrphansInflight)
{
    int completions = 0;
    ctrl.onCompletion([&](std::uint16_t, const NvmeCompletion&,
                          const NvmeCommand&, const NvmeCmdTrace&,
                          Tick) { ++completions; });
    qp.push(makeReadCommand(1, 0, 1, 0x50000));
    ctrl.ringDoorbell(qid, 0);
    // The queue keeps running: the stale events must release their
    // own contexts (events_dropped=false side of the contract).
    ctrl.powerFail(/*events_dropped=*/false);
    eq.run();
    EXPECT_EQ(completions, 0);
    EXPECT_EQ(ctrl.outstanding(), 0u);
}

TEST_F(ControllerFixture, PowerFailFlagInconsistencyIsFatal)
{
    // Claiming the queue's events were dropped while they still pend
    // would double-free the contexts those events reference: fatal.
    qp.push(makeReadCommand(1, 0, 1, 0x50000));
    ctrl.ringDoorbell(qid, 0);
    ASSERT_GT(eq.pending(), 0u);
    EXPECT_THROW(ctrl.powerFail(/*events_dropped=*/true), FatalError);
}

TEST_F(ControllerFixture, PowerFailFalseAfterQueueResetIsFatal)
{
    // The inverse claim: the queue was reset (no event will ever fire
    // again) but the caller pretends they still run — every live
    // context would be stranded forever.
    qp.push(makeReadCommand(1, 0, 1, 0x50000));
    ctrl.ringDoorbell(qid, 0);
    eq.reset(false);
    EXPECT_THROW(ctrl.powerFail(/*events_dropped=*/false), FatalError);
}

TEST(PcieLinkTest, TransferTimeMatchesBandwidth)
{
    PcieLink link(LinkConfig::pcieGen3(4));
    Tick done = link.transfer(1 << 20, LinkDir::ToHost, 0);
    double bw = (1 << 20) / ticksToSeconds(done);
    // Effective bandwidth below raw 3.94 GB/s but above 3 GB/s.
    EXPECT_GT(bw, 3.0e9);
    EXPECT_LT(bw, 3.94e9);
}

TEST(PcieLinkTest, DirectionsIndependentWhenFullDuplex)
{
    PcieLink link(LinkConfig::pcieGen3(4));
    Tick up = link.transfer(1 << 20, LinkDir::ToDevice, 0);
    Tick down = link.transfer(1 << 20, LinkDir::ToHost, 0);
    EXPECT_NEAR(static_cast<double>(up), static_cast<double>(down),
                static_cast<double>(up) * 0.01);
}

TEST(PcieLinkTest, HalfDuplexSerialises)
{
    PcieLink link(LinkConfig::sata3());
    Tick a = link.transfer(1 << 20, LinkDir::ToDevice, 0);
    Tick b = link.transfer(1 << 20, LinkDir::ToHost, 0);
    EXPECT_GT(b, a);
}

TEST(PcieLinkTest, SignalIsLatencyOnly)
{
    PcieLink link(LinkConfig::pcieGen3(4));
    EXPECT_EQ(link.signal(100), 100 + link.config().propagation);
}

} // namespace
} // namespace hams
