/**
 * @file
 * SSD assembly tests: buffer behaviour, HIL splitting, device presets,
 * queue-depth throttling, flush and supercap power-failure semantics.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "ssd/device_configs.hh"
#include "ssd/dram_buffer.hh"
#include "ssd/ssd.hh"

namespace hams {
namespace {

SsdConfig
tinyUll(bool buffer = true, bool supercap = false)
{
    SsdConfig c = ullFlashConfig(1ull << 30, /*functional_data=*/true,
                                 supercap, buffer);
    c.buffer.capacity = 1ull << 20; // small buffer to force evictions
    return c;
}

TEST(DramBuffer, LruEvictsOldest)
{
    DramBufferConfig cfg;
    cfg.capacity = 4 * 4096;
    DramBuffer buf(cfg, 1024);
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_FALSE(buf.insert(k, false).happened);
    buf.lookup(0); // refresh 0; victim should be 1
    BufferEviction ev = buf.insert(100, false);
    EXPECT_TRUE(ev.happened);
    EXPECT_EQ(ev.frameKey, 1u);
}

TEST(DramBuffer, DirtyStateTracked)
{
    DramBufferConfig cfg;
    cfg.capacity = 4 * 4096;
    DramBuffer buf(cfg, 1024);
    buf.insert(7, true);
    EXPECT_TRUE(buf.isDirty(7));
    buf.markClean(7);
    EXPECT_FALSE(buf.isDirty(7));
}

TEST(DramBuffer, InsertExistingMergesDirty)
{
    DramBufferConfig cfg;
    cfg.capacity = 4 * 4096;
    DramBuffer buf(cfg, 1024);
    buf.insert(7, false);
    buf.insert(7, true);
    EXPECT_TRUE(buf.isDirty(7));
    EXPECT_EQ(buf.residentFrames(), 1u);
}

TEST(DramBuffer, AccessOccupiesBandwidth)
{
    DramBufferConfig cfg;
    cfg.bandwidth = 1e9;
    DramBuffer buf(cfg, 1024);
    Tick a = buf.access(4096, 0);
    Tick b = buf.access(4096, 0);
    EXPECT_GT(b, a); // second transfer queued behind the first
}

TEST(DramBuffer, DirtyFramesEnumerated)
{
    DramBufferConfig cfg;
    cfg.capacity = 16 * 4096;
    DramBuffer buf(cfg, 1024);
    buf.insert(3, true);
    buf.insert(5, false);
    buf.insert(9, true);
    auto dirty = buf.dirtyFrames();
    EXPECT_EQ(dirty, (std::vector<std::uint64_t>{3, 9}));
}

TEST(Ssd, CapacityReflectsOverProvision)
{
    Ssd ssd(tinyUll());
    EXPECT_LT(ssd.capacityBytes(), 1ull << 30);
    EXPECT_GT(ssd.capacityBytes(), (1ull << 30) * 85 / 100);
}

TEST(Ssd, DataRoundTrip)
{
    Ssd ssd(tinyUll());
    std::vector<std::uint8_t> in(4096, 0x42), out(4096, 0);
    ssd.hostWrite(10, 1, /*fua=*/false, 0, in.data());
    ssd.hostRead(10, 1, 0, out.data());
    EXPECT_EQ(in, out);
}

TEST(Ssd, UnwrittenBlocksReadZero)
{
    Ssd ssd(tinyUll());
    std::vector<std::uint8_t> out(4096, 0xFF);
    ssd.hostRead(500, 1, 0, out.data());
    for (auto b : out)
        ASSERT_EQ(b, 0);
}

TEST(Ssd, BufferedWriteIsFasterThanFua)
{
    Ssd buffered(tinyUll());
    Ssd same(tinyUll());
    Tick quick = buffered.hostWrite(0, 1, /*fua=*/false, 0);
    Tick durable = same.hostWrite(0, 1, /*fua=*/true, 0);
    EXPECT_LT(quick, durable);
    // FUA must wait for the program (100 us Z-NAND).
    EXPECT_GE(durable, microseconds(100));
}

TEST(Ssd, BufferHitServesReadsFast)
{
    Ssd ssd(tinyUll());
    Tick w = ssd.hostWrite(3, 1, false, 0);
    Tick r = ssd.hostRead(3, 1, w);
    EXPECT_LT(r - w, microseconds(3)); // buffer, not flash
    EXPECT_GT(ssd.stats().bufferHits, 0u);
}

TEST(Ssd, UllReadLatencyNearPaperDeviceLevel)
{
    // Device-level 4 KiB read from flash: ~tR + split transfer +
    // firmware, well under the 8 us user-level figure of Fig. 5a.
    SsdConfig cfg = tinyUll(/*buffer=*/false);
    Ssd ssd(cfg);
    Tick w = ssd.hostWrite(0, 1, true, 0);
    Tick r = ssd.hostRead(0, 1, w);
    EXPECT_GT(r - w, microseconds(4));
    EXPECT_LT(r - w, microseconds(8));
}

TEST(Ssd, DualChannelSplitBeatsSingleUnit)
{
    // The same device with 4 KiB FTL units (no splitting) must serve
    // flash reads slower than the 2 KiB-split configuration.
    SsdConfig split_cfg = tinyUll(false);
    SsdConfig whole_cfg = tinyUll(false);
    whole_cfg.geom.pageSize = 4096;
    whole_cfg.geom.blocksPerPlane /= 2; // keep capacity comparable

    Ssd split(split_cfg), whole(whole_cfg);
    Tick ws = split.hostWrite(0, 1, true, 0);
    Tick rs = split.hostRead(0, 1, ws) - ws;
    Tick ww = whole.hostWrite(0, 1, true, 0);
    Tick rw = whole.hostRead(0, 1, ww) - ww;
    EXPECT_LT(rs, rw);
}

TEST(Ssd, ThrottlesAtMaxOutstanding)
{
    SsdConfig cfg = tinyUll(/*buffer=*/false);
    cfg.maxOutstanding = 4;
    Ssd ssd(cfg);
    // Fire many concurrent reads at t=0; the later ones must be
    // admitted only as earlier ones retire.
    Tick w = 0;
    for (int i = 0; i < 8; ++i)
        w = ssd.hostWrite(i, 1, true, w);
    for (int i = 0; i < 32; ++i)
        ssd.hostRead(i % 8, 1, w);
    EXPECT_GT(ssd.stats().throttledCommands, 0u);
}

TEST(Ssd, FlushDrainsDirtyBuffer)
{
    Ssd ssd(tinyUll());
    std::vector<std::uint8_t> in(4096, 0x77);
    Tick w = ssd.hostWrite(5, 1, false, 0, in.data());
    Tick f = ssd.hostFlush(w);
    EXPECT_GT(f - w, microseconds(50)); // at least one program
    EXPECT_GT(ssd.stats().flushes, 0u);
}

TEST(Ssd, PowerFailWithoutSupercapLosesBufferedWrites)
{
    Ssd ssd(tinyUll(/*buffer=*/true, /*supercap=*/false));
    std::vector<std::uint8_t> in(4096, 0x99), out(4096, 0);
    ssd.hostWrite(8, 1, /*fua=*/false, 0, in.data());
    ssd.powerFail();
    ssd.powerRestore();
    ssd.peek(8, 1, out.data());
    // The buffered write never reached flash: data gone.
    for (auto b : out)
        ASSERT_EQ(b, 0);
}

TEST(Ssd, PowerFailWithSupercapPreservesBufferedWrites)
{
    Ssd ssd(tinyUll(/*buffer=*/true, /*supercap=*/true));
    std::vector<std::uint8_t> in(4096, 0x99), out(4096, 0);
    ssd.hostWrite(8, 1, /*fua=*/false, 0, in.data());
    Tick drain = ssd.powerFail();
    EXPECT_GT(drain, 0u);
    ssd.powerRestore();
    ssd.peek(8, 1, out.data());
    EXPECT_EQ(out, in);
}

TEST(Ssd, FuaWriteSurvivesPowerFailEitherWay)
{
    Ssd ssd(tinyUll(/*buffer=*/true, /*supercap=*/false));
    std::vector<std::uint8_t> in(4096, 0x31), out(4096, 0);
    ssd.hostWrite(2, 1, /*fua=*/true, 0, in.data());
    ssd.powerFail();
    ssd.powerRestore();
    ssd.peek(2, 1, out.data());
    EXPECT_EQ(out, in);
}

TEST(DeviceConfigs, PresetsHaveExpectedCharacter)
{
    SsdConfig ull = ullFlashConfig(8ull << 30, false);
    SsdConfig nvme = nvmeSsdConfig(8ull << 30, false);
    SsdConfig sata = sataSsdConfig(8ull << 30, false);

    // ULL: Z-NAND latencies, 2 KiB split, limited queue depth.
    EXPECT_EQ(ull.nand.tR, microseconds(3));
    EXPECT_EQ(ull.geom.pageSize, 2048u);
    EXPECT_EQ(ull.maxOutstanding, 16u);
    // NVMe: planar-MLC class, much slower media.
    EXPECT_GT(nvme.nand.tR, 20 * ull.nand.tR);
    // SATA: slowest firmware path.
    EXPECT_GT(sata.hil.readFirmware, nvme.hil.readFirmware);
}

TEST(DeviceConfigs, LinksMatchInterfaces)
{
    EXPECT_GT(ullFlashLink().bandwidth, 3e9);  // PCIe 3.0 x4
    EXPECT_NEAR(sataSsdLink().bandwidth, 600e6, 1e6);
    EXPECT_FALSE(sataSsdLink().fullDuplex);
}

TEST(Ssd, WriteBeyondCapacityFails)
{
    Ssd ssd(tinyUll());
    EXPECT_THROW(ssd.hostWrite(ssd.logicalBlocks(), 1, false, 0),
                 FatalError);
}

} // namespace
} // namespace hams
