#include "baselines/mmap_platform.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "ssd/device_configs.hh"

namespace hams {

namespace {

/** Fault entry, context switch out/in, PTE fixup. */
constexpr Tick pageFaultLatency = microseconds(4);
/** Filesystem + blk-mq + driver submission path. */
constexpr Tick ioStackLatency = microseconds(9);
/** Interrupt + wakeup + return to user. */
constexpr Tick completionLatency = microseconds(3);
/** Pages written back per writeback round. */
constexpr std::uint32_t writebackBatch = 64;
/** Readahead window for sequential faults (Linux default 128 KiB). */
constexpr std::uint32_t readaheadPages = 32;

SsdConfig
backendConfig(const MmapConfig& cfg)
{
    SsdConfig c;
    switch (cfg.backend) {
      case MmapBackend::UllFlash:
        c = ullFlashConfig(cfg.ssdRawBytes, /*functional_data=*/false);
        break;
      case MmapBackend::NvmeSsd:
        c = nvmeSsdConfig(cfg.ssdRawBytes, /*functional_data=*/false);
        break;
      case MmapBackend::SataSsd:
        c = sataSsdConfig(cfg.ssdRawBytes, /*functional_data=*/false);
        break;
      default:
        panic("unreachable mmap backend");
    }
    c.ftl = cfg.ftl;
    if (cfg.ssdBufferBytes != ~std::uint64_t(0)) {
        c.hasBuffer = cfg.ssdBufferBytes > 0;
        if (c.hasBuffer)
            c.buffer.capacity = cfg.ssdBufferBytes;
    }
    return c;
}

LinkConfig
backendLink(const MmapConfig& cfg)
{
    switch (cfg.backend) {
      case MmapBackend::UllFlash:
        return ullFlashLink();
      case MmapBackend::NvmeSsd:
        return nvmeSsdLink();
      case MmapBackend::SataSsd:
        return sataSsdLink();
    }
    panic("unreachable mmap backend");
}

const char*
backendName(MmapBackend b)
{
    switch (b) {
      case MmapBackend::UllFlash:
        return "mmap-ull";
      case MmapBackend::NvmeSsd:
        return "mmap-nvme";
      case MmapBackend::SataSsd:
        return "mmap-sata";
    }
    return "mmap";
}

} // namespace

MmapPlatform::MmapPlatform(const MmapConfig& cfg)
    : cfg(cfg), _name(backendName(cfg.backend))
{
    dram = std::make_unique<MemoryController>(
        Ddr4Timing::speedGrade(paperDdr4Mts), cfg.dramBytes);
    ssd = std::make_unique<Ssd>(backendConfig(cfg), &eq);
    link = std::make_unique<PcieLink>(backendLink(cfg));

    _capacity = ssd->capacityBytes();

    DramBufferConfig tag_cfg;
    tag_cfg.capacity = cfg.pageCacheBytes;
    tag_cfg.frameSize = nvmeBlockSize;
    cacheTags = std::make_unique<DramBuffer>(
        tag_cfg, _capacity / nvmeBlockSize);
}

MmapPlatform::~MmapPlatform() = default;

Tick
MmapPlatform::writebackPage(std::uint64_t page, Tick at)
{
    // fs/blk-mq submission, upstream DMA, device program.
    Tick submitted = at + ioStackLatency / 2;
    Tick dma = link->transfer(nvmeBlockSize, LinkDir::ToDevice, submitted);
    Tick done = ssd->hostWrite(page, 1, /*fua=*/false, dma);
    cacheTags->markClean(page);
    if (dirtyCount > 0)
        --dirtyCount;
    ++_writebacks;
    return done;
}

void
MmapPlatform::maybeStartWriteback(Tick at)
{
    double watermark =
        cfg.dirtyWatermark * static_cast<double>(cacheTags->maxFrames());
    if (static_cast<double>(dirtyCount) < watermark)
        return;
    // kswapd-style background round: flush the batch of lowest-keyed
    // dirty pages. This runs per newly dirtied page above the
    // watermark, so it visits only the batch, never the whole cache;
    // writebackPage() cleans just the page it is handed, as the
    // visitor contract requires.
    cacheTags->forEachDirtyAscending(
        writebackBatch,
        [this, at](std::uint64_t page) { writebackPage(page, at); });
}

bool
MmapPlatform::tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out)
{
    // Hit or fault alike, the whole software stack is latency
    // arithmetic computed at issue time: always inline-completable.
    // Device events a fault or writeback kicks (background GC) are
    // scheduled here, before the caller decides whether to deliver
    // inline or schedule the completion on out.domain — the same order
    // the default access() schedules them in.
    if (acc.addr + acc.size > _capacity)
        fatal("mmap access beyond file size");

    std::uint64_t page = acc.addr / nvmeBlockSize;
    LatencyBreakdown& bd = out.bd;
    bd = LatencyBreakdown{};
    Tick done;

    if (cacheTags->lookup(page)) {
        // Resident: a plain load/store against the page cache.
        ++_hits;
        done = dram->access(dramFoldAddr(acc.addr, cfg.dramBytes), acc.size, acc.op, at);
        bd.nvdimm = done - at;
        if (acc.op == MemOp::Write && cacheTags->markDirty(page)) {
            ++dirtyCount;
            maybeStartWriteback(done);
        }
    } else {
        // Page fault: the whole storage stack stands between the load
        // and its data.
        ++_pageFaults;
        Tick fault_entry = at + pageFaultLatency;
        Tick submitted = fault_entry + ioStackLatency;
        bd.os += submitted - at;

        // Linux readahead: sequential fault streams pull a whole
        // cluster per fault, which is how mmap approaches the device's
        // sequential bandwidth.
        seqStreak = (page == lastFaultPage + 1) ? seqStreak + 1 : 0;
        lastFaultPage = page;
        std::uint32_t cluster = 1;
        if (seqStreak >= 2)
            cluster = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(readaheadPages,
                                        _capacity / nvmeBlockSize - page));

        Tick media = ssd->hostRead(page, cluster, submitted);
        bd.ssd += media - submitted;

        Tick dma = link->transfer(std::uint64_t(cluster) * nvmeBlockSize,
                                  LinkDir::ToHost, media);
        bd.dma += dma - media;

        // Copy into the freshly allocated pages + IRQ/wakeup path.
        Tick copied = dram->access(dramFoldAddr(acc.addr & ~Addr(4095),
                                                cfg.dramBytes),
                                   cluster * nvmeBlockSize,
                                   MemOp::Write, dma);
        bd.nvdimm += copied - dma;
        Tick resumed = copied + completionLatency;
        bd.os += completionLatency;

        BufferEviction ev =
            cacheTags->insert(page, acc.op == MemOp::Write);
        for (std::uint32_t i = 1; i < cluster; ++i) {
            BufferEviction ra = cacheTags->insert(page + i, false);
            if (ra.happened && ra.dirty)
                writebackPage(ra.frameKey, resumed);
        }
        if (acc.op == MemOp::Write) {
            ++dirtyCount;
            maybeStartWriteback(resumed);
        }
        if (ev.happened && ev.dirty)
            writebackPage(ev.frameKey, resumed); // reclaim path

        // Finally the user access itself.
        done = dram->access(dramFoldAddr(acc.addr, cfg.dramBytes), acc.size, acc.op,
                            resumed);
        bd.nvdimm += done - resumed;
    }

    out.done = done;
    out.domain = &eq;
    return true;
}

void
MmapPlatform::flush(Tick at, AccessCb cb)
{
    // msync: synchronously write every dirty page back.
    LatencyBreakdown bd;
    Tick done = at + ioStackLatency;
    bd.os += ioStackLatency;
    Tick last = done;
    cacheTags->forEachDirtyAscending(
        cacheTags->dirtyCount(), [this, done, &last](std::uint64_t page) {
            last = std::max(last, writebackPage(page, done));
        });
    bd.ssd += last - done;
    scheduleCompletion(eq, last, bd, std::move(cb));
}

DeviceActivity
MmapPlatform::deviceActivity() const
{
    return {dram->device().activity(), 2,
            ssd->bufferActivity(), ssd->config().hasBuffer ? 1u : 0u,
            ssd->flashActivity(), ssd->config().geom.dies(),
            cfg.backend == MmapBackend::UllFlash ? FlashMedia::ZNand
                                                 : FlashMedia::VNand};
}

} // namespace hams
