#include "baselines/flatflash_platform.hh"

#include "sim/logging.hh"
#include "ssd/device_configs.hh"

namespace hams {

namespace {

/** SSD-internal DRAM serving cache-line MMIO. */
constexpr std::uint64_t internalDramBytes = 64ull << 20;
/** Internal DRAM service time for one cache line. */
constexpr Tick internalAccess = nanoseconds(250);

} // namespace

FlatFlashPlatform::FlatFlashPlatform(const FlatFlashConfig& cfg)
    : cfg(cfg), _name(cfg.hostCaching ? "flatflash-M" : "flatflash-P")
{
    // The platform models the internal DRAM itself (cache-line MMIO
    // service), so the device model runs bufferless underneath.
    ssd = std::make_unique<Ssd>(
        ullFlashConfig(cfg.ssdRawBytes, /*functional_data=*/false,
                       /*with_supercap=*/false, /*with_buffer=*/false));
    link = std::make_unique<PcieLink>(ullFlashLink());
    _capacity = ssd->capacityBytes();
    touches = DirectTable<std::uint32_t>(_capacity / nvmeBlockSize, 0);

    DramBufferConfig internal_cfg;
    internal_cfg.capacity = internalDramBytes;
    internal_cfg.frameSize = nvmeBlockSize;
    internalTags = std::make_unique<DramBuffer>(
        internal_cfg, _capacity / nvmeBlockSize);

    if (cfg.hostCaching) {
        hostDram = std::make_unique<MemoryController>(
            Ddr4Timing::speedGrade(paperDdr4Mts), cfg.hostDramBytes);
        DramBufferConfig tag_cfg;
        tag_cfg.capacity = cfg.hostDramBytes;
        tag_cfg.frameSize = nvmeBlockSize;
        hostCacheTags = std::make_unique<DramBuffer>(
            tag_cfg, _capacity / nvmeBlockSize);
    }
}

FlatFlashPlatform::~FlatFlashPlatform() = default;

bool
FlatFlashPlatform::tryAccess(const MemAccess& acc, Tick at,
                             InlineCompletion& out)
{
    if (acc.addr + acc.size > _capacity)
        fatal("flatflash access beyond capacity");

    std::uint64_t page = acc.addr / nvmeBlockSize;
    LatencyBreakdown& bd = out.bd;
    bd = LatencyBreakdown{};
    Tick done;

    if (hostCacheTags && hostCacheTags->lookup(page)) {
        // Promoted page: plain DRAM access.
        ++_hostHits;
        done = hostDram->access(dramFoldAddr(acc.addr, cfg.hostDramBytes), acc.size,
                                acc.op, at);
        bd.nvdimm = done - at;
    } else {
        // MMIO to the SSD: the request crosses PCIe and is served at
        // cache-line granularity by the SSD-internal DRAM; an internal
        // miss pulls the whole page from flash first. Serialised: MMIO
        // has no queue to exploit the flash parallelism (the paper's
        // core criticism). One 64 B access lands near the paper's
        // 4.8 us figure.
        Tick req = link->transfer(acc.size, LinkDir::ToDevice, at);
        Tick ready = req + cfg.mmioOverhead;
        Tick served;
        if (internalTags->lookup(page)) {
            served = ready + internalAccess;
        } else {
            served = ssd->hostRead(page, 1, ready) + internalAccess;
            internalTags->insert(page, acc.op == MemOp::Write);
        }
        if (acc.op == MemOp::Read)
            done = link->transfer(acc.size, LinkDir::ToHost, served);
        else
            done = served;
        bd.dma += (req - at) + cfg.mmioOverhead + (done - served);
        bd.ssd += served - ready;

        if (hostCacheTags) {
            // Hot-page promotion: after enough touches, migrate the
            // page into host DRAM over PCIe.
            std::uint32_t& n = touches.at(page);
            if (++n >= cfg.promoteThreshold) {
                n = 0;
                Tick mig_media = ssd->hostRead(page, 1, done);
                Tick mig_dma = link->transfer(nvmeBlockSize,
                                              LinkDir::ToHost, mig_media);
                Tick mig_done = hostDram->access(
                    dramFoldAddr(acc.addr & ~Addr(4095),
                                 cfg.hostDramBytes), nvmeBlockSize,
                    MemOp::Write, mig_dma);
                hostCacheTags->insert(page, acc.op == MemOp::Write);
                ++_promotions;
                bd.ssd += mig_media - done;
                bd.dma += mig_dma - mig_media;
                bd.nvdimm += mig_done - mig_dma;
                done = mig_done;
            }
        }
    }

    out.done = done;
    out.domain = &eq;
    return true;
}

DeviceActivity
FlatFlashPlatform::deviceActivity() const
{
    // Internal DRAM: background plus the MMIO line traffic.
    DramActivity internal;
    internal.reads = _hostHits + internalTags->residentFrames();
    return {hostDram ? hostDram->device().activity() : DramActivity{},
            hostDram ? 2u : 0u, internal, 1, ssd->flashActivity(),
            ssd->config().geom.dies(), FlashMedia::ZNand};
}

} // namespace hams
