#include "baselines/nvdimm_c_platform.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "ssd/device_configs.hh"

namespace hams {

namespace {

/**
 * Refresh windows one page migration occupies. The HPCA'20 design
 * shares each window with the refresh itself, so a 4 KiB move spreads
 * over several tREFI periods — the paper quotes up to 48 us per page
 * under load.
 */
constexpr std::uint32_t windowsPerPage = 3;

} // namespace

NvdimmCPlatform::NvdimmCPlatform(const NvdimmCConfig& cfg) : cfg(cfg)
{
    dram = std::make_unique<MemoryController>(
        Ddr4Timing::speedGrade(paperDdr4Mts), cfg.dramBytes);
    // The flash complex sits on the DRAM PHY: no PCIe link anywhere.
    flash = std::make_unique<Ssd>(
        ullFlashConfig(cfg.flashRawBytes, /*functional_data=*/false));
    _capacity = flash->capacityBytes();

    DramBufferConfig tag_cfg;
    tag_cfg.capacity = cfg.dramBytes;
    tag_cfg.frameSize = nvmeBlockSize;
    cacheTags = std::make_unique<DramBuffer>(
        tag_cfg, _capacity / nvmeBlockSize);
}

NvdimmCPlatform::~NvdimmCPlatform() = default;

Tick
NvdimmCPlatform::claimWindow(Tick t)
{
    // Windows open every refreshInterval; one page occupies
    // windowsPerPage consecutive windows. Claim the first free slot at
    // or after t; the migration completes at its last window.
    Tick window =
        (t + refreshInterval - 1) / refreshInterval * refreshInterval;
    window = std::max(window, nextWindowFree);
    Tick done = window + Tick(windowsPerPage - 1) * refreshInterval;
    nextWindowFree = done + refreshInterval;
    return done;
}

bool
NvdimmCPlatform::tryAccess(const MemAccess& acc, Tick at,
                           InlineCompletion& out)
{
    if (acc.addr + acc.size > _capacity)
        fatal("nvdimm-C access beyond capacity");

    std::uint64_t page = acc.addr / nvmeBlockSize;
    LatencyBreakdown& bd = out.bd;
    bd = LatencyBreakdown{};
    Tick done;

    if (cacheTags->lookup(page)) {
        done = dram->access(dramFoldAddr(acc.addr, cfg.dramBytes), acc.size, acc.op, at);
        bd.nvdimm = done - at;
        if (acc.op == MemOp::Write)
            cacheTags->markDirty(page);
    } else {
        // Fetch the page from flash (cheap), then wait for a refresh
        // window to move it across the shared channel (expensive).
        Tick media = flash->hostRead(page, 1, at);
        bd.ssd += media - at;

        Tick window = claimWindow(media);
        Tick moved = dram->access(dramFoldAddr(acc.addr & ~Addr(4095),
                                               cfg.dramBytes),
                                  nvmeBlockSize,
                                  MemOp::Write, window);
        bd.dma += window - media;   // stalled waiting for the window
        bd.nvdimm += moved - window;

        BufferEviction ev = cacheTags->insert(page,
                                              acc.op == MemOp::Write);
        if (ev.happened && ev.dirty) {
            // Dirty victim also needs a window on its way out.
            Tick out_window = claimWindow(moved);
            flash->hostWrite(ev.frameKey, 1, /*fua=*/false, out_window);
            ++_migrations;
        }
        ++_migrations;

        done = dram->access(dramFoldAddr(acc.addr, cfg.dramBytes), acc.size, acc.op,
                            moved);
        bd.nvdimm += done - moved;
    }

    out.done = done;
    out.domain = &eq;
    return true;
}

DeviceActivity
NvdimmCPlatform::deviceActivity() const
{
    return {dram->device().activity(), 2, {}, 0, flash->flashActivity(),
            flash->config().geom.dies(), FlashMedia::ZNand};
}

} // namespace hams
