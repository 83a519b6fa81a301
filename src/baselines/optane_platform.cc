#include "baselines/optane_platform.hh"

#include <algorithm>

#include "nvme/nvme_types.hh"
#include "sim/logging.hh"

namespace hams {

namespace {

constexpr std::uint32_t internalBlock = 256;   //!< media access granule
constexpr Tick readLatency = nanoseconds(200); //!< loaded read (169-305 ns)
constexpr Tick writeLatency = nanoseconds(94); //!< into the XPBuffer
constexpr double mediaReadBw = 6.6e9;          //!< bytes/s per DIMM
constexpr double mediaWriteBw = 2.3e9;         //!< bytes/s per DIMM
constexpr std::uint32_t xpBufferBytes = 16 * 1024;

} // namespace

OptanePlatform::OptanePlatform(const OptaneConfig& cfg)
    : cfg(cfg), _name(cfg.memoryMode ? "optane-M" : "optane-P")
{
    if (cfg.memoryMode) {
        dramCache = std::make_unique<MemoryController>(
            Ddr4Timing::speedGrade(2666), cfg.dramCacheBytes);
        DramBufferConfig tag_cfg;
        tag_cfg.capacity = cfg.dramCacheBytes;
        tag_cfg.frameSize = nvmeBlockSize;
        cacheTags = std::make_unique<DramBuffer>(
            tag_cfg, cfg.pmmBytes / nvmeBlockSize);
    }
}

OptanePlatform::~OptanePlatform() = default;

Tick
OptanePlatform::mediaAccess(std::uint32_t size, MemOp op, Tick at,
                            LatencyBreakdown& bd)
{
    // Internal accesses move whole 256 B blocks: small requests are
    // amplified, wasting media bandwidth (paper SSVI-B).
    std::uint64_t moved =
        (size + internalBlock - 1) / internalBlock * internalBlock;

    if (op == MemOp::Read) {
        Tick start = std::max(at, mediaBusyUntil);
        auto occupancy = static_cast<Tick>(moved / mediaReadBw * 1e12);
        Tick done = start + readLatency + occupancy;
        mediaBusyUntil = start + occupancy;
        bd.nvdimm += done - at;
        return done;
    }

    // Writes land in the XPBuffer quickly until it fills; then they
    // proceed at the (amplified) media write bandwidth.
    Tick start = std::max(at, mediaBusyUntil);
    // Drain the buffer model for the elapsed time.
    double drained = (start > lastDrain)
                         ? ticksToSeconds(start - lastDrain) * mediaWriteBw
                         : 0.0;
    xpBufferFill = drained >= static_cast<double>(xpBufferFill)
                       ? 0
                       : xpBufferFill - static_cast<std::uint64_t>(drained);
    lastDrain = start;

    Tick done;
    if (xpBufferFill + moved <= xpBufferBytes) {
        done = start + writeLatency;
        xpBufferFill += moved;
    } else {
        auto occupancy = static_cast<Tick>(moved / mediaWriteBw * 1e12);
        done = start + writeLatency + occupancy;
        mediaBusyUntil = start + occupancy;
    }
    bd.nvdimm += done - at;
    return done;
}

bool
OptanePlatform::tryAccess(const MemAccess& acc, Tick at,
                          InlineCompletion& out)
{
    if (acc.addr + acc.size > cfg.pmmBytes)
        fatal("optane access beyond capacity");

    LatencyBreakdown& bd = out.bd;
    bd = LatencyBreakdown{};
    Tick done;

    if (cacheTags) {
        std::uint64_t page = acc.addr / nvmeBlockSize;
        if (cacheTags->lookup(page)) {
            done = dramCache->access(dramFoldAddr(acc.addr, cfg.dramCacheBytes),
                                     acc.size, acc.op, at);
            bd.nvdimm = done - at;
            if (acc.op == MemOp::Write)
                cacheTags->markDirty(page);
        } else {
            // Miss: fetch the page from media into the DRAM cache.
            Tick fetched = mediaAccess(nvmeBlockSize, MemOp::Read, at, bd);
            Tick filled = dramCache->access(
                dramFoldAddr(acc.addr & ~Addr(4095), cfg.dramCacheBytes),
                nvmeBlockSize, MemOp::Write,
                                            fetched);
            bd.nvdimm += filled - fetched;
            BufferEviction ev =
                cacheTags->insert(page, acc.op == MemOp::Write);
            if (ev.happened && ev.dirty)
                mediaAccess(nvmeBlockSize, MemOp::Write, filled, bd);
            done = dramCache->access(dramFoldAddr(acc.addr, cfg.dramCacheBytes),
                                     acc.size, acc.op, filled);
            bd.nvdimm += done - filled;
        }
    } else {
        done = mediaAccess(acc.size, acc.op, at, bd);
    }

    out.done = done;
    out.domain = &eq;
    return true;
}

DeviceActivity
OptanePlatform::deviceActivity() const
{
    // The paper's energy figure (Fig. 19) only covers mmap and the HAMS
    // variants; report DRAM-cache activity for completeness.
    if (!dramCache)
        return {};
    return {dramCache->device().activity(), 2};
}

} // namespace hams
