#include "ssd/hil.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

namespace {

/** Firmware path of an NVMe Flush, before any buffer writeback. */
constexpr Tick flushFirmware = microseconds(2.0);

} // namespace

Hil::Hil(const HilConfig& cfg, PageFtl& ftl, DramBuffer* buffer,
         const FlashGeometry& geom)
    : cfg(cfg), ftl(ftl), buffer(buffer)
{
    if (nvmeBlockSize % geom.pageSize != 0)
        fatal("FTL unit ", geom.pageSize, " must divide the 4 KiB block");
    unitSize = geom.pageSize;
    _unitsPerBlock = nvmeBlockSize / geom.pageSize;
}

Tick
Hil::readBlock(std::uint64_t block, Tick at, bool& buffer_hit)
{
    Tick issued = at + cfg.readFirmware;
    if (buffer && buffer->lookup(block)) {
        buffer_hit = true;
        return buffer->access(nvmeBlockSize, issued);
    }
    buffer_hit = false;

    // Sub-requests fan out to the FTL concurrently; striped allocation
    // puts the units of one block on different channels.
    Tick done = issued;
    for (std::uint32_t u = 0; u < _unitsPerBlock; ++u)
        done = std::max(done, ftl.readPage(lpnOf(block, u), unitSize,
                                           issued));

    if (buffer) {
        BufferEviction ev = buffer->insert(block, /*dirty=*/false);
        if (ev.happened && ev.dirty)
            writebackFrame(ev.frameKey, done); // background, not serialised
        done = buffer->access(nvmeBlockSize, done);
    }
    return done;
}

Tick
Hil::writebackFrame(std::uint64_t block, Tick at)
{
    Tick done = at;
    for (std::uint32_t u = 0; u < _unitsPerBlock; ++u)
        done = std::max(done, ftl.writePage(lpnOf(block, u), unitSize, at));
    if (buffer)
        buffer->markClean(block);
    return done;
}

Tick
Hil::writeBlock(std::uint64_t block, bool fua, Tick at,
                BufferEviction& evicted)
{
    Tick issued = at + cfg.writeFirmware;
    evicted = BufferEviction{};

    if (buffer && !fua) {
        // Buffered (write-back) path: ack once the data sits in DRAM.
        evicted = buffer->insert(block, /*dirty=*/true);
        if (evicted.happened && evicted.dirty)
            writebackFrame(evicted.frameKey, issued); // background
        return buffer->access(nvmeBlockSize, issued);
    }

    // Write-through path (FUA or no buffer): program the flash now.
    Tick done = issued;
    for (std::uint32_t u = 0; u < _unitsPerBlock; ++u)
        done = std::max(done,
                        ftl.writePage(lpnOf(block, u), unitSize, issued));
    if (buffer) {
        buffer->insert(block, /*dirty=*/false);
        done = buffer->access(nvmeBlockSize, done);
    }
    return done;
}

Tick
Hil::flushAll(Tick at)
{
    Tick done = at + flushFirmware;
    if (!buffer)
        return done;
    // Flush runs on the flush-heavy `update` workload's hot path, so it
    // visits the dirty keys in place; writebackFrame() cleans just the
    // key it is handed, as the visitor contract requires.
    Tick issued = done;
    buffer->forEachDirtyAscending(
        buffer->dirtyCount(), [this, issued, &done](std::uint64_t key) {
            done = std::max(done, writebackFrame(key, issued));
        });
    return done;
}

} // namespace hams
