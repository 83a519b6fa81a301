#include "ssd/ssd.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace hams {

Ssd::Ssd(const SsdConfig& cfg, EventQueue* eq) : cfg(cfg)
{
    fil = std::make_unique<Fil>(cfg.geom, cfg.nand);
    ftl = std::make_unique<PageFtl>(cfg.geom, *fil, cfg.ftl);
    ftl->attachEventQueue(eq);
    _logicalBlocks =
        ftl->logicalPages() * cfg.geom.pageSize / nvmeBlockSize;
    if (_logicalBlocks == 0)
        fatal("SSD '", cfg.name, "' exports zero capacity");
    volatileData = VolatileStore(_logicalBlocks);

    if (cfg.hasBuffer)
        buf = std::make_unique<DramBuffer>(cfg.buffer, _logicalBlocks);
    hil = std::make_unique<Hil>(cfg.hil, *ftl, buf.get(), cfg.geom);

    if (cfg.functionalData)
        store = std::make_unique<SparseMemory>(
            _logicalBlocks * std::uint64_t(nvmeBlockSize));
}

Tick
Ssd::admit(Tick at)
{
    while (!inflight.empty() && inflight.top() <= at)
        inflight.pop();
    if (inflight.size() >= cfg.maxOutstanding) {
        ++_stats.throttledCommands;
        at = std::max(at, inflight.top());
        inflight.pop();
    }
    return at;
}

void
Ssd::retire(Tick done)
{
    HAMS_LINT_SUPPRESS("completion-heap growth is bounded by "
                       "maxOutstanding; steady state pops as it pushes")
    inflight.push(done);
}

void
Ssd::destage(std::uint64_t block)
{
    const std::uint8_t* frame = volatileData.find(block);
    if (!frame)
        return;
    if (store)
        store->write(block * nvmeBlockSize, frame, nvmeBlockSize);
    volatileData.erase(block);
}

Tick
Ssd::hostRead(std::uint64_t slba, std::uint32_t blocks, Tick at,
              std::uint8_t* dst)
{
    if (slba + blocks > _logicalBlocks)
        fatal("read beyond SSD '", cfg.name, "' capacity");

    Tick start = admit(at);
    Tick done = start;
    for (std::uint32_t i = 0; i < blocks; ++i) {
        std::uint64_t block = slba + i;
        bool hit = false;
        done = std::max(done, hil->readBlock(block, start, hit));
        if (hit)
            ++_stats.bufferHits;
        else
            ++_stats.bufferMisses;

        if (dst) {
            std::uint8_t* out = dst + std::size_t(i) * nvmeBlockSize;
            const std::uint8_t* frame = volatileData.find(block);
            if (frame)
                std::memcpy(out, frame, nvmeBlockSize);
            else if (store)
                store->read(block * nvmeBlockSize, out, nvmeBlockSize);
            else
                std::memset(out, 0, nvmeBlockSize);
        }
    }
    retire(done);
    return done;
}

Tick
Ssd::hostWrite(std::uint64_t slba, std::uint32_t blocks, bool fua, Tick at,
               const std::uint8_t* src)
{
    if (slba + blocks > _logicalBlocks)
        fatal("write beyond SSD '", cfg.name, "' capacity");
    if (fua)
        ++_stats.fuaWrites;

    Tick start = admit(at);
    Tick done = start;
    bool buffered = buf && !fua;
    for (std::uint32_t i = 0; i < blocks; ++i) {
        std::uint64_t block = slba + i;
        BufferEviction ev;
        done = std::max(done, hil->writeBlock(block, fua, start, ev));
        if (ev.happened && ev.dirty)
            destage(ev.frameKey);

        if (src) {
            const std::uint8_t* in = src + std::size_t(i) * nvmeBlockSize;
            if (buffered) {
                std::memcpy(volatileData.insert(block), in,
                            nvmeBlockSize);
            } else if (store) {
                store->write(block * nvmeBlockSize, in, nvmeBlockSize);
                volatileData.erase(block);
            }
        } else if (!buffered) {
            // Timing-only run can still destage stale volatile bytes.
            destage(block);
        }
    }
    retire(done);
    return done;
}

void
Ssd::pokeWrite(std::uint64_t slba, std::uint32_t blocks, bool fua,
               const std::uint8_t* src)
{
    if (slba + blocks > _logicalBlocks)
        fatal("pokeWrite beyond SSD '", cfg.name, "' capacity");
    bool buffered = buf && !fua;
    for (std::uint32_t i = 0; i < blocks; ++i) {
        std::uint64_t block = slba + i;
        const std::uint8_t* in = src + std::size_t(i) * nvmeBlockSize;
        if (buffered) {
            std::memcpy(volatileData.insert(block), in, nvmeBlockSize);
        } else if (store) {
            store->write(block * nvmeBlockSize, in, nvmeBlockSize);
            volatileData.erase(block);
        }
    }
}

Tick
Ssd::hostFlush(Tick at)
{
    ++_stats.flushes;
    Tick done = hil->flushAll(admit(at));
    // Functionally everything buffered becomes durable. Drain from the
    // back of the insertion-ordered key list: each destage() erase is
    // an O(1) pop of that same key, so the sweep needs no snapshot, no
    // allocation, and visits frames in a reproducible order.
    while (!volatileData.empty())
        destage(volatileData.keys().back());
    retire(done);
    return done;
}

Tick
Ssd::powerFail(std::uint64_t max_drain_frames)
{
    // In-flight background GC work dies with the power (the owner of
    // the event queue has already dropped the pending events). The
    // FTL must release its FlashOpHandles here, while the FIL still
    // honours them — powerRestore() resets the registry, after which
    // a leaked handle would alias a post-boot op.
    ftl->onPowerFail();
    if (fil->trackedOps() != 0)
        fatal("SSD '", cfg.name, "' leaked ", fil->trackedOps(),
              " tracked flash op handles across power failure");
    Tick drain = 0;
    if (cfg.hasSupercap && buf) {
        // The supercap powers a buffer drain: dirty frames program to
        // flash at the aggregate throughput of the complex. Pure
        // integer tick arithmetic — a frame costs
        // ceil(frameBytes / pageSize) programs, the units pipeline
        // them — so the drain tick is bit-identical across
        // compilers and -O levels.
        std::uint64_t dirty = buf->dirtyCount();
        std::uint64_t drained =
            std::min<std::uint64_t>(dirty, max_drain_frames);
        if (drained != 0) {
            std::uint64_t programs =
                (drained * nvmeBlockSize + cfg.geom.pageSize - 1) /
                cfg.geom.pageSize;
            std::uint64_t pus = cfg.geom.parallelUnits();
            drain = ((programs + pus - 1) / pus) * cfg.nand.tPROG;
            buf->forEachDirtyAscending(
                drained, [this](std::uint64_t block) { destage(block); });
        }
        // A second failure mid-drain (max_drain_frames) loses every
        // frame past the destaged prefix.
        if (drained != dirty)
            volatileData.clear();
    } else {
        // No supercap: buffered writes that never reached flash are gone.
        volatileData.clear();
    }
    if (buf)
        buf->dropAll();
    return drain;
}

void
Ssd::powerRestore()
{
    fil->reset();
    while (!inflight.empty())
        inflight.pop();
}

DramActivity
Ssd::bufferActivity() const
{
    // Bytes only are counted: split the 64 B bursts evenly between
    // reads and writes, one row activation per 64 bursts.
    DramActivity act;
    std::uint64_t bursts = (buf ? buf->bytesAccessed() : 0) / 64;
    act.reads = bursts / 2;
    act.writes = bursts - act.reads;
    act.activates = bursts / 64;
    return act;
}

void
Ssd::peek(std::uint64_t slba, std::uint32_t blocks, std::uint8_t* dst) const
{
    for (std::uint32_t i = 0; i < blocks; ++i) {
        std::uint64_t block = slba + i;
        std::uint8_t* out = dst + std::size_t(i) * nvmeBlockSize;
        const std::uint8_t* frame = volatileData.find(block);
        if (frame)
            std::memcpy(out, frame, nvmeBlockSize);
        else if (store)
            store->read(block * nvmeBlockSize, out, nvmeBlockSize);
        else
            std::memset(out, 0, nvmeBlockSize);
    }
}

} // namespace hams
