#include "ssd/ssd.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace hams {

namespace {

/** Frames promoted/demoted per migration step. */
constexpr std::uint32_t migBatchFrames = 4;

} // namespace

Ssd::Ssd(const SsdConfig& cfg, EventQueue* eq) : cfg(cfg), eq(eq)
{
    fil = std::make_unique<Fil>(cfg.geom, cfg.nand);
    ftl = std::make_unique<PageFtl>(cfg.geom, *fil, cfg.ftl);
    ftl->attachEventQueue(eq);
    _logicalBlocks =
        ftl->logicalPages() * cfg.geom.pageSize / nvmeBlockSize;
    if (_logicalBlocks == 0)
        fatal("SSD '", cfg.name, "' exports zero capacity");

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

void
Ssd::attachTiering(const HotnessTracker* tracker, const TieringConfig& tiering)
{
    tier = tracker;
    tcfg = tiering;
    if (!tracker || !tiering.enabled) {
        if (buf)
            buf->setVictimSelector({});
        migOn = false;
        return;
    }
    if (tiering.pinHotFrames && buf)
        buf->setVictimSelector(
            makeColdFirstSelector(*tracker, tiering.pinScanLimit));
    // Migration needs an event queue for background steps and a buffer
    // to promote into / demote out of; MmapPlatform rejects the config
    // before it gets here.
    if (tiering.migration && (eq == nullptr || buf == nullptr))
        panic("tiering migration on an SSD without ",
              eq == nullptr ? "an event queue" : "a buffer");
    migOn = tiering.migration;
}

void
Ssd::noteMigActivity(Tick done)
{
    if (!migOn)
        return;
    migLastActivity = std::max(migLastActivity, done);
    if (migScheduled)
        return; // pending step re-checks the deadline when it fires
    migScheduled = true;
    eq->scheduleAt(std::max(eq->now(),
                            migLastActivity + tcfg.migIdleDelay),
                   [this] { migStep(); });
}

Tick
Ssd::migPromote(std::uint64_t block, Tick at)
{
    // All units of the frame must be mapped — an unwritten frame has
    // nothing to promote (reads of it are served as zeroes anyway).
    std::uint32_t units = hil->unitsPerBlock();
    std::uint32_t unit_bytes = nvmeBlockSize / units;
    for (std::uint32_t u = 0; u < units; ++u)
        if (!ftl->isMapped(block * units + u))
            return at;
    Tick done = at;
    for (std::uint32_t u = 0; u < units; ++u) {
        if (migOp.valid())
            fil->release(migOp);
        done = std::max(done, ftl->backgroundReadPage(
                                  block * units + u, unit_bytes, at,
                                  migOp));
    }
    // The frame arrives clean (flash still holds it); displacing a
    // dirty victim rides the normal writeback path.
    BufferEviction ev = buf->insert(block, /*dirty=*/false);
    if (ev.happened && ev.dirty) {
        done = std::max(done, hil->writebackFrame(ev.frameKey, at));
        destage(ev.frameKey);
    }
    ++_tierStats.promotions;
    return done;
}

Tick
Ssd::migDemote(std::uint64_t block, Tick at)
{
    std::uint32_t units = hil->unitsPerBlock();
    std::uint32_t unit_bytes = nvmeBlockSize / units;
    Tick done = at;
    for (std::uint32_t u = 0; u < units; ++u) {
        if (migOp.valid())
            fil->release(migOp);
        done = std::max(done, ftl->backgroundWritePage(
                                  block * units + u, unit_bytes, at,
                                  migOp));
    }
    // The frame stays resident but clean: its bytes are durable now,
    // so a later eviction is free and power loss cannot take it.
    buf->markClean(block);
    destage(block);
    ++_tierStats.demotions;
    return done;
}

void
Ssd::migStep()
{
    migScheduled = false;
    Tick now = eq->now();
    // Host activity since this step was armed pushes the quiet-window
    // deadline out; re-arm instead of competing with the host.
    Tick deadline = migLastActivity + tcfg.migIdleDelay;
    if (now < deadline) {
        migScheduled = true;
        eq->scheduleAt(deadline, [this] { migStep(); });
        return;
    }
    // The previous batch's last flash op may have been pushed later by
    // foreground suspension; wait for it before issuing more.
    if (migOp.valid()) {
        Tick ready = fil->completionOf(migOp);
        if (ready > now) {
            migScheduled = true;
            eq->scheduleAt(ready, [this] { migStep(); });
            return;
        }
        fil->release(migOp);
        migOp = FlashOpHandle{};
    }
    if (!migActive) {
        migActive = true;
        migScanned = 0;
    }
    // Yield to GC: a free pool inside the watermark band means the
    // flash complex is needed for reclamation, not tiering. Deactivate
    // rather than self-reschedule (a pool pinned low must not keep the
    // event queue alive forever); the next host completion re-arms.
    if (ftl->minFreeBlocks() <= cfg.ftl.gcHighWater) {
        ++_tierStats.paceDeferrals;
        migActive = false;
        return;
    }
    std::uint64_t frames = _logicalBlocks;
    std::uint64_t scan =
        std::min<std::uint64_t>(tcfg.migScanFrames, frames);
    std::uint32_t moved = 0;
    Tick done = now;
    for (std::uint64_t i = 0; i < scan && moved < migBatchFrames &&
                              migScanned < frames;
         ++i, ++migScanned) {
        std::uint64_t block = migCursor;
        migCursor = migCursor + 1 == frames ? 0 : migCursor + 1;
        bool hot = tier->isHotFrame(block);
        if (hot && !buf->contains(block)) {
            Tick t = migPromote(block, now);
            if (t > now)
                ++moved;
            done = std::max(done, t);
        } else if (!hot && buf->isDirty(block)) {
            done = std::max(done, migDemote(block, now));
            ++moved;
        }
    }
    if (moved != 0)
        ++_tierStats.migSteps;
    if (migScanned >= frames) {
        // One full wrap examined: this activation is done. Bounding an
        // activation at a single wrap guarantees promote/evict churn
        // terminates even when the hot set exceeds the buffer.
        migActive = false;
        return;
    }
    migScheduled = true;
    eq->scheduleAt(std::max(done, now + tcfg.migIdleDelay),
                   [this] { migStep(); });
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
    noteMigActivity(done);
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
    noteMigActivity(done);
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
    noteMigActivity(done);
    return done;
}

Tick
Ssd::powerFail(std::uint64_t max_drain_frames)
{
    // In-flight background migration dies with the power exactly like
    // GC: release the tracked handle while the FIL still honours it,
    // and forget the (event-queue-resident, already-dropped) step.
    if (migOp.valid()) {
        fil->release(migOp);
        migOp = FlashOpHandle{};
    }
    migScheduled = false;
    migActive = false;
    migScanned = 0;
    migCursor = 0;
    migLastActivity = 0;
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
