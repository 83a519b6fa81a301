#include "ftl/page_ftl.hh"

#include <algorithm>
#include <functional>
#include <limits>

#include "sim/logging.hh"

namespace hams {

PageFtl::PageFtl(const FlashGeometry& geom, Fil& fil, const FtlConfig& cfg)
    : geom(geom), fil(fil), cfg(cfg)
{
    if (cfg.overProvision <= 0.0 || cfg.overProvision >= 0.5)
        fatal("FTL over-provisioning must be in (0, 0.5), got ",
              cfg.overProvision);
    if (cfg.gcHighWater <= cfg.gcLowWater)
        fatal("FTL gcHighWater must exceed gcLowWater");
    if (geom.blocksPerPlane <= cfg.gcHighWater + 1)
        fatal("flash geometry too small for the GC watermarks");
    if (cfg.backgroundGc) {
        if (cfg.gcReserveBlocks >= cfg.gcLowWater)
            fatal("FTL gcReserveBlocks (", cfg.gcReserveBlocks,
                  ") must stay below gcLowWater (", cfg.gcLowWater,
                  ") so background GC starts before the reserve is hit");
        if (cfg.gcBatchPages == 0)
            fatal("FTL gcBatchPages must be at least 1");
    }
    if (cfg.gcAdaptivePacing && !cfg.backgroundGc)
        fatal("FTL gcAdaptivePacing requires backgroundGc: the pacer "
              "rate-limits the background machines");
    if (cfg.gcVictimQuality && !cfg.gcAdaptivePacing)
        fatal("FTL gcVictimQuality requires gcAdaptivePacing: the "
              "quality allowance ramps with the pacer level");

    _logicalPages = static_cast<std::uint64_t>(
        static_cast<double>(geom.totalPages()) * (1.0 - cfg.overProvision));

    l2p = DirectTable<std::uint64_t>(_logicalPages, unmapped);

    std::uint64_t pu_count = geom.parallelUnits();
    units.resize(pu_count);
    blocks.resize(pu_count * geom.blocksPerPlane);
    for (std::uint64_t pu = 0; pu < pu_count; ++pu) {
        Unit& u = units[pu];
        // Every block of the unit can sit on either list, so reserving
        // both to unit capacity up front makes the steady-state write
        // path literally allocation-free: closing a block or recycling
        // a GC victim never grows a vector.
        u.freeBlocks.reserve(geom.blocksPerPlane);
        u.closedBlocks.reserve(geom.blocksPerPlane);
        // A min-heap on the packed (wear, block) key: the least-worn
        // block pops first, ties to the lowest index.
        for (std::uint32_t b = 0; b < geom.blocksPerPlane; ++b)
            u.freeBlocks.push_back(freeKey(0, b));
        std::make_heap(u.freeBlocks.begin(), u.freeBlocks.end(),
                       std::greater<>());
    }
}

std::uint64_t
PageFtl::blockGlobalIndex(std::uint64_t pu, std::uint32_t block) const
{
    return pu * geom.blocksPerPlane + block;
}

std::uint64_t
PageFtl::makePpn(std::uint64_t pu, std::uint32_t block,
                 std::uint32_t page) const
{
    return (pu * geom.blocksPerPlane + block) * geom.pagesPerBlock + page;
}

void
PageFtl::splitPpn(std::uint64_t ppn, std::uint64_t& pu, std::uint32_t& block,
                  std::uint32_t& page) const
{
    page = static_cast<std::uint32_t>(ppn % geom.pagesPerBlock);
    std::uint64_t blk = ppn / geom.pagesPerBlock;
    block = static_cast<std::uint32_t>(blk % geom.blocksPerPlane);
    pu = blk / geom.blocksPerPlane;
}

PageFtl::Block&
PageFtl::blockOf(std::uint64_t pu, std::uint32_t block)
{
    return blocks[blockGlobalIndex(pu, block)];
}

void
PageFtl::ensureBlockArrays(Block& b)
{
    if (b.pageLpns.empty()) {
        HAMS_LINT_SUPPRESS("first-touch per-block metadata; sized once "
                           "and reused across erase cycles")
        b.pageLpns.assign(geom.pagesPerBlock,
                          std::numeric_limits<std::uint64_t>::max());
        HAMS_LINT_SUPPRESS("first-touch per-block metadata; sized once "
                           "and reused across erase cycles")
        b.validBits.assign((geom.pagesPerBlock + 63) / 64, 0);
    }
}

void
PageFtl::invalidate(std::uint64_t ppn)
{
    std::uint64_t pu;
    std::uint32_t block, page;
    splitPpn(ppn, pu, block, page);
    Block& b = blockOf(pu, block);
    ensureBlockArrays(b);
    std::uint64_t& word = b.validBits[page / 64];
    std::uint64_t mask = 1ull << (page % 64);
    if (word & mask) {
        word &= ~mask;
        --b.validCount;
    }
}

Tick
PageFtl::readPage(std::uint64_t lpn, std::uint32_t bytes, Tick at)
{
    ++_stats.hostReads;
    if (gcActiveMachines > 0)
        ++_stats.gcForegroundOverlap;
    std::uint64_t ppn = l2p.get(lpn);
    if (ppn == unmapped)
        return at; // unmapped: zero-fill, no flash access
    return fil.submit({FlashOp::Type::Read, ppn, bytes}, at);
}

std::uint32_t
PageFtl::takeFreeBlock(Unit& u, std::uint64_t pu)
{
    if (u.freeBlocks.empty())
        fatal("parallel unit ", pu, " has no free blocks: GC cannot keep "
              "up with the write load (watermarks: reserve=",
              cfg.gcReserveBlocks, " low=", cfg.gcLowWater,
              " high=", cfg.gcHighWater, "; closedBlocks=",
              u.closedBlocks.size(), ", victim=", u.gc.victim,
              " cursor=", u.gc.nextPage, " pendingFree=", u.gc.pendingFree,
              ", active=", u.activeBlock, " writePtr=",
              u.activeBlock >= 0
                  ? blockOf(pu, static_cast<std::uint32_t>(u.activeBlock))
                        .writePtr
                  : 0,
              ", paceLevel=", _stats.paceLevel,
              ", gc machine ", u.gc.active ? "active" : "idle", ", mode ",
              backgroundGcEnabled() ? "background" : "synchronous", ")");
    std::pop_heap(u.freeBlocks.begin(), u.freeBlocks.end(),
                  std::greater<>());
    std::uint64_t key = u.freeBlocks.back();
    u.freeBlocks.pop_back();
    return keyBlock(key);
}

void
PageFtl::pushFreeBlock(std::uint64_t pu, std::uint32_t block)
{
    Unit& u = units[pu];
    HAMS_LINT_SUPPRESS("free-pool return; capacity is bounded by the "
                       "unit's physical block count")
    u.freeBlocks.push_back(freeKey(blockOf(pu, block).eraseCount, block));
    std::push_heap(u.freeBlocks.begin(), u.freeBlocks.end(),
                   std::greater<>());
}

std::uint64_t
PageFtl::allocate(std::uint64_t pu, Tick& at, bool for_gc)
{
    Unit& u = units[pu];
    // A half-relocated victim can always finish inside the active
    // block's slack plus one reserve block (victims are never fully
    // valid) — but only if foreground writes don't consume that slack
    // while the pool is empty. Settle the in-flight victim first.
    if (!for_gc && backgroundGcEnabled() && u.freeBlocks.empty() &&
        (u.gc.victim >= 0 || u.gc.pendingFree >= 0))
        at = reclaimForeground(pu, at);
    if (u.activeBlock < 0 ||
        blockOf(pu, static_cast<std::uint32_t>(u.activeBlock))
            .full(geom.pagesPerBlock)) {
        if (u.activeBlock >= 0) {
            HAMS_LINT_SUPPRESS("closed-block list is bounded by the "
                               "unit's physical block count")
            u.closedBlocks.push_back(
                static_cast<std::uint32_t>(u.activeBlock));
            // Settle the cursor before GC runs below: a nested
            // relocation allocate() seeing the stale full block would
            // push it onto closedBlocks a second time, and the
            // double-listed block eventually gets erased while it is
            // the active block again (mapping corruption).
            u.activeBlock = -1;
        }
        if (backgroundGcEnabled()) {
            if (!for_gc) {
                // Backpressure: the reserve belongs to GC relocation.
                // A foreground write that would dig into it stalls
                // until the background engine frees a block.
                if (u.freeBlocks.size() <= cfg.gcReserveBlocks)
                    at = reclaimForeground(pu, at);
                // Kick on the post-take level (size - 1): the machine
                // gets a full block of runway before the writer would
                // reach the reserve and stall. The pacer starts as
                // soon as the unit leaves the high watermark — it
                // collects gently up there — where the fixed-rate
                // engine waits for the low watermark.
                std::uint32_t kick_at = cfg.gcAdaptivePacing
                                            ? cfg.gcHighWater
                                            : cfg.gcLowWater + 1;
                if (u.freeBlocks.size() <= kick_at)
                    kickGc(pu, at);
            }
        } else if (!inGc && u.freeBlocks.size() <= cfg.gcLowWater) {
            collect(pu, at);
        }
        // GC relocation may have opened an active block of its own
        // (and possibly filled it): reuse it rather than leaking a
        // partially-written block off every list.
        if (u.activeBlock >= 0 &&
            blockOf(pu, static_cast<std::uint32_t>(u.activeBlock))
                .full(geom.pagesPerBlock)) {
            HAMS_LINT_SUPPRESS("closed-block list is bounded by the "
                               "unit's physical block count")
            u.closedBlocks.push_back(
                static_cast<std::uint32_t>(u.activeBlock));
            u.activeBlock = -1;
        }
        if (u.activeBlock < 0)
            u.activeBlock = takeFreeBlock(u, pu);
    }
    auto block = static_cast<std::uint32_t>(u.activeBlock);
    Block& b = blockOf(pu, block);
    ensureBlockArrays(b);
    std::uint32_t page = b.writePtr++;
    b.pageLpns[page] = std::numeric_limits<std::uint64_t>::max();
    return makePpn(pu, block, page);
}

Tick
PageFtl::writePage(std::uint64_t lpn, std::uint32_t bytes, Tick at)
{
    if (lpn >= _logicalPages)
        fatal("LPN ", lpn, " beyond exported capacity (", _logicalPages,
              " pages)");
    ++_stats.hostWrites;
    if (gcActiveMachines > 0)
        ++_stats.gcForegroundOverlap;

    std::uint64_t old_ppn = l2p.get(lpn);
    if (old_ppn != unmapped)
        invalidate(old_ppn);

    std::uint64_t pu = nextPu;
    if (++nextPu == units.size())
        nextPu = 0;

    std::uint64_t ppn = allocate(pu, at, /*for_gc=*/false);
    std::uint64_t pu2;
    std::uint32_t block, page;
    splitPpn(ppn, pu2, block, page);
    Block& b = blockOf(pu2, block);
    b.pageLpns[page] = lpn;
    b.validBits[page / 64] |= 1ull << (page % 64);
    ++b.validCount;
    l2p.at(lpn) = ppn;

    return fil.submit({FlashOp::Type::Program, ppn, bytes}, at);
}

void
PageFtl::trim(std::uint64_t lpn)
{
    std::uint64_t ppn = l2p.get(lpn);
    if (ppn == unmapped)
        return;
    invalidate(ppn);
    l2p.at(lpn) = unmapped;
}

bool
PageFtl::isMapped(std::uint64_t lpn) const
{
    return l2p.get(lpn) != unmapped;
}

std::uint64_t
PageFtl::physicalOf(std::uint64_t lpn) const
{
    std::uint64_t ppn = l2p.get(lpn);
    if (ppn == unmapped)
        panic("physicalOf on unmapped LPN ", lpn);
    return ppn;
}

void
PageFtl::collect(std::uint64_t pu, Tick& at)
{
    Unit& u = units[pu];
    inGc = true;
    bool collected = false;

    while (u.freeBlocks.size() < cfg.gcHighWater &&
           !u.closedBlocks.empty()) {
        std::int32_t victim_i = selectVictim(pu);
        if (victim_i < 0)
            break; // only fully-valid victims remain: nothing to gain
        auto victim = static_cast<std::uint32_t>(victim_i);
        collected = true;

        Block& vb = blockOf(pu, victim);
        ensureBlockArrays(vb);

        // Relocate surviving pages into the active block of this unit.
        for (std::uint32_t page = 0; page < geom.pagesPerBlock; ++page) {
            if (!(vb.validBits[page / 64] & (1ull << (page % 64))))
                continue;
            std::uint64_t lpn = vb.pageLpns[page];
            std::uint64_t old_ppn = makePpn(pu, victim, page);
            at = fil.submit({FlashOp::Type::Read, old_ppn, geom.pageSize},
                            at);

            // for_gc is the plain foreground allocate here: the
            // GC-trigger branch is already guarded by inGc.
            std::uint64_t new_ppn = allocate(pu, at, /*for_gc=*/true);
            std::uint64_t pu2;
            std::uint32_t nblock, npage;
            splitPpn(new_ppn, pu2, nblock, npage);
            Block& nb = blockOf(pu2, nblock);
            nb.pageLpns[npage] = lpn;
            nb.validBits[npage / 64] |= 1ull << (npage % 64);
            ++nb.validCount;
            l2p.at(lpn) = new_ppn;
            ++_stats.gcRelocations;

            at = fil.submit({FlashOp::Type::Program, new_ppn,
                             geom.pageSize}, at);
        }

        // Erase the victim and return it to the free pool.
        vb.validCount = 0;
        vb.writePtr = 0;
        std::fill(vb.validBits.begin(), vb.validBits.end(), 0);
        ++vb.eraseCount;
        ++_stats.erases;
        at = fil.submit({FlashOp::Type::Erase,
                         makePpn(pu, victim, 0), 0}, at);
        pushFreeBlock(pu, victim);
    }
    // Count the run only when it actually collected a victim: an
    // invocation that found nothing to do is not a GC run.
    if (collected)
        ++_stats.gcRuns;
    inGc = false;
}

std::int32_t
PageFtl::selectVictim(std::uint64_t pu, std::uint32_t max_valid)
{
    Unit& u = units[pu];
    if (u.closedBlocks.empty())
        return -1;
    // Greedy: fewest valid pages.
    auto victim_it = u.closedBlocks.begin();
    std::uint32_t victim_valid = blockOf(pu, *victim_it).validCount;
    for (auto it = u.closedBlocks.begin(); it != u.closedBlocks.end();
         ++it) {
        std::uint32_t v = blockOf(pu, *it).validCount;
        if (v < victim_valid) {
            victim_it = it;
            victim_valid = v;
        }
    }
    // A fully valid victim frees nothing: relocating it would just
    // shuffle data forever (livelock). If even the best victim is
    // full, no closed block can yield space.
    if (victim_valid >= geom.pagesPerBlock)
        return -1;
    // The quality gate defers reclaimable-but-expensive victims while
    // the pool still has runway; the victim stays on the closed list.
    if (victim_valid > max_valid) {
        ++_stats.gcQualityDeferrals;
        return -1;
    }
    auto victim = static_cast<std::int32_t>(*victim_it);
    u.closedBlocks.erase(victim_it);
    return victim;
}

bool
PageFtl::pickVictim(std::uint64_t pu)
{
    Unit& u = units[pu];
    std::int32_t victim = selectVictim(
        pu, victimAllowance(static_cast<std::uint32_t>(u.freeBlocks.size())));
    if (victim < 0)
        return false;
    u.gc.victim = victim;
    u.gc.nextPage = 0;
    if (!u.gc.countedRun) {
        ++_stats.gcRuns;
        u.gc.countedRun = true;
    }
    return true;
}

bool
PageFtl::gcSlice(std::uint64_t pu, Tick from, std::uint32_t batch)
{
    Unit& u = units[pu];
    GcMachine& g = u.gc;
    if (g.victim < 0)
        return false;
    auto victim = static_cast<std::uint32_t>(g.victim);
    Block& vb = blockOf(pu, victim);
    ensureBlockArrays(vb);

    // A new slice supersedes the previous slice's tracked op: its
    // completion has been consumed (the step that got us here waited
    // for it).
    if (g.sliceOp.valid()) {
        fil.release(g.sliceOp);
        g.sliceOp = {};
    }

    // Relocate up to a batch of surviving pages, pipelined: every read
    // issues at the slice start (they serialize on the die), each
    // program issues when its read's data is available. All ops carry
    // background priority, so foreground traffic can suspend them.
    // The program with the latest latched completion is tracked: a
    // foreground suspension extends every in-flight op on the die by
    // the same window, so the latest-latched op stays the latest and
    // one handle answers when the whole slice is really done.
    Tick batch_done = from;
    FlashOpHandle batch_op;
    std::uint32_t moved = 0;
    while (g.nextPage < geom.pagesPerBlock && moved < batch) {
        std::uint32_t page = g.nextPage++;
        if (!(vb.validBits[page / 64] & (1ull << (page % 64))))
            continue;
        std::uint64_t lpn = vb.pageLpns[page];
        std::uint64_t old_ppn = makePpn(pu, victim, page);
        Tick rd = fil.submit({FlashOp::Type::Read, old_ppn, geom.pageSize,
                              /*background=*/true}, from);
        // The source page is dead the moment its copy is in flight: a
        // concurrent trim/overwrite of the LPN must target the new
        // location (the L2P entry flips below, within this same
        // atomic slice).
        vb.validBits[page / 64] &= ~(1ull << (page % 64));
        --vb.validCount;

        Tick prog_at = rd;
        std::uint64_t new_ppn = allocate(pu, prog_at, /*for_gc=*/true);
        std::uint64_t pu2;
        std::uint32_t nblock, npage;
        splitPpn(new_ppn, pu2, nblock, npage);
        Block& nb = blockOf(pu2, nblock);
        nb.pageLpns[npage] = lpn;
        nb.validBits[npage / 64] |= 1ull << (npage % 64);
        ++nb.validCount;
        l2p.at(lpn) = new_ppn;
        ++_stats.gcRelocations;

        FlashOpHandle ph =
            fil.submitTracked({FlashOp::Type::Program, new_ppn,
                               geom.pageSize, /*background=*/true},
                              prog_at);
        Tick prog_done = fil.completionOf(ph);
        if (prog_done >= batch_done) {
            if (batch_op.valid())
                fil.release(batch_op);
            batch_op = ph;
            batch_done = prog_done;
        } else {
            fil.release(ph);
        }
        ++moved;
    }

    if (g.nextPage >= geom.pagesPerBlock) {
        // Victim drained: erase it. The block re-enters the free pool
        // at the erase op's *true* completion: the credit is latched
        // as a hint (pendingFreeAt) but applied only once the tracked
        // handle confirms the erase — a later foreground op that
        // suspends it pushes the credit out by the stolen window
        // instead of leaving the pool optimistically early.
        vb.validCount = 0;
        vb.writePtr = 0;
        std::fill(vb.validBits.begin(), vb.validBits.end(), 0);
        ++vb.eraseCount;
        ++_stats.erases;
        FlashOpHandle eh =
            fil.submitTracked({FlashOp::Type::Erase,
                               makePpn(pu, victim, 0), 0,
                               /*background=*/true}, batch_done);
        Tick erased = fil.completionOf(eh);
        g.pendingFree = g.victim;
        g.pendingFreeAt = erased;
        g.pendingFreeOp = eh;
        g.victim = -1;
        g.readyAt = erased;
    } else {
        g.readyAt = batch_done;
    }
    g.sliceOp = batch_op;
    return true;
}

void
PageFtl::applyPendingFree(std::uint64_t pu)
{
    GcMachine& g = units[pu].gc;
    if (g.pendingFree < 0)
        return;
    if (g.pendingFreeOp.valid()) {
        fil.release(g.pendingFreeOp);
        g.pendingFreeOp = {};
    }
    pushFreeBlock(pu, static_cast<std::uint32_t>(g.pendingFree));
    g.pendingFree = -1;
}

Tick
PageFtl::trueReadyAt(std::uint64_t pu, Tick now) const
{
    const GcMachine& g = units[pu].gc;
    Tick ready = now;
    if (g.sliceOp.valid())
        ready = std::max(ready, fil.completionOf(g.sliceOp));
    if (g.pendingFreeOp.valid())
        ready = std::max(ready, fil.completionOf(g.pendingFreeOp));
    return ready;
}

std::uint32_t
PageFtl::paceLevelOf(std::uint32_t free_blocks) const
{
    if (free_blocks >= cfg.gcHighWater)
        return 0;
    std::uint32_t span = cfg.gcHighWater - cfg.gcReserveBlocks;
    return std::min(cfg.gcHighWater - free_blocks, span);
}

std::uint32_t
PageFtl::paceBatch(std::uint32_t free_blocks) const
{
    if (!cfg.gcAdaptivePacing)
        return cfg.gcBatchPages;
    // Linear ramp across the watermark band: one base batch just
    // under the high watermark, band-width batches at the reserve.
    std::uint32_t level = std::max(paceLevelOf(free_blocks), 1u);
    return cfg.gcBatchPages * level;
}

std::uint32_t
PageFtl::notePaceLevel(std::uint32_t free_blocks)
{
    if (cfg.gcAdaptivePacing) {
        _stats.paceLevel = paceLevelOf(free_blocks);
        _stats.paceLevelMax =
            std::max(_stats.paceLevelMax, _stats.paceLevel);
    }
    return paceBatch(free_blocks);
}

std::uint32_t
PageFtl::victimAllowance(std::uint32_t free_blocks) const
{
    if (!cfg.gcVictimQuality)
        return geom.pagesPerBlock; // gate open: only the livelock
                                   // reject in selectVictim applies
    // Linear in the pacer level: no tolerance for valid pages at the
    // high watermark, a full block's worth at the reserve. The crisis
    // path always sits at the deepest level, so the gate never blocks
    // a stalled writer.
    std::uint32_t span = cfg.gcHighWater - cfg.gcReserveBlocks;
    std::uint32_t level = paceLevelOf(free_blocks);
    return geom.pagesPerBlock * std::min(level, span) / span;
}

Tick
PageFtl::paceDelay(std::uint32_t free_blocks) const
{
    if (!cfg.gcAdaptivePacing)
        return 0;
    std::uint32_t span = cfg.gcHighWater - cfg.gcReserveBlocks;
    std::uint32_t level = paceLevelOf(free_blocks);
    return Tick(span - std::min(level, span)) * cfg.gcPaceQuantum;
}

void
PageFtl::deactivateGc(std::uint64_t pu)
{
    GcMachine& g = units[pu].gc;
    if (!g.active)
        return;
    // A dormant machine keeps no tracked ops: the slice's completion
    // was consumed by the step that decided to deactivate, and any
    // pending erase credit was applied before getting here.
    if (g.sliceOp.valid()) {
        fil.release(g.sliceOp);
        g.sliceOp = {};
    }
    g.active = false;
    --gcActiveMachines;
}

void
PageFtl::kickGc(std::uint64_t pu, Tick at)
{
    Unit& u = units[pu];
    GcMachine& g = u.gc;
    if (g.active)
        return;
    if (u.closedBlocks.empty() && g.pendingFree < 0)
        return; // nothing collectable yet
    g.active = true;
    g.countedRun = false;
    ++gcActiveMachines;
    g.stepEvent = eq->scheduleAt(std::max({eq->now(), at, g.readyAt}),
                                 [this, pu] { gcStep(pu); });
}

void
PageFtl::gcStep(std::uint64_t pu)
{
    Unit& u = units[pu];
    GcMachine& g = u.gc;
    g.stepEvent = 0;
    Tick now = eq->now();
    // Op-handle contract: the step was scheduled at the submit-time
    // latch, but a foreground op may have suspended the in-flight
    // work since. If the tracked completions moved past now, the
    // machine is not actually done — wait for the true tick (this is
    // what keeps the erase credit honest under suspension).
    Tick ready = trueReadyAt(pu, now);
    if (ready > now) {
        g.readyAt = ready;
        g.stepEvent = eq->scheduleAt(ready, [this, pu] { gcStep(pu); });
        return;
    }
    if (g.sliceOp.valid()) {
        fil.release(g.sliceOp);
        g.sliceOp = {};
    }
    applyPendingFree(pu);
    // Starting a victim needs relocation headroom (a free block);
    // without it the machine goes dormant and the foreground reclaim
    // path drives any further collection.
    if (g.victim < 0 &&
        (u.freeBlocks.size() >= cfg.gcHighWater || u.freeBlocks.empty() ||
         !pickVictim(pu))) {
        deactivateGc(pu);
        return;
    }
    ++_stats.gcBatches;
    // The pacer reads the free level at step time: deeper depletion
    // means a bigger relocation batch now and a shorter breather
    // before the next step (both constant with pacing off).
    auto free = static_cast<std::uint32_t>(u.freeBlocks.size());
    gcSlice(pu, std::max(now, g.readyAt), notePaceLevel(free));
    g.stepEvent = eq->scheduleAt(std::max(now, g.readyAt) +
                                     paceDelay(free),
                                 [this, pu] { gcStep(pu); });
}

Tick
PageFtl::reclaimForeground(std::uint64_t pu, Tick at)
{
    Unit& u = units[pu];
    GcMachine& g = u.gc;
    ++_stats.gcWriteStalls;
    Tick avail = at;
    while (u.freeBlocks.size() <= cfg.gcReserveBlocks) {
        if (g.pendingFree >= 0) {
            // A victim's erase is in flight: the write waits for its
            // *true* completion — if a foreground op suspended the
            // erase after its tick was latched, the handle carries
            // the extended window and the stall is charged honestly.
            avail = std::max(avail, pendingFreeTrueAt(pu));
            applyPendingFree(pu);
            continue;
        }
        if (!g.active) {
            g.active = true;
            g.countedRun = false;
            ++gcActiveMachines;
        }
        if (g.victim < 0 && (u.freeBlocks.empty() || !pickVictim(pu)))
            break; // no headroom or nothing collectable: the caller's
                   // takeFreeBlock reports the exhaustion state
        // The crisis path runs at the deepest pacer levels; record
        // them like gcStep does or paceLevelMax under-reports.
        gcSlice(pu, std::max(at, g.readyAt),
                notePaceLevel(
                    static_cast<std::uint32_t>(u.freeBlocks.size())));
    }
    _stats.gcStallTicks += avail - at;

    // The machine advanced under its scheduled step's feet; rebuild
    // the pending event from the new state.
    if (g.stepEvent) {
        eq->deschedule(g.stepEvent);
        g.stepEvent = 0;
    }
    if (g.active) {
        bool work = g.victim >= 0 || g.pendingFree >= 0 ||
                    (u.freeBlocks.size() < cfg.gcHighWater &&
                     !u.closedBlocks.empty());
        if (work)
            g.stepEvent = eq->scheduleAt(std::max(eq->now(), g.readyAt),
                                         [this, pu] { gcStep(pu); });
        else
            deactivateGc(pu);
    }
    return avail;
}

void
PageFtl::onPowerFail()
{
    for (std::uint64_t pu = 0; pu < units.size(); ++pu) {
        Unit& u = units[pu];
        GcMachine& g = u.gc;
        // An issued erase counts as done; a half-relocated victim goes
        // back to the closed list (its surviving pages are still
        // mapped there). Tracked-op handles die with the in-flight
        // work (released here, while the FIL still honours them).
        if (g.sliceOp.valid()) {
            fil.release(g.sliceOp);
            g.sliceOp = {};
        }
        applyPendingFree(pu);
        if (g.victim >= 0) {
            u.closedBlocks.push_back(static_cast<std::uint32_t>(g.victim));
            g.victim = -1;
        }
        g.nextPage = 0;
        g.active = false;
        g.countedRun = false;
        g.stepEvent = 0; // the owner reset the queue; ids are dead
        // The latched schedule hints die with the in-flight work: a
        // stale future readyAt would otherwise defer the first
        // post-recovery kick of this machine for no physical reason.
        g.readyAt = 0;
        g.pendingFreeAt = 0;
    }
    gcActiveMachines = 0;
    inGc = false;
}

void
PageFtl::onFlashReset()
{
    for (Unit& u : units) {
        u.gc.sliceOp = {};
        u.gc.pendingFreeOp = {};
    }
}

bool
PageFtl::gcVictimLive() const
{
    for (const Unit& u : units)
        if (u.gc.victim >= 0)
            return true;
    return false;
}

bool
PageFtl::gcEraseInFlight() const
{
    for (const Unit& u : units)
        if (u.gc.pendingFree >= 0)
            return true;
    return false;
}

std::uint32_t
PageFtl::minFreeBlocks() const
{
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    for (const Unit& u : units)
        lo = std::min(lo, static_cast<std::uint32_t>(u.freeBlocks.size()));
    return units.empty() ? 0 : lo;
}

PageFtl::UnitView
PageFtl::unitView(std::uint64_t pu) const
{
    const Unit& u = units[pu];
    UnitView v;
    v.freeBlocks.reserve(u.freeBlocks.size());
    for (std::uint64_t key : u.freeBlocks)
        v.freeBlocks.push_back(keyBlock(key));
    v.closedBlocks = u.closedBlocks;
    v.activeBlock = u.activeBlock;
    v.victim = u.gc.victim;
    v.pendingFree = u.gc.pendingFree;
    return v;
}

std::uint32_t
PageFtl::blockValidCount(std::uint64_t pu, std::uint32_t block) const
{
    return blocks[blockGlobalIndex(pu, block)].validCount;
}

std::uint32_t
PageFtl::blockEraseCount(std::uint64_t pu, std::uint32_t block) const
{
    return blocks[blockGlobalIndex(pu, block)].eraseCount;
}

Tick
PageFtl::pendingFreeTrueAt(std::uint64_t pu) const
{
    const GcMachine& g = units[pu].gc;
    if (g.pendingFree < 0)
        panic("pendingFreeTrueAt: unit ", pu, " has no pending free");
    return g.pendingFreeOp.valid() ? fil.completionOf(g.pendingFreeOp)
                                   : g.pendingFreeAt;
}

std::uint32_t
PageFtl::wearSpread() const
{
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi = 0;
    for (const auto& b : blocks) {
        lo = std::min(lo, b.eraseCount);
        hi = std::max(hi, b.eraseCount);
    }
    return blocks.empty() ? 0 : hi - lo;
}

} // namespace hams
