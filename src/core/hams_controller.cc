#include "core/hams_controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

namespace {

/** Cache-logic latency: decompose + comparator + mux. */
constexpr Tick logicLatency = nanoseconds(15);
/**
 * Recovery cost charged per replayed journal entry (journal slot
 * readout + command re-composition + tag-array fixup), on top of the
 * replayed I/O itself. Makes RTO scale with dirty-state size.
 */
constexpr Tick replayEntryCost = microseconds(2);

} // namespace

HamsController::HamsController(EventQueue& eq, Nvdimm& nvdimm,
                               HamsNvmeEngine& engine, PinnedRegion& pinned,
                               std::uint64_t mos_capacity,
                               const HamsControllerConfig& cfg)
    : eq(eq), nvdimm(nvdimm), engine(engine), pinned(pinned), cfg(cfg),
      _mosCapacity(mos_capacity),
      tags(pinned.cacheBytes() - pinned.cacheBytes() % cfg.pageBytes,
           cfg.pageBytes),
      staging(cfg.pageBytes)
{
    if (cfg.pageBytes % nvmeBlockSize != 0)
        fatal("MoS page size must be a multiple of the 4 KiB NVMe block");
    if (mos_capacity % cfg.pageBytes != 0)
        fatal("MoS capacity must be a multiple of the MoS page size");
    if (pinned.config().prpFrameBytes < cfg.pageBytes)
        fatal("PRP pool frames (", pinned.config().prpFrameBytes,
              ") smaller than the MoS page (", cfg.pageBytes, ")");

    waitHead.assign(tags.sets(), nil);
    waitTail.assign(tags.sets(), nil);
    waitDepth.assign(tags.sets(), 0);
}

HamsController::Op*
HamsController::makeOp(const MemAccess& acc, const std::uint8_t* wdata,
                       std::uint8_t* rdata, std::uint64_t idx, AccessCb cb)
{
    // Pooled objects keep their previous contents: reset every field.
    Op* op = opPool.acquire();
    op->acc = acc;
    op->wdata = wdata;
    op->rdata = rdata;
    op->idx = idx;
    op->newTag = 0;
    op->reqAt = 0;
    op->done = 0;
    op->bd = LatencyBreakdown{};
    op->cb = std::move(cb);
    return op;
}

std::uint64_t
HamsController::frameOf(const MemAccess& acc) const
{
    if (acc.addr + acc.size > _mosCapacity)
        fatal("MoS access [", acc.addr, ", ", acc.addr + acc.size,
              ") beyond capacity ", _mosCapacity);
    // The first and last byte share a page exactly when they differ
    // only below the page bit; MosTagArray made pageBytes a power of
    // two, so that is one xor and a compare, not two divisions.
    if ((acc.addr ^ (acc.addr + acc.size - 1)) >= cfg.pageBytes)
        fatal("MoS access crosses a page boundary; split it upstream");
    return tags.indexOf(acc.addr);
}

void
HamsController::access(const MemAccess& acc, const std::uint8_t* wdata,
                       std::uint8_t* rdata, Tick at, AccessCb cb)
{
    std::uint64_t idx = frameOf(acc);
    ++_stats.accesses;
    MosTagEntry& e = tags.entry(idx);

    if (e.busy) {
        // The frame is under DMA: park the request in the wait queue
        // (paper Fig. 14). Requests that would have re-evicted the same
        // page are exactly the redundant evictions HAMS suppresses.
        ++_stats.waitQueued;
        if (e.valid && e.dirty)
            ++_stats.redundantEvictionsAvoided;
        parkWaiter(acc, wdata, rdata, idx, std::move(cb));
        return;
    }

    if (_recovering) {
        // Degraded-service admission: the frame must be restored before
        // anything touches it (serving it earlier would return the
        // pre-backup garbage still in the DRAM). Stalled requests ride
        // the same pooled per-frame wait lists as busy-frame waiters;
        // the priority restore wakes them through onFramesRestored().
        ++_stats.degradedAccesses;
        if (!nvdimm.spanRestored(frameAddr(idx), cfg.pageBytes)) {
            ++_stats.restoreStalls;
            nvdimm.requestRestoreSpan(frameAddr(idx), cfg.pageBytes, at);
            parkWaiter(acc, wdata, rdata, idx, std::move(cb));
            return;
        }
    }

    Op* op = makeOp(acc, wdata, rdata, idx, std::move(cb));
    if (e.valid && e.tag == tags.tagOf(acc.addr))
        complete(op, serveHit(acc, idx, at, op->bd));
    else
        handleMiss(op, at);
}

bool
HamsController::tryAccess(const MemAccess& acc, Tick at,
                          InlineCompletion& out)
{
    // Hits never touch the persist gate, the NVMe engine or the SSD, so
    // both modes qualify, whatever is pending: an idle frame has no
    // waiters and no fill in flight, so no pending event (a gated miss,
    // a GC step, another core's completion) can change this hit's tick
    // or side effects. Mid-recovery accesses need the degraded-mode
    // admission checks in access().
    if (_recovering)
        return false;
    std::uint64_t idx = frameOf(acc);
    const MosTagEntry& e = tags.entry(idx);
    if (e.busy || !e.valid || e.tag != tags.tagOf(acc.addr))
        return false;

    // A hit on an idle frame: the event path's serveHit(), minus the
    // Op context and the completion event.
    ++_stats.accesses;
    out.bd = LatencyBreakdown{};
    out.done = serveHit(acc, idx, at, out.bd);
    out.domain = &eq;
    return true;
}

Tick
HamsController::serveLine(const MemAccess& acc, std::uint64_t idx, Tick at,
                          LatencyBreakdown& bd)
{
    Tick done = nvdimm.access(lineAddr(acc, idx), acc.size, acc.op, at);
    bd.nvdimm += done - at;
    _stats.memoryDelay += bd;
    if (acc.op == MemOp::Write)
        tags.entry(idx).dirty = true;
    return done;
}

Tick
HamsController::serveHit(const MemAccess& acc, std::uint64_t idx, Tick at,
                         LatencyBreakdown& bd)
{
    ++_stats.hits;
    // The tag is read out with the line itself, so the hit path is the
    // logic latency plus the single NVDIMM access.
    return serveLine(acc, idx, at + logicLatency, bd);
}

void
HamsController::complete(Op* op, Tick done)
{
    op->done = done;
    if (op->acc.op == MemOp::Write && op->wdata && nvdimm.data())
        nvdimm.data()->write(lineAddr(op->acc, op->idx), op->wdata,
                             op->acc.size);
    eq.scheduleAt(done, [this, op]() {
        if (op->rdata && nvdimm.data())
            nvdimm.data()->read(lineAddr(op->acc, op->idx), op->rdata,
                                op->acc.size);
        AccessCb cb = std::move(op->cb);
        Tick when = op->done;
        LatencyBreakdown bd = op->bd;
        // Release before the callback: it may re-enter access() and
        // reuse this very context.
        opPool.release(op);
        if (cb)
            cb(when, bd);
    });
}

void
HamsController::gateSubmit(Tick at, GateThunk thunk)
{
    if (cfg.mode != HamsMode::Persist) {
        thunk(at);
        return;
    }
    if (gateBusy) {
        ++_stats.persistGateWaits;
        HAMS_LINT_SUPPRESS("gate-queue growth to the high-water mark of "
                           "concurrently gated persists; steady state "
                           "pops as it pushes")
        gateQueue.push_back(std::move(thunk));
        _stats.gateQueuePeakDepth =
            std::max<std::uint64_t>(_stats.gateQueuePeakDepth,
                                    gateQueue.size());
        return;
    }
    gateBusy = true;
    thunk(at);
}

void
HamsController::gateRelease(Tick at)
{
    if (cfg.mode != HamsMode::Persist)
        return;
    if (gateQueue.empty()) {
        gateBusy = false;
        return;
    }
    GateThunk next = std::move(gateQueue.front());
    gateQueue.pop_front();
    next(at);
}

void
HamsController::handleMiss(Op* op, Tick at)
{
    if (replayHolding()) {
        // Journal replay owns the SQ (its re-pushes must land on the
        // compacted slots in order); hold the miss — without setting
        // the busy bit — and re-decide once the replay drains: the
        // replay may well have filled this very frame.
        ++_stats.recoveryGateWaits;
        HAMS_LINT_SUPPRESS("recovery-window parking only: misses queue "
                           "here solely while journal replay owns the SQ")
        recoveryGate.push_back([this, op](Tick t) { retryMiss(op, t); });
        return;
    }
    ++_stats.misses;
    tags.entry(op->idx).busy = true;
    op->newTag = tags.tagOf(op->acc.addr);
    startMissIo(op, at + logicLatency);
}

void
HamsController::retryMiss(Op* op, Tick at)
{
    MosTagEntry& e = tags.entry(op->idx);
    if (e.busy) {
        // A replayed fill (or another retried miss) put the frame under
        // DMA: fall back to the ordinary wait list.
        ++_stats.waitQueued;
        if (e.valid && e.dirty)
            ++_stats.redundantEvictionsAvoided;
        parkWaiter(op->acc, op->wdata, op->rdata, op->idx,
                   std::move(op->cb));
        opPool.release(op);
        return;
    }
    if (e.valid && e.tag == tags.tagOf(op->acc.addr)) {
        complete(op, serveHit(op->acc, op->idx, at, op->bd));
        return;
    }
    handleMiss(op, at);
}

void
HamsController::startMissIo(Op* op, Tick at)
{
    MosTagEntry& e = tags.entry(op->idx);
    bool need_evict = e.valid && e.dirty;
    bool fua = cfg.mode == HamsMode::Persist;
    Addr frame = frameAddr(op->idx);
    op->reqAt = at;

    if (e.valid && !e.dirty)
        ++_stats.cleanVictims;

    // Clone the dirty victim into the PRP pool up front so the clone
    // cost is on this miss's critical path and the later DMA pull can
    // never observe the frame mid-update (paper SSV-B).
    Tick evict_ready = at;
    Addr evict_prp = frame;
    if (need_evict && cfg.hazard == HazardPolicy::PrpClone) {
        Addr clone = pinned.allocPrpFrame();
        if (_recovering && !nvdimm.spanRestored(clone, cfg.pageBytes)) {
            // The clone target itself is still streaming back. Queue
            // its priority restore and retry once it lands — the frame
            // goes back to the pool meanwhile so an invariant holds:
            // every allocated PRP frame is referenced by a journalled
            // command (that is what reclaims them across a cut).
            ++_stats.restoreStalls;
            Tick ready =
                nvdimm.requestRestoreSpan(clone, cfg.pageBytes, at);
            pinned.freePrpFrame(clone);
            eq.scheduleAt(ready,
                          [this, op]() { startMissIo(op, eq.now()); });
            return;
        }
        Tick r = nvdimm.access(frame, cfg.pageBytes, MemOp::Read, at);
        Tick w = nvdimm.access(clone, cfg.pageBytes, MemOp::Write, r);
        if (nvdimm.data() && cfg.functionalData) {
            std::uint8_t* buf = staging.acquire();
            nvdimm.data()->read(frame, buf, cfg.pageBytes);
            nvdimm.data()->write(clone, buf, cfg.pageBytes);
            staging.release(buf);
        }
        op->bd.nvdimm += w - at;
        evict_ready = w;
        evict_prp = clone;
        ++_stats.prpClones;
    }

    if (!need_evict) {
        gateSubmit(at, [this, op](Tick t) { submitFill(op, t); });
        return;
    }

    // --- Dirty victim: evict it first. ---
    ++_stats.dirtyEvictions;
    Addr victim_page = tags.mosPageAddr(e.tag, op->idx);
    std::uint64_t victim_slba = slbaOf(victim_page);

    if (fua || cfg.hazard == HazardPolicy::SerializeEvictFill) {
        // Evict, then fill: the fill only starts once the eviction
        // pulled the frame, so it is safe without a clone and costs the
        // full eviction latency on the critical path. Persist mode
        // always serialises, whatever the hazard policy.
        gateSubmit(evict_ready,
                   [this, op, evict_prp, victim_slba, fua](Tick t) {
            NvmeCommand ev = makeWriteCommand(
                0, victim_slba, blocksPerPage(), evict_prp, fua);
            engine.submit(ev, t,
                          [this, op](const NvmeCommand&,
                                     const NvmeCmdTrace&, Tick when) {
                              gateRelease(when);
                              gateSubmit(when, [this, op](Tick t2) {
                                  submitFill(op, t2);
                              });
                          });
        });
        return;
    }

    // Extend mode: eviction and fill go out together; the device may
    // complete them out of order. With a clone that is safe;
    // unprotected it reproduces the paper's Fig. 13 corruption.
    if (cfg.hazard == HazardPolicy::PrpClone) {
        NvmeCommand ev = makeWriteCommand(0, victim_slba, blocksPerPage(),
                                          evict_prp, fua);
        engine.submit(ev, evict_ready, nullptr);
        submitFill(op, evict_ready);
    } else {
        // Unprotected: no clone and no ordering guarantee. A
        // latency-minded controller issues the demand fill first and
        // evicts lazily — so the eviction's DMA pulls the frame *after*
        // the fill (and subsequent MMU writes) replaced its contents:
        // the paper's Fig. 13 corruption.
        submitFill(op, evict_ready);
        NvmeCommand ev = makeWriteCommand(0, victim_slba, blocksPerPage(),
                                          evict_prp, fua);
        engine.submit(ev, evict_ready, nullptr);
    }
}

void
HamsController::submitFill(Op* op, Tick t)
{
    Addr mos_page = op->acc.addr - op->acc.addr % cfg.pageBytes;
    NvmeCommand fill = makeReadCommand(0, slbaOf(mos_page), blocksPerPage(),
                                       frameAddr(op->idx));
    engine.submit(fill, t,
                  [this, op](const NvmeCommand&, const NvmeCmdTrace& trace,
                             Tick when) { onFillDone(op, trace, when); });
}

void
HamsController::onFillDone(Op* op, const NvmeCmdTrace& trace, Tick when)
{
    // One batched tag/stat update per fill.
    MosTagEntry& entry = tags.entry(op->idx);
    entry.tag = op->newTag;
    entry.valid = true;
    entry.dirty = false;
    entry.busy = false;
    ++_stats.fills;

    op->bd.ssd += trace.media;
    op->bd.dma += trace.dma + trace.protocol;
    // Whatever the fill trace does not explain — chiefly waiting for a
    // serialised eviction in persist mode — is time the device held the
    // request.
    Tick counted = op->bd.total();
    if (when > op->reqAt && when - op->reqAt > counted)
        op->bd.ssd += (when - op->reqAt) - counted;
    gateRelease(when);

    std::uint64_t idx = op->idx;
    complete(op, serveLine(op->acc, idx, when, op->bd));
    drainWaiters(idx, when);
}

void
HamsController::parkWaiter(const MemAccess& acc, const std::uint8_t* wdata,
                           std::uint8_t* rdata, std::uint64_t idx,
                           AccessCb cb)
{
    std::uint32_t node;
    if (waiterFreeHead != nil) {
        node = waiterFreeHead;
        waiterFreeHead = waiterPool[node].next;
    } else {
        node = static_cast<std::uint32_t>(waiterPool.size());
        HAMS_LINT_SUPPRESS("waiter-pool growth to the high-water mark of "
                           "concurrent same-frame waiters; steady state "
                           "recycles off the free list")
        waiterPool.emplace_back();
    }
    Waiter& w = waiterPool[node];
    w.acc = acc;
    w.wdata = wdata;
    w.rdata = rdata;
    w.cb = std::move(cb);
    w.next = nil;

    if (waitHead[idx] == nil)
        waitHead[idx] = node;
    else
        waiterPool[waitTail[idx]].next = node;
    waitTail[idx] = node;
    ++waitDepth[idx];
    _stats.waiterPeakDepth =
        std::max<std::uint64_t>(_stats.waiterPeakDepth, waitDepth[idx]);
}

void
HamsController::drainWaiters(std::uint64_t idx, Tick at)
{
    // Detach the whole list first: re-injected requests may park again
    // on the same frame (a fresh miss sets the busy bit anew).
    std::uint32_t node = waitHead[idx];
    if (node == nil)
        return;
    waitHead[idx] = nil;
    waitTail[idx] = nil;
    waitDepth[idx] = 0;

    while (node != nil) {
        Waiter& w = waiterPool[node];
        MemAccess acc = w.acc;
        const std::uint8_t* wdata = w.wdata;
        std::uint8_t* rdata = w.rdata;
        AccessCb cb = std::move(w.cb);
        std::uint32_t next = w.next;
        // Recycle before re-injecting: access() may grow the arena and
        // invalidate the reference (never the freed slot itself).
        w.next = waiterFreeHead;
        waiterFreeHead = node;
        node = next;
        // Re-inject; most will now hit (the fill just landed).
        access(acc, wdata, rdata, at, std::move(cb));
    }
}

void
HamsController::onPowerFail()
{
    // Wait queue and persist gate are volatile controller state. The
    // tag array itself lives in NVDIMM lines and therefore persists
    // (with stale busy bits recovery must clear).
    std::fill(waitHead.begin(), waitHead.end(), nil);
    std::fill(waitTail.begin(), waitTail.end(), nil);
    std::fill(waitDepth.begin(), waitDepth.end(), 0);
    waiterPool.clear();
    waiterFreeHead = nil;
    gateQueue.clear();
    gateBusy = false;
    // A failure during recovery abandons the recovery in flight: its
    // scheduled events died with the queue reset, and the journal —
    // compacted, with the not-yet-replayed suffix still tagged — is
    // what the next beginRecovery() scans.
    recoveryGate.clear();
    rec.entries.clear();
    rec.issued = 0;
    rec.completed = 0;
    rec.total = 0;
    rec.scanned = false;
    rec.done = nullptr;
    _recovering = false;
    restoreDone = false;
    // The event queue and the NVMe engine have already dropped every
    // reference to in-flight Op contexts, so the pool can take them
    // all back (callers reset fields on acquire).
    opPool.reclaimAll();
}

void
HamsController::beginRecovery(Tick at, std::function<void(Tick)> done)
{
    if (_recovering)
        fatal("beginRecovery while a recovery is already in flight");
    _recovering = true;
    restoreDone = false;
    rec.entries.clear();
    rec.issued = 0;
    rec.completed = 0;
    rec.total = 0;
    rec.scanned = false;
    rec.done = std::move(done);

    // Stale busy bits from the cut would wedge every access to their
    // frames; replay re-busies exactly the frames with a fill still
    // pending (startReplay), so clearing here is safe.
    tags.clearBusyBits();

    // The journal scan reads the SQ ring: jump the NVMe metadata span
    // to the head of the restore stream, then scan when it lands.
    Tick ready = nvdimm.requestRestoreSpan(pinned.metadataBase(),
                                           pinned.metadataBytes(), at);
    eq.scheduleAt(std::max(ready, at),
                  [this]() { startReplay(eq.now()); });
}

void
HamsController::startReplay(Tick at)
{
    rec.entries = engine.scanJournal();
    rec.total = rec.entries.size();
    rec.scanned = true;
    engine.prepareReplay(rec.entries);
    // Re-busy the frames whose fills are about to be replayed: a
    // degraded access must park on them instead of hitting the evicted
    // victim's stale tag mid-replay.
    for (const NvmeCommand& cmd : rec.entries)
        if (cmd.op() == NvmeOpcode::Read && cmd.prp1 < pinned.cacheBytes())
            tags.entry(cmd.prp1 / cfg.pageBytes).busy = true;
    if (rec.total == 0) {
        finishReplay(at);
        return;
    }
    scheduleNextReplayEntry(at);
}

void
HamsController::scheduleNextReplayEntry(Tick at)
{
    // Per-entry replay cost plus however long the entry's DMA target
    // (cache frame for a fill, PRP clone for an eviction) still needs
    // on the restore stream.
    const NvmeCommand& cmd = rec.entries[rec.issued];
    Tick t = at + replayEntryCost;
    Tick ready = nvdimm.requestRestoreSpan(cmd.prp1, cfg.pageBytes, t);
    eq.scheduleAt(std::max(t, ready),
                  [this]() { issueReplayEntry(eq.now()); });
}

void
HamsController::issueReplayEntry(Tick at)
{
    const NvmeCommand& cmd = rec.entries[rec.issued++];
    engine.submitReplay(cmd, at,
                        [this](const NvmeCommand& c, const NvmeCmdTrace&,
                               Tick when) { onReplayEntryDone(c, when); });
}

void
HamsController::onReplayEntryDone(const NvmeCommand& cmd, Tick when)
{
    ++_stats.replayedCommands;
    ++rec.completed;
    if (cmd.op() == NvmeOpcode::Read && cmd.prp1 < pinned.cacheBytes()) {
        // A replayed fill: rebuild the tag entry it targeted and wake
        // the degraded accesses parked on it.
        std::uint64_t idx = cmd.prp1 / cfg.pageBytes;
        Addr mos_page = Addr(cmd.slba) * nvmeBlockSize;
        MosTagEntry& e = tags.entry(idx);
        e.tag = tags.tagOf(mos_page);
        e.valid = true;
        e.dirty = false;
        e.busy = false;
        drainWaiters(idx, when);
    }
    if (rec.completed == rec.total)
        finishReplay(when);
    else
        scheduleNextReplayEntry(when);
}

void
HamsController::finishReplay(Tick at)
{
    // The SQ is the controller's again: release the held misses.
    while (!recoveryGate.empty()) {
        GateThunk thunk = std::move(recoveryGate.front());
        recoveryGate.pop_front();
        thunk(at);
    }
    maybeFinishRecovery(at);
}

void
HamsController::onFramesRestored(std::uint64_t first_frame,
                                 std::uint64_t frame_count, Tick at)
{
    // Map the restored NVDIMM span onto cache frames and wake stalled
    // accesses. Busy frames stay parked (their fill completion drains
    // them); partially-covered frames just re-park via access().
    std::uint64_t rfb = Nvdimm::restoreFrameBytes;
    std::uint64_t i0 = first_frame * rfb / cfg.pageBytes;
    std::uint64_t i1 = std::min<std::uint64_t>(
        tags.sets(),
        ((first_frame + frame_count) * rfb + cfg.pageBytes - 1) /
            cfg.pageBytes);
    for (std::uint64_t idx = i0; idx < i1; ++idx)
        if (waitHead[idx] != nil && !tags.entry(idx).busy)
            drainWaiters(idx, at);
}

void
HamsController::onRestoreComplete(Tick at)
{
    restoreDone = true;
    maybeFinishRecovery(at);
}

void
HamsController::maybeFinishRecovery(Tick at)
{
    if (!_recovering || !restoreDone || !rec.scanned ||
        rec.completed != rec.total)
        return;
    _recovering = false;
    std::function<void(Tick)> done = std::move(rec.done);
    rec.done = nullptr;
    if (done)
        done(at);
}

} // namespace hams
