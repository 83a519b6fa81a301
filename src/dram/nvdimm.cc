#include "dram/nvdimm.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

namespace {

/** Frames the background restore cursor claims per batch event. */
constexpr std::uint64_t restoreBatchFrames = 4;

} // namespace

Nvdimm::Nvdimm(const NvdimmConfig& cfg)
    : cfg(cfg), ctrl(Ddr4Timing::speedGrade(paperDdr4Mts), cfg.capacity)
{
    if (cfg.functionalData)
        store = std::make_unique<SparseMemory>(cfg.capacity);

    framesTotal = (cfg.capacity + restoreFrameBytes - 1) / restoreFrameBytes;
    tpf = seconds(static_cast<double>(restoreFrameBytes) /
                  cfg.backupBandwidth);
    restoredBits.assign((framesTotal + 63) / 64, 0);
    frameAvail.assign(framesTotal, maxTick);
}

const char*
Nvdimm::stateName() const
{
    switch (_state) {
      case State::Operational:
        return "Operational";
      case State::BackingUp:
        return "BackingUp";
      case State::Protected:
        return "Protected";
      case State::Restoring:
        return "Restoring";
    }
    return "unknown";
}

Tick
Nvdimm::access(Addr addr, std::uint32_t size, MemOp op, Tick at)
{
    if (_state == State::Restoring) {
        // Mid-restore service is legal only on restored frames: the
        // caller's degraded-mode admission must have stalled anything
        // else, because the DRAM still holds pre-backup garbage there.
        if (!spanRestored(addr, size ? size : 1))
            fatal("NVDIMM access to unrestored span [", addr, ", ",
                  addr + size, ") during restore (restored ", framesDone,
                  "/", framesTotal, " frames, cursor at ", claimCursor,
                  ")");
    } else if (_state != State::Operational) {
        fatal("NVDIMM accessed while not operational (state=",
              stateName(), ")");
    }
    return ctrl.access(addr, size, op, at);
}

Tick
Nvdimm::powerFail()
{
    if (_state == State::Restoring) {
        // Second failure mid-restore. Only the restored prefix can
        // have absorbed new writes; the unrestored remainder is still
        // intact in the on-DIMM flash, so the re-backup streams just
        // the restored frames.
        ++restoreGen; // stale commit events must not fire post-cut
        _state = State::BackingUp;
        Tick backup_time = Tick(framesDone) * tpf;
        notifyCb = nullptr;
        doneCb = nullptr;
        restoreEq = nullptr;
        preserved = true;
        _state = State::Protected;
        return backup_time;
    }
    if (_state != State::Operational)
        fatal("powerFail on NVDIMM in non-operational state (state=",
              stateName(), ")");
    _state = State::BackingUp;
    // The multiplexers isolate the DRAM; the controller streams the full
    // module to flash at the backup bandwidth.
    Tick backup_time =
        seconds(static_cast<double>(cfg.capacity) / cfg.backupBandwidth);
    // Contents are preserved once the stream finishes; the supercap is
    // sized for a full backup, so it always completes.
    preserved = true;
    _state = State::Protected;
    return backup_time;
}

void
Nvdimm::beginRestore(EventQueue& eq, Tick at, RestoreNotify notify,
                     RestoreDone done)
{
    if (_state != State::Protected)
        fatal("beginRestore on NVDIMM that is not protected (state=",
              stateName(), ", restored ", framesDone, "/", framesTotal,
              " frames",
              _state == State::Operational
                  ? "; double restore — the module already completed a "
                    "restore"
                  : "",
              ")");
    ++restoreGen;
    _state = State::Restoring;
    restoreEq = &eq;
    notifyCb = std::move(notify);
    doneCb = std::move(done);
    std::fill(restoredBits.begin(), restoredBits.end(), 0);
    std::fill(frameAvail.begin(), frameAvail.end(), maxTick);
    framesDone = 0;
    claimCursor = 0;
    busyUntil = at;
    ctrl.device().reset();
    scheduleCursorBatch(at);
}

void
Nvdimm::scheduleCursorBatch(Tick at)
{
    // Skip frames a priority restore already claimed, then claim the
    // next contiguous run. One batch is in flight at a time; its commit
    // chains the next claim, so the stream never idles mid-restore.
    while (claimCursor < framesTotal && frameAvail[claimCursor] != maxTick)
        ++claimCursor;
    if (claimCursor >= framesTotal)
        return; // everything claimed; outstanding commits finish the job

    std::uint64_t first = claimCursor;
    std::uint64_t n = 0;
    while (n < restoreBatchFrames && claimCursor < framesTotal &&
           frameAvail[claimCursor] == maxTick) {
        ++n;
        ++claimCursor;
    }
    Tick start = std::max(at, busyUntil);
    Tick end = start + Tick(n) * tpf;
    busyUntil = end;
    for (std::uint64_t f = first; f < first + n; ++f)
        frameAvail[f] = end;
    restoreEq->scheduleAt(end, [this, gen = restoreGen, first, n]() {
        commitFrames(gen, first, n, /*chain_cursor=*/true);
    });
}

void
Nvdimm::commitFrames(std::uint32_t gen, std::uint64_t first,
                     std::uint64_t count, bool chain_cursor)
{
    if (gen != restoreGen || _state != State::Restoring)
        return; // a power failure invalidated this restore
    Tick when = restoreEq->now();
    for (std::uint64_t f = first; f < first + count; ++f)
        setRestored(f);
    framesDone += count;
    if (notifyCb)
        notifyCb(first, count, when);
    if (framesDone == framesTotal) {
        _state = State::Operational;
        RestoreDone done = std::move(doneCb);
        notifyCb = nullptr;
        doneCb = nullptr;
        if (done)
            done(when);
        return;
    }
    if (chain_cursor)
        scheduleCursorBatch(when);
}

Tick
Nvdimm::requestRestoreSpan(Addr addr, std::uint64_t size, Tick at)
{
    if (_state == State::Operational)
        return at;
    if (_state != State::Restoring)
        fatal("priority restore on NVDIMM that is not restoring (state=",
              stateName(), ")");
    if (addr + (size ? size : 1) > cfg.capacity)
        fatal("priority restore span [", addr, ", ", addr + size,
              ") beyond NVDIMM capacity ", cfg.capacity);

    std::uint64_t f0 = addr / restoreFrameBytes;
    std::uint64_t f1 = (addr + (size ? size : 1) - 1) / restoreFrameBytes;
    Tick ready = at;
    for (std::uint64_t f = f0; f <= f1; ++f) {
        if (frameAvail[f] == maxTick) {
            Tick start = std::max(at, busyUntil);
            Tick end = start + tpf;
            busyUntil = end;
            frameAvail[f] = end;
            ++_priorityRestores;
            restoreEq->scheduleAt(end, [this, gen = restoreGen, f]() {
                commitFrames(gen, f, 1, /*chain_cursor=*/false);
            });
            ready = std::max(ready, end);
        } else {
            ready = std::max(ready, frameAvail[f]);
        }
    }
    return ready;
}

bool
Nvdimm::spanRestored(Addr addr, std::uint64_t size) const
{
    if (_state != State::Restoring)
        return _state == State::Operational;
    std::uint64_t f0 = addr / restoreFrameBytes;
    std::uint64_t f1 = (addr + (size ? size : 1) - 1) / restoreFrameBytes;
    for (std::uint64_t f = f0; f <= f1; ++f)
        if (!isRestored(f))
            return false;
    return true;
}

} // namespace hams
