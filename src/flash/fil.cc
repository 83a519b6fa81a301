#include "flash/fil.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

Fil::Fil(const FlashGeometry& geom, const NandTiming& timing)
    : _timing(timing), pool(geom)
{
    channelFree.assign(geom.channels, 0);
    channelBgFree.assign(geom.channels, 0);
}

Tick
Fil::claimChannel(std::uint32_t ch, Tick earliest, Tick duration,
                  bool background)
{
    Tick& fg = channelFree[ch];
    Tick& bg = channelBgFree[ch];
    if (background) {
        Tick start = std::max({earliest, fg, bg});
        bg = std::max(bg, start + duration);
        return start;
    }
    Tick start = std::max(earliest, fg);
    // Foreground traffic owns the bus: a background transfer still
    // pending at our start slips behind us by our occupancy, and any
    // tracked background op still in flight on this channel finishes
    // later by the same window.
    if (bg > start) {
        bg += duration;
        pool.bumpChannelOps(ch, start, duration);
    }
    fg = std::max(fg, start + duration);
    return start;
}

FlashOpHandle
Fil::submitTracked(const FlashOp& op, Tick at)
{
    if (!op.background)
        panic("submitTracked is for background ops: a foreground op is "
              "never suspended, so its latched submit() tick is final");
    FlashUnit u = pool.unitOf(op.ppn);
    // Only a read's completion is a channel transfer (register drain);
    // program/erase completions are cell work, whose extensions come
    // from the die-suspension push alone.
    return pool.trackOp(u, dispatch(op, u, at),
                        /*transfer_tailed=*/op.type ==
                            FlashOp::Type::Read);
}

Tick
Fil::submit(const FlashOp& op, Tick at)
{
    return dispatch(op, pool.unitOf(op.ppn), at);
}

Tick
Fil::dispatch(const FlashOp& op, const FlashUnit& u, Tick at)
{
    if (op.bytes > pool.geometry().pageSize)
        panic("flash op bytes ", op.bytes, " exceed page size ",
              pool.geometry().pageSize);

    switch (op.type) {
      case FlashOp::Type::Read:
        return read(u, op.bytes, at, op.background);
      case FlashOp::Type::Program:
        return program(u, op.bytes, at, op.background);
      case FlashOp::Type::Erase:
        return erase(u, at, op.background);
    }
    panic("unreachable flash op type");
}

Tick
Fil::admitForeground(const FlashUnit& u, Tick at, bool background,
                     bool& suspended, Tick& suspend_from)
{
    suspended = false;
    suspend_from = 0;
    if (background)
        return at;
    Tick all_gate = std::max(pool.dieFreeAt(u), pool.planeFreeAt(u));
    if (all_gate <= at)
        return at; // resource idle: nothing to preempt
    Tick fg_gate = std::max(pool.dieFgFreeAt(u), pool.planeFgFreeAt(u));
    if (all_gate <= fg_gate)
        return at; // foreground work is the blocker: queue normally
    // Only background cell work extends past the foreground timeline:
    // suspend it and take the die/plane after the handshake.
    suspended = true;
    suspend_from = std::max(at, fg_gate);
    ++_activity.suspensions;
    return suspend_from + _timing.tSuspend;
}

Tick
Fil::read(const FlashUnit& u, std::uint32_t bytes, Tick at, bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(u, at, background, suspended, suspend_from);

    // Command/address cycles ride the CA bus (no data-bus occupancy);
    // the cell read runs on the plane; the data transfer then drains
    // the die register over the channel data bus. Under a suspension
    // the die/plane belong to this op from `at`.
    Tick cmd_start = std::max(at, suspended ? at : pool.dieFreeAt(u));
    Tick cmd_done = cmd_start + _timing.cmdOverhead;

    Tick cell_start =
        std::max(cmd_done, suspended ? cmd_done : pool.planeFreeAt(u));
    Tick cell_done = cell_start + _timing.tR;

    Tick xfer = _timing.transferTime(bytes);
    Tick xfer_start = claimChannel(u.channel, cell_done, xfer, background);
    Tick xfer_done = xfer_start + xfer;

    if (background) {
        pool.occupyPlaneBg(u, cell_done);
        pool.occupyDieBg(u, xfer_done);
        ++_activity.gcReads;
    } else {
        pool.occupyPlane(u, cell_done);
        pool.occupyDie(u, xfer_done);
        finishSuspend(u, suspended, suspend_from, xfer_done);
    }

    ++_activity.reads;
    _activity.bytesTransferred += bytes;
    return xfer_done;
}

Tick
Fil::program(const FlashUnit& u, std::uint32_t bytes, Tick at, bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(u, at, background, suspended, suspend_from);

    // Data loads into the die register over the channel first, then the
    // cell program proceeds without holding the bus.
    Tick earliest = std::max(at, suspended ? at : pool.dieFreeAt(u));
    Tick duration = _timing.cmdOverhead + _timing.transferTime(bytes);
    Tick xfer_start = claimChannel(u.channel, earliest, duration,
                                   background);
    Tick xfer_done = xfer_start + duration;

    Tick cell_start =
        std::max(xfer_done, suspended ? xfer_done : pool.planeFreeAt(u));
    Tick cell_done = cell_start + _timing.tPROG;

    if (background) {
        pool.occupyPlaneBg(u, cell_done);
        pool.occupyDieBg(u, cell_done);
        ++_activity.gcPrograms;
    } else {
        pool.occupyPlane(u, cell_done);
        pool.occupyDie(u, cell_done);
        finishSuspend(u, suspended, suspend_from, cell_done);
    }

    ++_activity.programs;
    _activity.bytesTransferred += bytes;
    return cell_done;
}

Tick
Fil::erase(const FlashUnit& u, Tick at, bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(u, at, background, suspended, suspend_from);

    Tick cmd_start = std::max(at, suspended ? at : pool.dieFreeAt(u));
    Tick cmd_done = cmd_start + _timing.cmdOverhead;

    Tick cell_start =
        std::max(cmd_done, suspended ? cmd_done : pool.planeFreeAt(u));
    Tick cell_done = cell_start + _timing.tERASE;

    if (background) {
        pool.occupyPlaneBg(u, cell_done);
        pool.occupyDieBg(u, cell_done);
        ++_activity.gcErases;
    } else {
        pool.occupyPlane(u, cell_done);
        pool.occupyDie(u, cell_done);
        finishSuspend(u, suspended, suspend_from, cell_done);
    }

    ++_activity.erases;
    return cell_done;
}

void
Fil::reset()
{
    pool.reset();
    std::fill(channelFree.begin(), channelFree.end(), 0);
    std::fill(channelBgFree.begin(), channelBgFree.end(), 0);
}

} // namespace hams
