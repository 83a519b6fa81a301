/**
 * @file
 * Flash Interface Layer (FIL).
 *
 * Translates FTL-level page operations into timed flash transactions:
 * command/address cycles, cell operations and data transfers, contending
 * for channel buses, dies and planes. Mirrors the firmware layering of
 * the Amber / SimpleSSD model the paper builds on.
 */

#ifndef HAMS_FLASH_FIL_HH_
#define HAMS_FLASH_FIL_HH_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flash/nand_package.hh"
#include "flash/nand_timing.hh"
#include "sim/annotations.hh"
#include "sim/types.hh"

namespace hams {

/** One flash-level operation on a physical page or block. */
struct FlashOp
{
    enum class Type : std::uint8_t { Read, Program, Erase };

    Type type = Type::Read;
    std::uint64_t ppn = 0;      //!< physical page (block for erases)
    std::uint32_t bytes = 4096; //!< payload (<= geometry pageSize)
    /**
     * Background (GC/housekeeping) priority: the op yields to
     * foreground traffic. A foreground op arriving at a die/plane
     * whose only remaining occupancy is background work suspends it
     * (tSuspend handshake), runs, and the background op resumes
     * afterwards — the suspend-style program/erase preemption real
     * low-latency devices use to keep internal tasks off the read
     * path.
     */
    bool background = false;
};

/**
 * Schedules flash operations over the channel/die/plane resources and
 * returns analytic completion times.
 */
class Fil
{
  public:
    Fil(const FlashGeometry& geom, const NandTiming& timing);

    /**
     * Issue one operation no earlier than @p at.
     * @return tick at which the operation fully completes (data available
     *         in the channel controller for reads; cell programmed for
     *         writes; block erased for erases).
     *
     * The returned tick is *latched*: for a background op that a later
     * foreground op suspends, the resource timelines are pushed out but
     * the returned value is not. Callers that must observe the true
     * completion (the FTL's GC machines crediting an erased block)
     * submit through submitTracked() instead and query the handle.
     */
    HAMS_HOT_PATH Tick submit(const FlashOp& op, Tick at);

    /** @name Op-handle completion contract (background ops). */
    ///@{
    /**
     * Issue a *background* operation and return a stable handle
     * instead of a latched tick. completionOf(handle) answers the
     * op's current completion, re-extended by exactly one mechanism
     * per op — a cell-tailed program/erase by every foreground
     * suspension of its die, a transfer-tailed read by every
     * foreground claim that bumps its channel — which is how
     * suspension-extended completions propagate back to the FTL's GC
     * machines. Model boundary: a cell-tailed op whose *data load*
     * has not happened yet can additionally slip behind a foreground
     * transfer from another die on the same channel; distinguishing
     * that would need per-op phase tracking, so the handle stays
     * latched for that window (the same bounded optimism all of PR 4
     * had) rather than risk double-counting the same-die case. The
     * caller owns the handle and must release() it once the
     * completion has been consumed. Panics on a foreground op:
     * foreground completions are never extended, so the latched
     * submit() tick is already the truth.
     */
    HAMS_HOT_PATH FlashOpHandle submitTracked(const FlashOp& op, Tick at);

    /** Current (suspension-extended) completion of a tracked op. */
    HAMS_HOT_PATH Tick completionOf(FlashOpHandle h) const
    {
        return pool.completionOf(h);
    }

    /** Retire a tracked op's handle. */
    HAMS_HOT_PATH void release(FlashOpHandle h) { pool.releaseOp(h); }

    /** Live tracked ops (leak check for tests). */
    std::size_t trackedOps() const { return pool.liveTrackedOps(); }
    ///@}

    /** Earliest tick channel @p ch's bus is free (tests/scheduling). */
    HAMS_HOT_PATH Tick
    channelFreeAt(std::uint32_t ch) const
    {
        return std::max(channelFree[ch], channelBgFree[ch]);
    }

    const FlashGeometry& geometry() const { return pool.geometry(); }
    /** Die and plane busy state (tests). */
    const NandPackagePool& packages() const { return pool; }
    const NandTiming& timing() const { return _timing; }
    const FlashActivity& activity() const { return _activity; }

    /**
     * Clear all busy state (power cycle). Also invalidates every
     * outstanding FlashOpHandle — an owner still holding handles (a
     * PageFtl with background GC mid-flight) must drop them in the
     * same breath (`PageFtl::onFlashReset()`), or its next
     * completionOf() query panics on a stale handle.
     */
    HAMS_COLD_PATH void reset();

  private:
    /** submit() after the PPN is decoded to @p u. */
    HAMS_HOT_PATH Tick dispatch(const FlashOp& op, const FlashUnit& u,
                                Tick at);

    HAMS_HOT_PATH Tick read(const FlashUnit& u, std::uint32_t bytes,
                            Tick at, bool background);
    HAMS_HOT_PATH Tick program(const FlashUnit& u, std::uint32_t bytes,
                               Tick at, bool background);
    HAMS_HOT_PATH Tick erase(const FlashUnit& u, Tick at, bool background);

    /**
     * Foreground-priority admission to @p u's die/plane pair: when the
     * only occupancy beyond the foreground timeline is background cell
     * work, the op starts after the suspend handshake instead of
     * waiting, and the suspended work is pushed out once the
     * foreground op's resource end is known (finishSuspend()).
     * @return the effective start tick; sets @p suspended.
     */
    HAMS_HOT_PATH Tick admitForeground(const FlashUnit& u, Tick at,
                                       bool background, bool& suspended,
                                       Tick& suspend_from);

    /** Push the suspended background work out by the stolen window. */
    HAMS_HOT_PATH void
    finishSuspend(const FlashUnit& u, bool suspended, Tick suspend_from,
                  Tick fg_end)
    {
        if (suspended)
            pool.pushBackgroundOut(u, suspend_from, fg_end - suspend_from);
    }

    /**
     * Claim the channel bus for a data transfer starting no earlier
     * than @p earliest. Foreground transfers queue only behind other
     * foreground traffic (a pending background transfer is bumped and
     * resumes later — packet-granular bus arbitration); background
     * transfers queue behind everything.
     * @return the transfer's start tick; occupies the bus to start +
     *         @p duration.
     */
    HAMS_HOT_PATH Tick claimChannel(std::uint32_t ch, Tick earliest, Tick duration,
                      bool background);

    NandTiming _timing;
    NandPackagePool pool;
    std::vector<Tick> channelFree;   //!< foreground timeline
    std::vector<Tick> channelBgFree; //!< background (GC) timeline
    FlashActivity _activity;
};

} // namespace hams

#endif // HAMS_FLASH_FIL_HH_
