/**
 * @file
 * Per-die / per-plane busy-state tracking for a flash complex.
 *
 * Dies own a command/data register: a die is unavailable while a cell
 * operation (tR/tPROG/tERASE) runs or while its register is being
 * drained over the channel. Planes within a die operate independently
 * for cell work but share the die's register and channel port.
 *
 * Occupancy is tracked on two timelines per resource: foreground
 * (host I/O) and background (GC/housekeeping). A resource is busy
 * until the max of both, but the split lets the FIL grant foreground
 * ops suspend-style priority: when only background work blocks a die
 * or plane, the foreground op starts after a short suspend handshake
 * and the background occupancy is pushed out by the stolen window.
 *
 * Tracked background ops: the pool also keeps a registry of in-flight
 * background operations identified by stable FlashOpHandle values
 * (generation-tagged slots, never heap-allocated in steady state).
 * When a foreground op suspends background cell work or bumps a
 * background transfer off the channel, every live tracked op on the
 * affected die/channel has its completion pushed out by the stolen
 * window — so a handle always answers "when does this op *really*
 * finish", which is what lets the FTL's GC machines credit erased
 * blocks at the true erase-completion tick instead of the tick that
 * was latched at submit time.
 *
 * Live records are threaded through the handle arena on intrusive
 * doubly-linked lists: a cell-tailed op (program/erase) hangs off its
 * die's list, a transfer-tailed op (read) off its channel's list, and
 * released slots form a free list through the same links. Registering
 * and releasing an op are O(1), and an extension walks only the one
 * list it can affect — O(ops on that die or channel), never O(every
 * live op in the device).
 */

#ifndef HAMS_FLASH_NAND_PACKAGE_HH_
#define HAMS_FLASH_NAND_PACKAGE_HH_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flash/nand_timing.hh"
#include "sim/fields.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace hams {

/** Operation counters consumed by the flash energy model. */
#define HAMS_FLASH_ACTIVITY_FIELDS(X)                                      \
    X(sum, std::uint64_t, reads)                                           \
    X(sum, std::uint64_t, programs)                                        \
    X(sum, std::uint64_t, erases)                                          \
    X(sum, std::uint64_t, bytesTransferred)                                \
    /* background (GC) share of the totals above */                        \
    X(sum, std::uint64_t, gcReads)                                         \
    X(sum, std::uint64_t, gcPrograms)                                      \
    X(sum, std::uint64_t, gcErases)                                        \
    /* background ops suspended so a foreground op could run */            \
    X(sum, std::uint64_t, suspensions)

struct FlashActivity
{
    HAMS_FIELDS(FlashActivity, HAMS_FLASH_ACTIVITY_FIELDS)
};

/**
 * Stable identifier of a tracked in-flight background flash op.
 * Returned by Fil::submitTracked; resolves to the op's *current*
 * completion tick (suspension-extended) until released. Value-type,
 * trivially copyable; a default-constructed handle is invalid.
 */
struct FlashOpHandle
{
    std::uint32_t slot = 0;
    std::uint32_t gen = 0; //!< 0 is never a live generation

    bool valid() const { return gen != 0; }
};

/**
 * Flat resource indices of one flash op, decoded once from its PPN by
 * NandPackagePool::unitOf(). Timing depends on an address only through
 * the channel, die and plane it occupies, so these three indices are
 * all the FIL needs.
 *
 * It travels by const reference. Passed by value, its 12 bytes are
 * split across two registers: gcc builds it on the stack with three
 * 4-byte stores and reloads the first two fields as one 8-byte word,
 * a load that store forwarding cannot serve, so every flash op
 * stalled on the hand-off from Fil::submit into read/program/erase.
 * A reference reads each field with the 4-byte load that stored it.
 */
struct FlashUnit
{
    std::uint32_t channel = 0; //!< channel bus, < channels
    std::uint32_t die = 0;     //!< one per (channel, package, die), < dies()
    std::uint32_t plane = 0;   //!< parallel unit, < parallelUnits()
};

/**
 * Busy-until bookkeeping for every die and plane in the complex.
 * Indexed by FlashUnit fields.
 */
class NandPackagePool
{
  public:
    explicit NandPackagePool(const FlashGeometry& geom);

    /**
     * Decode @p ppn into its resource indices. PPNs order pages as
     * [parallel unit | block | page], and within the unit channel is
     * innermost, then package, die and plane
     * (FlashAddress::parallelUnit). So the unit number is already a
     * unique plane index, its residue modulo dies() names the
     * (channel, package, die) triple and its residue modulo the
     * channel count is the channel: one shift and two masks on a
     * power-of-two geometry, three divisions otherwise.
     */
    FlashUnit
    unitOf(std::uint64_t ppn) const
    {
        if (ppn >= totalPages)
            panic("PPN ", ppn, " out of range (", totalPages, " pages)");
        if (pow2) {
            std::uint64_t pu = ppn >> unitShift;
            return {static_cast<std::uint32_t>(pu & channelMask),
                    static_cast<std::uint32_t>(pu & dieMask),
                    static_cast<std::uint32_t>(pu)};
        }
        std::uint64_t pu = ppn / pagesPerUnit;
        return {static_cast<std::uint32_t>(pu % geom.channels),
                static_cast<std::uint32_t>(pu % dieCount),
                static_cast<std::uint32_t>(pu)};
    }

    /** Earliest tick die @p u.die can accept a command. */
    Tick
    dieFreeAt(const FlashUnit& u) const
    {
        return std::max(dieFree[u.die], dieBgFree[u.die]);
    }

    /** Earliest tick plane @p u.plane can start a cell operation. */
    Tick
    planeFreeAt(const FlashUnit& u) const
    {
        return std::max(planeFree[u.plane], planeBgFree[u.plane]);
    }

    /** @name Foreground-only timelines (suspend-priority admission). */
    ///@{
    Tick dieFgFreeAt(const FlashUnit& u) const { return dieFree[u.die]; }
    Tick planeFgFreeAt(const FlashUnit& u) const { return planeFree[u.plane]; }
    ///@}

    /** Reserve the die until @p until (foreground timeline). */
    void
    occupyDie(const FlashUnit& u, Tick until)
    {
        raise(dieFree[u.die], until);
    }

    /** Reserve the plane until @p until (foreground timeline). */
    void
    occupyPlane(const FlashUnit& u, Tick until)
    {
        raise(planeFree[u.plane], until);
    }

    /** Reserve the die until @p until on the background timeline. */
    void
    occupyDieBg(const FlashUnit& u, Tick until)
    {
        raise(dieBgFree[u.die], until);
    }

    /** Reserve the plane until @p until on the background timeline. */
    void
    occupyPlaneBg(const FlashUnit& u, Tick until)
    {
        raise(planeBgFree[u.plane], until);
    }

    /**
     * A foreground op suspended the background work pending on @p u:
     * push every background occupancy still live past @p from out by
     * @p delta (the stolen window, suspend handshake included), and
     * extend the completion of every cell-tailed tracked op on the
     * same die that was still in flight at @p from by the same window.
     * Walks only that die's list: O(cell-tailed ops on the die).
     */
    void pushBackgroundOut(const FlashUnit& u, Tick from, Tick delta);

    /** @name Tracked background ops (FlashOpHandle registry). */
    ///@{
    /**
     * Register a background op on @p u completing at @p completion
     * (the submit-time latch). The record lives — and keeps absorbing
     * suspension/bus-bump extensions — until releaseOp(). Slot reuse
     * is generation-tagged, so stale handles are detected, and the
     * arena never allocates once grown to the high-water mark.
     * @p transfer_tailed marks an op whose completion is a channel
     * data transfer (a read draining the die register): it is linked
     * on its channel's list and extended only by bumpChannelOps. Any
     * other op's completion is cell work: it is linked on its die's
     * list and extended only by the die push. O(1).
     */
    FlashOpHandle trackOp(const FlashUnit& u, Tick completion,
                          bool transfer_tailed);

    /** Current (suspension-extended) completion tick of a live op. */
    Tick completionOf(FlashOpHandle h) const;

    /** Retire a tracked op (O(1) unlink); its handle becomes invalid. */
    void releaseOp(FlashOpHandle h);

    /**
     * A foreground transfer bumped pending background transfers off
     * channel @p ch: extend *transfer-tailed* tracked ops on that
     * channel still in flight past @p from by @p delta. Walks only
     * the channel's list: O(transfer-tailed ops on the channel). Ops
     * whose completion is cell work are not on it — extending them
     * here would double-count with the die push when one foreground
     * op both claims the channel and suspends the die.
     */
    void bumpChannelOps(std::uint32_t ch, Tick from, Tick delta);

    /** Live tracked ops (leak check for tests). */
    std::size_t liveTrackedOps() const { return liveCount; }
    ///@}

    /** Clear all busy state and invalidate every handle (power cycle). */
    void reset();

    const FlashGeometry& geometry() const { return geom; }

  private:
    static void raise(Tick& t, Tick until) { t = std::max(t, until); }

    static constexpr std::uint32_t none = ~0u; //!< null list link

    /** One tracked in-flight background op (or a free arena slot). */
    struct OpRecord
    {
        std::uint32_t gen = 1;
        bool live = false;
        bool transferTailed = false;
        std::uint32_t list = 0; //!< die index, or channel if transferTailed
        std::uint32_t prev = none;
        std::uint32_t next = none; //!< free-list link while not live
        Tick completion = 0;
    };

    /** Head of the die or channel list @p r is (to be) linked on. */
    std::uint32_t& headOf(const OpRecord& r)
    {
        return r.transferTailed ? chanHead[r.list] : dieHead[r.list];
    }

    /** Panic unless @p h names a live record. */
    void checkLive(FlashOpHandle h, const char* what) const;

    FlashGeometry geom;
    std::uint64_t totalPages;   //!< PPN bound
    std::uint64_t pagesPerUnit; //!< pages per parallel unit (plane)
    std::uint64_t dieCount;     //!< dies()
    /** Shift/mask decode: pages per unit, dies and channels are all
     *  powers of two (decided once, from the geometry). */
    bool pow2 = false;
    std::uint32_t unitShift = 0;  //!< log2(pagesPerUnit)
    std::uint64_t channelMask = 0;
    std::uint64_t dieMask = 0;

    std::vector<Tick> dieFree;    //!< foreground timeline
    std::vector<Tick> planeFree;  //!< foreground timeline
    std::vector<Tick> dieBgFree;  //!< background timeline
    std::vector<Tick> planeBgFree;//!< background timeline

    std::vector<OpRecord> ops;           //!< handle arena
    std::vector<std::uint32_t> dieHead;  //!< cell-tailed ops per die
    std::vector<std::uint32_t> chanHead; //!< transfer-tailed ops per channel
    std::uint32_t freeHead = none;       //!< recycled arena slots
    std::size_t liveCount = 0;
};

} // namespace hams

#endif // HAMS_FLASH_NAND_PACKAGE_HH_
